"""catsim: exact simulation of quantum computing and metrology with
superpositions of coherent states.

States are finite sums of multimode coherent states, evolved exactly
through linear-optical elements, conditioned on photon-counting /
homodyne / Bell-cat measurements, and cross-validated against an
independent truncated number-basis oracle.
"""

from .states import (
    CoherentSuperposition,
    ZeroNormError,
    bell_cat,
    cat,
    coherent,
    coherent_overlap,
    fidelity,
    ghz_cat,
    inner_product,
    vacuum,
)
from .optics import (
    beamsplitter,
    bell_resource,
    displace,
    nport_merge,
    phase_shift,
    tensor,
)
from .measure import (
    MeasurementRecord,
    UnsupportedStateError,
    bell_outcomes,
    cat_projection,
    homodyne_pdf,
    homodyne_sample,
    parity_projection,
    photon_statistics,
    project_photon_number,
)
from .gates import (
    GateFailure,
    GateOutcome,
    QubitEncoding,
    cnot_dressing,
    decode,
    decode_two,
    encode,
    entangling_gate,
    gate_rx,
    gate_rz,
    gate_x,
    gate_z,
    teleport,
)
from .metrology import (
    FringeScan,
    SensitivityReport,
    classical_snr,
    mean_photon_number,
    qfi_displacement,
    quantum_ruler,
    ramsey_fisher,
    ramsey_probability,
    sensitivity_bound,
    weak_force_experiment,
)

__version__ = "1.0.0"
