"""catsim: exact simulation of quantum computing and metrology with
superpositions of coherent states.

States are finite sums of multimode coherent states, evolved exactly
through linear-optical elements, conditioned on photon-counting /
homodyne / Bell-cat measurements, and cross-validated against an
independent truncated number-basis oracle.

The package namespace re-exports each library module's `__all__`; that
list is the one declaration of the module's public names.
"""

from .states import *  # noqa: F401,F403
from .optics import *  # noqa: F401,F403
from .measure import *  # noqa: F401,F403
from .gates import *  # noqa: F401,F403
from .metrology import *  # noqa: F401,F403

__version__ = "1.0.0"
