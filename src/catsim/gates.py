"""Coherent-state qubit encoding and the universal gate set: X, teleported
Z, teleported Rz, cat-projected Rx(pi/2), and the beam-splitter entangling
gate, plus the closed-form local dressing of the entangling gate onto CNOT.

Logical basis: |0>_L = |-alpha>, |1>_L = |alpha> with real alpha > 0.
Probabilistic gates take an RNG; passing rng=None post-selects the
canonical branch (the outcome whose conditioned state realizes the gate
with no residual correction), which serves `gate-check` and deterministic
circuits.

Each gate is its optical step and its first branch table.  Every measured
step goes through `_draw` (pick a record, multiply its probability, trace
it, land the output in the qubit's mode, X-correct it and compose its Z
residual), and every Z fix, the Z gate included, through `_settle`
(repeat-until-success Bell teleports until the wanted residual lands).
Every teleport draws from one kind of Bell table, `_bell_table`, whether
its input is logical or has left {+alpha, -alpha} (Rz's displaced input,
the entangling gate's mixed one): no tolerance chooses between tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import measure, optics
from .optics import _beamsplitter_u, _passive
from .states import CoherentSuperposition, _pair, coherent_overlap

__all__ = [
    "QubitEncoding",
    "GateOutcome",
    "GateFailure",
    "encode",
    "decode",
    "decode_two",
    "gate_x",
    "teleport",
    "gate_z",
    "gate_rz",
    "gate_rx",
    "entangling_gate",
    "cnot_dressing",
]

MAX_REPEATS = 64
# theta^2 alpha^2 above which a teleported gate leaves its near-deterministic
# regime; gate_rz and entangling_gate warn beyond it
MAX_THETA2_ALPHA2 = 0.05


class GateFailure(RuntimeError):
    """Bell FAIL outcome (or repeat cap) aborted a gate."""


@dataclass(frozen=True)
class QubitEncoding:
    alpha: float
    mode: int = 0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")


@dataclass(frozen=True)
class GateOutcome:
    state: CoherentSuperposition
    success: bool
    applied: str
    probability: float
    repetitions: int = 1
    trace: tuple = ()


def _traced(element: str, params: str, outcome: str, probability: float) -> tuple:
    return (element, params, outcome, float(probability))


def encode(mu: complex, nu: complex, enc: QubitEncoding) -> CoherentSuperposition:
    """Normalized mu|-a> + nu|a> (by the exact norm of the nonorthogonal
    pair; a zero (mu, nu) raises ZeroNormError, a ValueError)."""
    return _pair((-enc.alpha,), mu, nu)


def logical_coefficients(
    s: CoherentSuperposition, encs: list[QubitEncoding]
) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of `s` in the nonorthogonal logical
    product basis over the encoded modes (mode 0 the most significant bit,
    logical 0 = -alpha), plus the leakage outside the logical span.
    The encodings' modes must be the state's modes, each exactly once
    (ValueError): decode expects the state to live entirely on the encoded
    modes.

    The logical Gram matrix is the Kronecker product of [[1, o], [o, 1]],
    o = e^{-2a^2}, over the modes, so the fit goes mode by mode: amplitude
    x in a mode with references r = -a, +a has the dual pair
    d_r(x) = <r|x> expm1(-2r(r + x)) / expm1(-4r^2), exactly 1 at x = r and
    0 at x = -r; expm1 keeps the two cancelling differences exact at small
    alpha.  Past -r, where expm1 would overflow, the equal form
    -e^{-2r^2} <-r|x> expm1(2r(r + x)) / expm1(-4r^2) is used.  The
    coefficients are y = sum_k c_k (Kronecker over m) d(x_km); with b the
    same product of the overlaps <r|x_km>, the leakage is 1 - Re y^dag b.  Only
    alpha^2 underflowing to 0 leaves the fit undefined (ValueError)."""
    if sorted(e.mode for e in encs) != list(range(s.modes)):
        raise ValueError("the encodings' modes must be the state's modes, each exactly once")
    alphas = np.array([e.alpha for e in encs], dtype=float)
    scale = np.expm1(-4.0 * alphas**2)
    if not scale.all():
        raise ValueError("logical Gram system is singular (alpha too small)")
    refs = np.stack([-alphas, alphas], axis=1)[..., None]
    x = s.amps.T[[e.mode for e in encs], None]
    ov = coherent_overlap(refs, x)  # (n, 2, K): <r|x_km>
    expo = -2.0 * refs * (refs + x)
    far = expo.real > 0
    dual = (np.where(far, -np.exp(-2.0 * refs**2) * ov[:, ::-1], ov)
            * np.expm1(np.where(far, -expo, expo)) / scale[:, None, None])
    # per term, the duals (then the overlaps) multiplied mode by mode into
    # 2^n-vectors, mode 0 outermost and terms last, then summed over terms.
    # One table at a time: both at once (256 KiB at 2^6 x 128 terms) were
    # mapped and page-faulted afresh on every call.
    sums = []
    for table in (dual, ov):
        acc = s.coeffs[None]
        for m in range(len(encs)):
            acc = (acc[:, None] * table[m, None]).reshape(-1, s.nterms)
        sums.append(acc.sum(axis=1))
    coeffs, proj = sums
    leakage = max(1.0 - float(np.sum(coeffs.conj() * proj).real), 0.0)
    return coeffs, leakage


def decode(s: CoherentSuperposition, enc: QubitEncoding) -> tuple[complex, complex, float]:
    """(mu, nu, leakage) of a normalized single-mode state."""
    x, leakage = logical_coefficients(s, [enc])
    return complex(x[0]), complex(x[1]), leakage


def decode_two(
    s: CoherentSuperposition, enc_a: QubitEncoding, enc_b: QubitEncoding
) -> tuple[np.ndarray, float]:
    """4-vector of computational amplitudes (|00>,|01>,|10>,|11> with
    0 = -alpha) and leakage, for a normalized two-mode state."""
    return logical_coefficients(s, [enc_a, enc_b])


def gate_x(s: CoherentSuperposition, enc: QubitEncoding) -> CoherentSuperposition:
    """Bit flip X = P(pi): half-cycle delay against the local oscillator."""
    return optics.phase_shift(s, enc.mode, np.pi)


# map from a drawn record's outcome, a Bell outcome or gate_rx's (input,
# resource) parity pair, to (apply X correction?, Z residual?)
_CORRECTIONS = {
    "I": (False, False),
    "II": (False, True),
    "III": (True, False),
    "IV": (True, True),
    ("even", "even"): (False, False),
    ("even", "odd"): (False, True),
    ("odd", "even"): (True, True),
    ("odd", "odd"): (True, False),
}


def _pick(
    table: dict, rng: Optional[np.random.Generator], canonical
) -> measure.MeasurementRecord:
    """The record a gate goes on with: drawn from its exact branch table
    when an rng is given, else the canonical branch.  Picking a branch
    without a state (other than FAIL) is a GateFailure."""
    if all(r.probability <= measure.PROB_FLOOR for r in table.values()):
        raise GateFailure("all branches have zero probability")
    rec = table[canonical] if rng is None else measure.sample(table, rng)
    if rec.state is None and rec.outcome != "FAIL":
        raise GateFailure(f"branch {rec.outcome} has zero probability")
    return rec


def _replace_mode(s: CoherentSuperposition, target_mode: int) -> CoherentSuperposition:
    """Move the last mode (a fresh teleported output) into target_mode's slot."""
    m = s.modes
    order = list(range(m - 1))
    order.insert(target_mode, m - 1)
    return optics.permute_modes(s, order)


def _with_resource(s: CoherentSuperposition, enc: QubitEncoding) -> tuple:
    """What a step measuring s's enc.mode and the first mode of a fresh
    Bell-cat resource reads of s (x) resource, without building it:
    (coeffs, cols, rest, pair), the joint coefficients and the (2K, 2)
    measured columns (s's, then the resource's) in the term order of
    `optics.tensor` (term 2j + r is s's term j times the resource's term
    r), s's other modes and the resource's kept mode, the rows x, -x whose
    eigen-forms `measure._table` scores.  IndexError for an enc.mode
    outside s."""
    s.check_mode(enc.mode)
    res = optics.bell_resource(enc.alpha)
    k = s.nterms
    coeffs = (s.coeffs[:, None] * res.coeffs[None, :]).reshape(2 * k)
    cols = np.empty((k, 2, 2), dtype=complex)
    cols[:, :, 0] = s.amps[:, enc.mode, None]
    cols[:, :, 1] = res.amps[:, 0]
    return coeffs, cols.reshape(2 * k, 2), measure._rest(s, [enc.mode]), res.amps[:, 1:]


def _bell_table(s: CoherentSuperposition, enc: QubitEncoding) -> dict:
    """The Bell table of teleporting the qubit in enc.mode through a fresh
    Bell-cat resource: the rows of `measure._bell_rows` against the +alpha
    or -alpha nearest the mode's largest amplitude, the reference that
    `measure.bell_outcomes` takes on a logical input.  One table serves
    every input: a term off {+alpha, -alpha} is weighted by its overlap with
    the nearest support point, which is exactly 1 on the support, so the
    table is continuous in its input and the teleport projects any leakage
    back into the logical space."""
    coeffs, cols, rest, pair = _with_resource(s, enc)
    a = s.amps[:, enc.mode]
    ref = enc.alpha * measure._nearest_signs(a[np.abs(a).argmax()], enc.alpha)
    rows = measure._bell_rows(cols[:, 0], cols[:, 1], ref)
    return measure._table("bell_measurement", coeffs, rest, rows, pair)


def _draw(
    out: GateOutcome, enc: QubitEncoding, table: dict, rng: Optional[np.random.Generator], canonical
) -> GateOutcome:
    """The measured step after `out`: the record `_pick`ed from `table`
    (a Bell table, or gate_rx's cat projection) multiplies the probability,
    counts one repetition and is traced under rec.kind.  FAIL keeps
    out.state; every other outcome moves the output into enc.mode, applies
    the X correction of its branch and composes its Z residual into
    `applied`."""
    rec = _pick(table, rng, canonical)
    p, reps = out.probability * rec.probability, out.repetitions + 1
    trace = out.trace + (_traced(rec.kind, f"alpha={enc.alpha}", str(rec.outcome), rec.probability),)
    if rec.outcome == "FAIL":
        return GateOutcome(out.state, False, "FAIL", p, reps, trace)
    state = _replace_mode(rec.state, enc.mode)
    flip, z = _CORRECTIONS[rec.outcome]
    if flip:
        state = gate_x(state, enc)
        trace += (_traced("phase_shift", "theta=pi (X correction)", "-", 1.0),)
    applied = "Z" if z != (out.applied == "Z") else "identity"
    return GateOutcome(state, True, applied, p, reps, trace)


def _settle(
    out: GateOutcome, enc: QubitEncoding, rng: Optional[np.random.Generator], want: str = "identity"
) -> GateOutcome:
    """Repeat-until-success Bell teleports of the qubit in enc.mode until
    out.applied is `want` (each Z landing, probability ~1/2 per attempt,
    flips it), or a FAIL; post-selecting 'II'.  More than MAX_REPEATS
    teleports is a GateFailure.

    An identity landing (I, or III after its X correction) returns the
    logical state the table was built from, so a table built from a logical
    state serves every attempt: a state that a table landed (out has drawn
    before), or an input exactly on {+alpha, -alpha}.  Any other input
    builds a second table from its first landing, which the teleport has
    projected onto the logical space."""
    cap, table = out.repetitions + MAX_REPEATS, None
    while out.success and out.applied != want:
        if out.repetitions == cap:
            raise GateFailure(f"Z branch did not land within {MAX_REPEATS} teleports")
        if table is None:
            table = _bell_table(out.state, enc)
            col = out.state.amps[:, enc.mode]
            keep = out.repetitions > 0 or np.isin(col, (-enc.alpha, enc.alpha)).all()
        out = _draw(out, enc, table, rng, "II")
        if not keep:
            table = None
    return out


def _named(s: CoherentSuperposition, out: GateOutcome, name: str) -> GateOutcome:
    """A settled gate on input `s`: `out` under the gate's name, or, if it
    failed, on `s`, counting every teleport it ran."""
    return replace(out, applied=name) if out.success else replace(out, state=s)


def teleport(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Teleport the qubit in enc.mode through a fresh Bell-cat resource.

    Projects any leakage back into the logical space.  The Bell outcome
    decides the residual: I/III land the identity (after X correction for
    III), II/IV land Z.  With rng=None the 'I' branch is post-selected.
    """
    return _draw(GateOutcome(s, True, "identity", 1.0, 0), enc, _bell_table(s, enc), rng, "I")


def gate_z(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Sign flip by repeat-until-success teleportation: the settle step of
    every gate's Z fix, run until a Z lands (`_settle`).  A FAIL returns
    the input s, like every gate, counting every teleport it ran."""
    return _named(s, _settle(GateOutcome(s, True, "identity", 1.0, 0), enc, rng, want="Z"), "Z")


def _warn_outside_regime(theta: float, alpha: float) -> None:
    """Warn the caller of a teleported gate whose theta^2 alpha^2 exceeds
    MAX_THETA2_ALPHA2."""
    t2a2 = theta**2 * alpha**2
    if t2a2 > MAX_THETA2_ALPHA2:
        warnings.warn(
            f"theta^2 alpha^2 = {t2a2:.3g} > {MAX_THETA2_ALPHA2}: gate is far from its "
            "near-deterministic regime",
            stacklevel=3,
        )


def gate_rz(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    theta: float,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Rotation about Z by 4 theta alpha^2: displace by i alpha theta, then
    teleport back into the logical space.  A Z residual from the teleport
    is undone with the Z gate, so the net effect is always the rotation.
    """
    _warn_outside_regime(theta, enc.alpha)
    displaced = optics.displace(s, enc.mode, 1j * enc.alpha * theta)
    trace = (_traced("displace", f"beta={1j * enc.alpha * theta:.6g}", "-", 1.0),)
    table = _bell_table(displaced, enc)
    out = _draw(GateOutcome(displaced, True, "identity", 1.0, 0, trace), enc, table, rng, "I")
    return _named(s, _settle(out, enc, rng), f"Rz({4 * theta * enc.alpha ** 2:.6g})")


def gate_rx(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    theta: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Rx(pi/2) at the default theta: mix the qubit with half of a Bell-cat
    resource on a weak beam splitter, project both measured modes onto
    even/odd cats, and correct.  Decoded action on (mu, nu):

        (mu, nu) -> (e^{i t a^2} mu + e^{-i t a^2} nu,
                     e^{-i t a^2} mu + e^{i t a^2} nu) / norm

    with t = theta, i.e. the map e^{i t a^2} I + e^{-i t a^2} X, which is
    diag(cos t a^2, i sin t a^2) on the X eigenbasis.  Only the default
    theta = pi/(4 alpha^2), where 2 theta alpha^2 = pi/2, gives Rx(pi/2).
    The map is a multiple of a unitary only where theta alpha^2 is an odd
    multiple of pi/4; at any other theta it is not a rotation but an
    input-dependent filter once normalized.  The drawn parity record lands
    through `_draw` like a teleport's Bell record: X correction first, then
    `_settle` for a Z residual.  With rng=None the even/even branch is
    post-selected.
    """
    if theta is None:
        theta = np.pi / (4 * enc.alpha**2)
    coeffs, cols, rest, pair = _with_resource(s, enc)
    # the two cat projections each contribute e^{+/- i (theta/2) alpha^2};
    # the beam splitter touches only the two measured columns
    a, b = _passive(cols, _beamsplitter_u(theta / 2.0)).T
    trace = (_traced("beamsplitter", f"theta={theta / 2.0:.6g}", "-", 1.0),)

    # joint cat projection of the input mode and the resource's first mode, keys (pa, pb)
    parity = {"even": +1, "odd": -1}
    wa = {k: measure._cat_weights(enc.alpha, p, a) for k, p in parity.items()}
    wb = {k: measure._cat_weights(enc.alpha, p, b) for k, p in parity.items()}
    rows = [((ka, kb), 1.0, wa[ka] * wb[kb], True) for kb in parity for ka in parity]
    table = measure._table("cat_projection", coeffs, rest, rows, pair)
    out = _draw(GateOutcome(s, True, "identity", 1.0, 0, trace), enc, table, rng, ("even", "even"))
    return _named(s, _settle(out, enc, rng), f"Rx({2 * theta * enc.alpha ** 2:.6g})")


def entangling_gate(
    s: CoherentSuperposition,
    enc_a: QubitEncoding,
    enc_b: QubitEncoding,
    theta: float,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Two-qubit phase gate: weak beam splitter between the qubit modes,
    then teleport both back into the logical space.  The computational
    amplitudes acquire e^{+i theta alpha^2} on |--> and |++> and
    e^{-i theta alpha^2} on the mixed components; accumulating to
    2 theta alpha^2 = pi/2 gives a gate locally equivalent to CNOT.
    """
    if enc_a.mode == enc_b.mode:
        raise ValueError("the two qubits must occupy distinct modes")
    _warn_outside_regime(theta, max(enc_a.alpha, enc_b.alpha))
    # each of the two teleport projections contributes half the phase
    mixed = optics.beamsplitter(s, enc_a.mode, enc_b.mode, theta / 2.0)
    trace = (_traced("beamsplitter", f"theta={theta / 2.0:.6g}", "-", 1.0),)
    out = GateOutcome(mixed, True, "identity", 1.0, 0, trace)
    for enc in (enc_a, enc_b):
        if out.success:
            out = _settle(_draw(out, enc, _bell_table(out.state, enc), rng, "I"), enc, rng)
    return _named(s, out, f"ZZ({theta * enc_a.alpha ** 2:.6g})")


# ---------------------------------------------------------------------------
# CNOT dressing

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def cnot_dressing(gate: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form local dressing of a two-qubit gate onto CNOT.

    Precondition: `gate` is diagonal in the logical basis up to leakage,
    as the accumulated `entangling_gate` is.  With phases phi_ij of its
    diagonal, P = diag(1, e^{i(phi00-phi10)}) x diag(1, e^{i(phi00-phi01)})
    leaves gate P = e^{i phi00} diag(1, 1, 1, e^{i chi}), chi = phi00 +
    phi11 - phi01 - phi10, and dressed = (I x H) gate P (I x H) is CNOT
    when chi = pi.  Away from chi = pi this is not the optimum over all
    local dressings.  Returns (fidelity, dressed) with the process fidelity
    |Tr(CNOT^dag dressed)|^2 / (4 Tr(dressed^dag dressed)), 1.0 exactly when
    dressed is CNOT up to a global phase and scale."""
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit gate, got shape {gate.shape}")
    phi = np.angle(np.diag(gate))
    p = np.kron([1, np.exp(1j * (phi[0] - phi[2]))], [1, np.exp(1j * (phi[0] - phi[1]))])
    i_h = np.kron(np.eye(2), [[1, 1], [1, -1]]) / np.sqrt(2)
    dressed = i_h @ gate @ np.diag(p) @ i_h
    norm = 4 * float(np.real(np.trace(dressed.conj().T @ dressed)))
    return abs(np.trace(CNOT.conj().T @ dressed)) ** 2 / norm, dressed
