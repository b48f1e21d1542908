"""Coherent-state qubit encoding and the universal gate set: X, teleported
Z, teleported Rz, cat-projected Rx(pi/2), and the beam-splitter entangling
gate, plus the closed-form local dressing of the entangling gate onto CNOT.

Logical basis: |0>_L = |-alpha>, |1>_L = |alpha> with real alpha > 0.
Probabilistic gates take an RNG; passing rng=None post-selects the
canonical branch (the outcome whose conditioned state realizes the gate
with no residual correction), which serves `gate-check` and deterministic
circuits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import measure, optics
from .optics import _beamsplitter_u, _passive
# coherent_overlap stays bound here for bench/tracer.py, which wraps it per module
from .states import CoherentSuperposition, _overlap_matrix, coherent_overlap  # noqa: F401

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
        if self.alpha <= 0:
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


def _fold(done: GateOutcome, step: GateOutcome) -> GateOutcome:
    """`step` run after `done`: probabilities multiplied, repetitions added
    and traces concatenated."""
    return replace(
        step,
        probability=done.probability * step.probability,
        repetitions=done.repetitions + step.repetitions,
        trace=done.trace + step.trace,
    )


def encode(mu: complex, nu: complex, enc: QubitEncoding) -> CoherentSuperposition:
    """Normalized mu|-a> + nu|a> (Gram-normalized, not orthogonal)."""
    if mu == 0 and nu == 0:
        raise ValueError("(mu, nu) must be nonzero")
    s = CoherentSuperposition(
        np.array([mu, nu], dtype=complex),
        np.array([[-enc.alpha], [enc.alpha]], dtype=complex),
    )
    return s.normalize()


def logical_coefficients(
    s: CoherentSuperposition, encs: list[QubitEncoding]
) -> tuple[np.ndarray, float]:
    """Least-squares coefficients of `s` in the nonorthogonal logical
    product basis over the encoded modes, plus the leakage outside the
    logical span.  Non-encoded modes must not exist (decode expects the
    state to live entirely on the encoded modes)."""
    if s.modes != len(encs):
        raise ValueError("state must have exactly one mode per encoding")
    n = len(encs)
    # product basis: bit 0 of row i addresses the last encoding; logical 0 = -alpha
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    alphas = np.array([e.alpha for e in encs], dtype=complex)
    basis = np.where(bits == 1, alphas, -alphas)
    b = _overlap_matrix(basis, s.amps[:, [e.mode for e in encs]]) @ s.coeffs
    g = _overlap_matrix(basis, basis)
    try:
        x = np.linalg.solve(g, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("logical Gram system is singular (alpha too small)") from exc
    proj2 = float(np.real(np.conj(x) @ g @ x))
    leakage = max(1.0 - proj2, 0.0)
    return x, leakage


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


# map from a landed record's outcome, a Bell outcome or gate_rx's (input,
# resource) parity pair, to (apply X correction?, residual op)
_CORRECTIONS = {
    "I": (False, "identity"),
    "II": (False, "Z"),
    "III": (True, "identity"),
    "IV": (True, "Z"),
    ("even", "even"): (False, "identity"),
    ("even", "odd"): (False, "Z"),
    ("odd", "even"): (True, "Z"),
    ("odd", "odd"): (True, "identity"),
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


def _bell_table(s: CoherentSuperposition, enc: QubitEncoding) -> tuple[dict, bool]:
    """(table, leaked): the Bell table of teleporting the qubit in enc.mode
    through a fresh Bell-cat resource, and whether that mode had leaked off
    {+alpha, -alpha}.  Strict inputs get the exact photon-counting
    classifier; leaked inputs get the idealized Bell-cat projection that
    cleans them."""
    joint = optics.tensor(s, optics.bell_resource(enc.alpha))
    m = s.modes
    _, leaked = measure._support(s.amps[:, enc.mode], enc.alpha)
    if leaked:
        return measure.bell_cat_outcomes(joint, enc.mode, m, enc.alpha), True
    return measure.bell_outcomes(joint, enc.mode, m), False


def _land(
    s: CoherentSuperposition, enc: QubitEncoding, rec: measure.MeasurementRecord
) -> GateOutcome:
    """The step of a gate on `s` that drew record `rec` (a Bell record, or
    gate_rx's cat projection), traced under rec.kind: FAIL keeps `s`, every
    other outcome moves the output into enc.mode and applies the X
    correction of its branch, leaving its residual op to the caller."""
    trace = (_traced(rec.kind, f"alpha={enc.alpha}", str(rec.outcome), rec.probability),)
    if rec.outcome == "FAIL":
        return GateOutcome(s, False, "FAIL", rec.probability, trace=trace)
    out = _replace_mode(rec.state, enc.mode)
    flip, residual = _CORRECTIONS[rec.outcome]
    if flip:
        out = gate_x(out, enc)
        trace = trace + (_traced("phase_shift", "theta=pi (X correction)", "-", 1.0),)
    return GateOutcome(out, True, residual, rec.probability, trace=trace)


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
    table, _ = _bell_table(s, enc)
    return _land(s, enc, _pick(table, rng, "I"))


def gate_z(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Sign flip by repeat-until-success teleportation (Z branch lands with
    probability ~1/2 per attempt).

    Each attempt is one draw from a Bell table.  An identity landing
    (I, or III after its X correction) returns the logical state the table
    was built from, so a strict {+alpha, -alpha} input builds one table and
    draws every attempt from it.  A leaked input builds a second table from
    its first landing, which the teleport has projected onto the logical
    space."""
    out = GateOutcome(s, True, "identity", 1.0, 0)
    leaked = True
    for _ in range(MAX_REPEATS):
        if leaked:
            table, leaked = _bell_table(out.state, enc)
        out = _fold(out, _land(out.state, enc, _pick(table, rng, "II")))
        if not out.success or out.applied == "Z":
            return out
    raise GateFailure(f"Z branch did not land within {MAX_REPEATS} teleports")


def _undo_z(
    s: CoherentSuperposition,
    step: GateOutcome,
    enc: QubitEncoding,
    rng: Optional[np.random.Generator],
) -> GateOutcome:
    """Settle one step of a gate on input `s`.  `step` carries the gate's
    running probability, repetitions and trace; a Z residual
    (step.applied == "Z") is undone with gate_z on `enc`, folded in.  A
    failed step fails the gate on `s`, counting every teleport it ran."""
    if step.success and step.applied == "Z":
        fix = _fold(step, gate_z(step.state, enc, rng))
        step = replace(fix, applied="identity") if fix.success else fix
    return step if step.success else replace(step, state=s)


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
    done = GateOutcome(displaced, True, "identity", 1.0, 0, trace)
    out = _undo_z(s, _fold(done, teleport(displaced, enc, rng)), enc, rng)
    return replace(out, applied=f"Rz({4 * theta * enc.alpha ** 2:.6g})") if out.success else out


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
    through `_land` like a teleport's Bell record: X correction first, then
    gate_z for a Z residual.  With rng=None the even/even branch is post-selected.
    """
    if theta is None:
        theta = np.pi / (4 * enc.alpha**2)
    joint = optics.tensor(s, optics.bell_resource(enc.alpha))
    m = s.modes
    # the two cat projections each contribute e^{+/- i (theta/2) alpha^2};
    # the beam splitter touches only the two measured columns
    a, b = _passive(joint.amps[:, [enc.mode, m]], _beamsplitter_u(theta / 2.0)).T
    trace = (_traced("beamsplitter", f"theta={theta / 2.0:.6g}", "-", 1.0),)

    # joint cat projection of the input mode and resource half m, keys (pa, pb)
    parity = {"even": +1, "odd": -1}
    wa = {k: measure._cat_weights(enc.alpha, p, a) for k, p in parity.items()}
    wb = {k: measure._cat_weights(enc.alpha, p, b) for k, p in parity.items()}
    rows = [((ka, kb), 1.0, wa[ka] * wb[kb], True) for kb in parity for ka in parity]
    table = measure._table("cat_projection", joint, [enc.mode, m], rows)
    done = GateOutcome(s, True, "identity", 1.0, 0, trace)
    out = _undo_z(s, _fold(done, _land(s, enc, _pick(table, rng, ("even", "even")))), enc, rng)
    return replace(out, applied=f"Rx({2 * theta * enc.alpha ** 2:.6g})") if out.success else out


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
        out = _undo_z(s, _fold(out, teleport(out.state, enc, rng)), enc, rng)
        if not out.success:
            return out
    return replace(out, applied=f"ZZ({theta * enc_a.alpha ** 2:.6g})")


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
