"""Coherent-state qubit encoding and the universal gate set: X, teleported
Z, teleported Rz, cat-projected Rx(pi/2), and the beam-splitter entangling
gate, plus decoded-qubit process-fidelity evaluation.

Logical basis: |0>_L = |-alpha>, |1>_L = |alpha> with real alpha > 0.
Probabilistic gates take an RNG; passing rng=None post-selects the
canonical branch (the outcome whose conditioned state realizes the gate
with no residual correction), which keeps the induced map on the logical
space exactly linear for process tomography.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import measure, optics
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
    "process_fidelity",
    "cnot_dressing_search",
]

MAX_REPEATS = 64


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


# map from Bell measurement outcome to (apply X correction?, residual op)
_TELEPORT_BRANCHES = {
    "I": (False, "identity"),
    "II": (False, "Z"),
    "III": (True, "identity"),
    "IV": (True, "Z"),
}


def _replace_mode(s: CoherentSuperposition, target_mode: int) -> CoherentSuperposition:
    """Move the last mode (a fresh teleported output) into target_mode's slot."""
    m = s.modes
    order = list(range(m - 1))
    order.insert(target_mode, m - 1)
    return optics.permute_modes(s, order)


def teleport(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    rng: Optional[np.random.Generator] = None,
    branch: Optional[str] = None,
) -> GateOutcome:
    """Teleport the qubit in enc.mode through a fresh Bell-cat resource.

    Projects any leakage back into the logical space.  The Bell outcome
    decides the residual: I/III land the identity (after X correction for
    III), II/IV land Z.  With rng=None (and no explicit branch) the 'I'
    branch is post-selected.
    """
    resource = optics.bell_resource(enc.alpha)
    joint = optics.tensor(s, resource)
    m = s.modes
    # strict {+a,-a} inputs get the exact photon-counting classifier;
    # leaked inputs get the idealized Bell-cat projection that cleans them
    resid = np.min(
        np.abs(s.amps[:, enc.mode, None] - np.array([[-enc.alpha, enc.alpha]])), axis=1
    )
    leaked = bool(np.max(resid) > 1e-9 * (1 + enc.alpha))
    if leaked:
        branches = measure.bell_cat_outcomes(joint, enc.mode, m, enc.alpha)
    else:
        branches = measure.bell_outcomes(joint, enc.mode, m)
    if branch is None:
        branch_pick = "I" if rng is None else None
    else:
        branch_pick = branch
    if branch_pick is not None:
        rec = branches[branch_pick]
        if rec.state is None and branch_pick != "FAIL":
            raise GateFailure(f"branch {branch_pick} has zero probability")
    else:
        names = list(branches)
        probs = np.clip([branches[n].probability for n in names], 0.0, None)
        rec = branches[names[rng.choice(len(names), p=probs / probs.sum())]]
    trace = (_traced("bell_measurement", f"alpha={enc.alpha}", str(rec.outcome), rec.probability),)
    if rec.outcome == "FAIL":
        return GateOutcome(s, False, "FAIL", rec.probability, trace=trace)
    out = _replace_mode(rec.state, enc.mode)
    flip, residual = _TELEPORT_BRANCHES[rec.outcome]
    if flip:
        out = gate_x(out, enc)
        trace = trace + (_traced("phase_shift", "theta=pi (X correction)", "-", 1.0),)
    return GateOutcome(out.merge_terms(), True, residual, rec.probability, trace=trace)


def gate_z(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Sign flip by repeat-until-success teleportation (Z branch lands with
    probability ~1/2 per attempt)."""
    state = s
    trace: tuple = ()
    prob = 1.0
    for attempt in range(1, MAX_REPEATS + 1):
        out = teleport(state, enc, rng, branch="II" if rng is None else None)
        trace = trace + out.trace
        prob *= out.probability
        if not out.success:
            return GateOutcome(state, False, "FAIL", prob, attempt, trace)
        state = out.state
        if out.applied == "Z":
            return GateOutcome(state, True, "Z", prob, attempt, trace)
    raise GateFailure(f"Z branch did not land within {MAX_REPEATS} teleports")


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
    t2a2 = theta**2 * enc.alpha**2
    if t2a2 > 0.05:
        warnings.warn(
            f"theta^2 alpha^2 = {t2a2:.3g} > 0.05: gate is far from its "
            "near-deterministic regime",
            stacklevel=2,
        )
    displaced = optics.displace(s, enc.mode, 1j * enc.alpha * theta)
    trace = (_traced("displace", f"beta={1j * enc.alpha * theta:.6g}", "-", 1.0),)
    out = teleport(displaced, enc, rng)
    trace = trace + out.trace
    if not out.success:
        return GateOutcome(s, False, "FAIL", out.probability, trace=trace)
    state, prob, reps = out.state, out.probability, 1
    if out.applied == "Z":
        fix = gate_z(state, enc, rng)
        trace = trace + fix.trace
        if not fix.success:
            return GateOutcome(s, False, "FAIL", prob * fix.probability, trace=trace)
        state, prob, reps = fix.state, prob * fix.probability, 1 + fix.repetitions
    return GateOutcome(state, True, f"Rz({4 * theta * enc.alpha ** 2:.6g})", prob, reps, trace)


# map from (parity on input mode, parity on measured resource mode) to the
# corrections restoring the canonical Rx action; verified against the
# decoded 2x2 matrix in the test suite
_RX_CORRECTIONS = {
    ("even", "even"): (),
    ("even", "odd"): ("Z",),
    ("odd", "even"): ("Z", "X"),
    ("odd", "odd"): ("X",),
}


def gate_rx(
    s: CoherentSuperposition,
    enc: QubitEncoding,
    theta: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> GateOutcome:
    """Rotation about X: mix the qubit with half of a Bell-cat resource on
    a weak beam splitter, project both measured modes onto even/odd cats,
    and correct.  Decoded action on (mu, nu):

        (mu, nu) -> (e^{i t a^2} mu + e^{-i t a^2} nu,
                     e^{-i t a^2} mu + e^{i t a^2} nu) / norm

    with t = theta; theta defaults to pi/(4 alpha^2) so 2 theta alpha^2 =
    pi/2, a pi/2 rotation about X.  With rng=None the even/even branch is
    post-selected.
    """
    if theta is None:
        theta = np.pi / (4 * enc.alpha**2)
    resource = optics.bell_resource(enc.alpha)
    joint = optics.tensor(s, resource)
    m = s.modes
    # the two cat projections each contribute e^{+/- i (theta/2) alpha^2}
    mixed = optics.beamsplitter(joint, optics.BeamSplitterSpec(enc.mode, m, theta / 2.0))
    trace = (_traced("beamsplitter", f"theta={theta / 2.0:.6g}", "-", 1.0),)

    # branch table: project resource half (mode m) then the input mode
    branches = {}
    for pb in (+1, -1):
        rec_b = measure.cat_projection(mixed, m, enc.alpha, pb)
        if rec_b.state is None:
            continue
        for pa in (+1, -1):
            rec_a = measure.cat_projection(rec_b.state, enc.mode, enc.alpha, pa)
            if rec_a.state is None:
                continue
            key = ("even" if pa > 0 else "odd", "even" if pb > 0 else "odd")
            branches[key] = (rec_b.probability * rec_a.probability, rec_a.state)
    if not branches:
        raise GateFailure("all cat-projection branches have zero probability")

    if rng is None:
        key = ("even", "even")
        if key not in branches:
            raise GateFailure("even/even branch has zero probability")
    else:
        keys = list(branches)
        probs = np.array([branches[k][0] for k in keys])
        key = keys[rng.choice(len(keys), p=probs / probs.sum())]
    prob, conditioned = branches[key]
    trace = trace + (_traced("cat_projection", f"ref={enc.alpha}", f"{key}", prob),)

    out = _replace_mode(conditioned, enc.mode)
    reps = 1
    for corr in _RX_CORRECTIONS[key]:
        if corr == "X":
            out = gate_x(out, enc)
            trace = trace + (_traced("phase_shift", "theta=pi (X correction)", "-", 1.0),)
        else:
            fix = gate_z(out, enc, rng)
            trace = trace + fix.trace
            if not fix.success:
                return GateOutcome(s, False, "FAIL", prob * fix.probability, trace=trace)
            out = fix.state
            prob *= fix.probability
            reps += fix.repetitions
    return GateOutcome(
        out.merge_terms(), True, f"Rx({2 * theta * enc.alpha ** 2:.6g})", prob, reps, trace
    )


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
    t2a2 = theta**2 * max(enc_a.alpha, enc_b.alpha) ** 2
    if t2a2 > 0.05:
        warnings.warn(f"theta^2 alpha^2 = {t2a2:.3g} > 0.05 per step", stacklevel=2)
    # each of the two teleport projections contributes half the phase
    mixed = optics.beamsplitter(s, optics.BeamSplitterSpec(enc_a.mode, enc_b.mode, theta / 2.0))
    trace = (_traced("beamsplitter", f"theta={theta / 2.0:.6g}", "-", 1.0),)
    prob = 1.0
    state = mixed
    reps = 0
    for enc in (enc_a, enc_b):
        out = teleport(state, enc, rng)
        trace = trace + out.trace
        prob *= out.probability
        if not out.success:
            return GateOutcome(s, False, "FAIL", prob, trace=trace)
        state = out.state
        reps += 1
        if out.applied == "Z":
            fix = gate_z(state, enc, rng)
            trace = trace + fix.trace
            prob *= fix.probability
            if not fix.success:
                return GateOutcome(s, False, "FAIL", prob, trace=trace)
            state = fix.state
            reps += fix.repetitions
    return GateOutcome(state, True, f"ZZ({theta * enc_a.alpha ** 2:.6g})", prob, reps, trace)


# ---------------------------------------------------------------------------
# process-level evaluation

def _spanning_inputs(d: int) -> list[np.ndarray]:
    eye = np.eye(d, dtype=complex)
    inputs = [eye[i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            inputs.append((eye[i] + eye[j]) / np.sqrt(2))
            inputs.append((eye[i] + 1j * eye[j]) / np.sqrt(2))
    return inputs


def process_fidelity(
    channel: Callable[[np.ndarray], np.ndarray],
    target: np.ndarray,
    inputs: Optional[list[np.ndarray]] = None,
) -> float:
    """Process fidelity |Tr(U^dag A)|^2 / (d Tr(A^dag A)) of the linear map
    A reconstructed from channel outputs on a spanning input set against
    the target unitary U.  Exactly 1.0 when the channel equals the target
    up to a global phase and scale."""
    target = np.asarray(target, dtype=complex)
    d = target.shape[0]
    if inputs is None:
        inputs = _spanning_inputs(d)
    vin = np.column_stack(inputs)
    if np.linalg.matrix_rank(vin) < d:
        raise ValueError("input set does not span the logical space")
    vout = np.column_stack([np.asarray(channel(v), dtype=complex) for v in inputs])
    a, *_ = np.linalg.lstsq(vin.T, vout.T, rcond=None)
    a = a.T
    denom = d * float(np.real(np.trace(a.conj().T @ a)))
    return abs(np.trace(target.conj().T @ a)) ** 2 / denom


def _su2(params: np.ndarray) -> np.ndarray:
    """Single-qubit unitary from three Euler angles (global phase dropped)."""
    t, p, l = params
    return np.array(
        [
            [np.cos(t / 2), -np.exp(1j * l) * np.sin(t / 2)],
            [np.exp(1j * p) * np.sin(t / 2), np.exp(1j * (p + l)) * np.cos(t / 2)],
        ]
    )


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def cnot_dressing_search(
    gate: np.ndarray, restarts: int = 8, seed: int = 7
) -> tuple[float, np.ndarray]:
    """Find local rotations (V1 x V2) gate (U1 x U2) maximizing process
    fidelity with CNOT.  Returns (best fidelity, best 12-parameter vector
    [V1, V2, U1, U2 Euler angles])."""
    from scipy.optimize import minimize

    gate = np.asarray(gate, dtype=complex)

    def dressed(params: np.ndarray) -> np.ndarray:
        v = np.kron(_su2(params[0:3]), _su2(params[3:6]))
        u = np.kron(_su2(params[6:9]), _su2(params[9:12]))
        return v @ gate @ u

    def neg_fid(params: np.ndarray) -> float:
        m = dressed(params)
        denom = 4 * np.real(np.trace(m.conj().T @ m))
        return -abs(np.trace(CNOT.conj().T @ m)) ** 2 / denom

    rng = np.random.default_rng(seed)
    best_val, best_x = np.inf, None
    for _ in range(restarts):
        x0 = rng.uniform(0, 2 * np.pi, size=12)
        res = minimize(neg_fid, x0, method="L-BFGS-B")
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    return -best_val, best_x
