"""Coherent-state qubit encoding and the universal gate set: X, teleported
Z, teleported Rz, cat-projected Rx(pi/2), and the beam-splitter entangling
gate, plus the closed-form local dressing of the entangling gate onto CNOT.

Logical basis: |0>_L = |-alpha>, |1>_L = |alpha> with real alpha > 0.
Probabilistic gates take an RNG; passing rng=None post-selects the
canonical branch (the outcome whose conditioned state realizes the gate
with no residual correction), which serves `gate-check` and deterministic
circuits.

Each gate is its optical step and its first branch table.  `gates` is the
one module that knows the Bell-cat resource: its closed form
(`_resource`), the pair x, -x it keeps in the qubit's mode, and the X
correction.  Every row of a gate's table carries its landed amplitude
rows, the input's with the output column already set in the qubit's mode
and already X-corrected, so `measure` builds a branch as it builds any
other.  Every measured step goes through `_draw` (pick a record, multiply
its probability, trace it, compose its Z residual and land it by reading
the record's cached state), and every Z fix, the Z gate included, through
`_settle` (repeat-until-success Bell teleports until the wanted residual
lands; an attempt that lands nothing new builds no state).  Every teleport
draws from one kind of Bell table, `_bell_step`'s, whether its input is
logical or has left {+alpha, -alpha} (Rz's displaced input, the
entangling gate's mixed one): no tolerance chooses between tables.  The
table is scored and landed on the input's K terms alone: the resource's
measured column is exactly +/-alpha, so each input term meets one
resource term per outcome.  Only gate_rx, which mixes that column with
the input before it measures, reads the 2K joint terms of input (x)
resource.  Both score their rows from the pair's two eigen-forms
(`_pair_form`), branch forms on the input's other modes only, read through
`measure._forms`, the one form helper (|sum v|^2 with no overlap matrix on
a single-mode input).  A teleport's five rows are named, factored and
kept through `measure._bell_classes`, as `bell_outcomes`' are.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import measure, optics
from .optics import _beamsplitter_u, _passive
from .states import CoherentSuperposition, _pair, _pair_norm, coherent_overlap

__all__ = [
    "QubitEncoding",
    "GateOutcome",
    "GateFailure",
    "encode",
    "decode",
    "decode_two",
    "logical_coefficients",
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
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be > 0 and finite")


@dataclass(frozen=True)
class GateOutcome:
    state: CoherentSuperposition
    success: bool
    applied: str
    probability: float
    repetitions: int = 1
    trace: tuple = ()


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
    coefficients are y = sum_k c_k (Kronecker over m) d(x_km), and the
    leakage is 1 - Re y^dag G y, with G applied mode by mode as y + o y',
    y' the vector with that mode's bit flipped.  Only alpha^2 underflowing
    to 0 leaves the fit undefined (ValueError)."""
    if sorted(e.mode for e in encs) != list(range(s.modes)):
        raise ValueError("the encodings' modes must be the state's modes, each exactly once")
    alphas = np.array([e.alpha for e in encs], dtype=float)
    scale = np.expm1(-4.0 * alphas**2)
    o = np.exp(-2.0 * alphas**2)  # <-a|a> per mode
    if not scale.all():
        raise ValueError("logical Gram system is singular (alpha too small)")
    refs = np.stack([-alphas, alphas], axis=1)[..., None]
    x = s.amps.T[[e.mode for e in encs], None]
    ov = coherent_overlap(refs, x)  # (n, 2, K): <r|x_km>
    expo = -2.0 * refs * (refs + x)
    far = expo.real > 0
    dual = (np.where(far, -o[:, None, None] * ov[:, ::-1], ov)
            * np.expm1(np.where(far, -expo, expo)) / scale[:, None, None])
    # per term, the duals multiplied mode by mode into 2^n-vectors, mode 0
    # outermost and terms last, then summed over terms
    acc = s.coeffs[None]
    for m in range(len(encs)):
        acc = (acc[:, None] * dual[m, None]).reshape(-1, s.nterms)
    coeffs = gy = acc.sum(axis=1)
    for m in range(len(encs)):
        v = gy.reshape(2**m, 2, -1)
        gy = v + o[m] * v[:, ::-1]
    leakage = max(1.0 - float(np.sum(coeffs.conj() * gy.ravel()).real), 0.0)
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
    without a state to land (other than FAIL) is a GateFailure."""
    if all(r.probability <= measure.PROB_FLOOR for r in table.values()):
        raise GateFailure("all branches have zero probability")
    rec = table[canonical] if rng is None else measure.sample(table, rng)
    if rec.build is None and rec.outcome != "FAIL":
        raise GateFailure(f"branch {rec.outcome} has zero probability")
    return rec


def _resource(s: CoherentSuperposition, enc: QubitEncoding) -> tuple[float, np.ndarray]:
    """(c, x): the coefficient of each term of the fresh Bell-cat resource
    a gate on s's enc.mode consumes, and the pair x = (alpha, -alpha) that
    its term r holds in both modes.  The resource is `optics.bell_resource`,
    (|a,a> + |-a,-a>)/norm, read from its closed form (`states._pair_norm`)
    with no state built.  IndexError for an enc.mode outside s."""
    s.check_mode(enc.mode)
    x = np.array([enc.alpha, -enc.alpha], dtype=complex)
    return 1 / _pair_norm(2 * enc.alpha * enc.alpha, 1, 1), x


def _pair_form(f_plus, f_minus, sq: float):
    """The squared norm of a branch whose terms also sit in the resource's
    pair x, -x, ||x||^2 = sq, from its two eigen-forms.  The pair's Gram
    matrix [[1, o], [o, 1]], o = e^{-2 sq}, has eigenvectors (1, +/-1) with
    eigenvalues 1 +/- o, so the squared norm is (1 + o)/2 F(v_0 + v_1) +
    (1 - o)/2 F(v_0 - v_1), v_r the weighted coefficients of pair term r;
    f_plus, f_minus are those two forms.  Both terms are >= 0 and 1 - o
    comes from expm1, so nothing cancels."""
    e = math.expm1(-2 * sq)
    return (1 + 0.5 * e) * f_plus - 0.5 * e * f_minus


def _bell_step(s: CoherentSuperposition, enc: QubitEncoding) -> dict:
    """The Bell table of teleporting the qubit in enc.mode through a fresh
    Bell-cat resource.

    The rows are those of `measure._bell_rows` on s (x) resource against
    ref = sigma alpha, the +alpha or -alpha nearest the mode's largest
    amplitude (`measure._reference`, the reference `measure.bell_outcomes`
    takes on a logical input), scored and landed on s's K terms alone, and
    named through `measure._bell_classes`.  The resource
    (`_resource`: coefficient c, pair x) measures exactly x_r = (-1)^r
    alpha in term r: its offset is 0, so its weight factor is 1, and s's
    term j, of nearest sign s_j, meets resource term r* with (-1)^{r*} =
    sigma s_j in rows I/II and the other term in III/IV.  So every row
    keeps one resource term per input term, x_{r*} (I/II) or x_{1 - r*}
    (III/IV), landed in enc.mode of s's rows, and III/IV land it negated
    exactly, their X correction: -x_{1 - r*}, not the equal x_{r*}, whose
    zero imaginary part has the other sign.  The weights are w_j (I, III)
    or s_j w_j (II, IV), and the pair's two eigen-forms (`_pair_form`)
    need three Gram forms on s's other modes: F(c w), F(c s w) and F(c f),
    f the FAIL weight.  Rows I and III score (F(c w), F(c s w)), rows II
    and IV the same two swapped, and FAIL, whose two resource terms weigh
    alike, (4 F(c f), 0).  One table serves every input: a term off
    {+alpha, -alpha} is weighted by its overlap with the nearest support
    point, exactly 1 on the support, so the table is continuous in its
    input and the teleport projects any leakage back into the logical
    space.  IndexError for an enc.mode outside s."""
    c, x = _resource(s, enc)
    a = s.amps[:, enc.mode]
    top = measure._reference(a)
    ref = enc.alpha if abs(top - enc.alpha) <= abs(top + enc.alpha) else -enc.alpha
    signs, d, h = measure._bell_column(a, complex(ref))
    w, fail = measure._bell_weights(np.abs(d) ** 2, h)
    sw = signs * w
    c = s.coeffs * c
    rest = measure._rest(s.amps, [enc.mode])
    f = measure._forms(rest, np.array([w, sw, fail]) * c)
    sq = enc.alpha * enc.alpha
    even, odd = _pair_form(f[0], f[1], sq), _pair_form(f[1], f[0], sq)
    r = (signs * ref < 0).astype(np.intp)  # r*, the resource term each input term meets in I/II
    kept, flipped = s.amps.copy(), s.amps.copy()
    kept[:, enc.mode] = x[r]
    flipped[:, enc.mode] = -x[1 - r]
    rows = measure._bell_classes(ref, (w, sw, w, sw), fail, (kept, kept, flipped, flipped))
    norms = (even, odd, even, odd, _pair_form(4 * f[2], 0.0, sq))
    return measure._table("bell_measurement", c, rest, rows, norms)


def _draw(
    out: GateOutcome, enc: QubitEncoding, table: dict, rng: Optional[np.random.Generator], canonical,
    reuse: bool = False,
) -> GateOutcome:
    """The measured step after `out`: the record `_pick`ed from `table`
    (a Bell table, or gate_rx's cat projection) multiplies the probability,
    counts one repetition and is traced under rec.kind.  FAIL keeps
    out.state; every other outcome composes its Z residual into `applied`
    and lands as rec.state, the record's landed rows (X-corrected where the
    branch takes an X correction), built on its first read and kept, so a
    record drawn again builds nothing.  With `reuse` (the caller draws
    again from the same table), a landing that leaves `applied` unchanged
    reads no state and keeps out.state: nothing reads it."""
    rec = _pick(table, rng, canonical)
    p, reps = out.probability * rec.probability, out.repetitions + 1
    trace = out.trace + ((rec.kind, f"alpha={enc.alpha}", str(rec.outcome), rec.probability),)
    if rec.outcome == "FAIL":
        return GateOutcome(out.state, False, "FAIL", p, reps, trace)
    flip, z = _CORRECTIONS[rec.outcome]
    if flip:
        trace += (("phase_shift", "theta=pi (X correction)", "-", 1.0),)
    applied = "Z" if z != (out.applied == "Z") else "identity"
    state = out.state if reuse and applied == out.applied else rec.state
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
    before; an X-corrected landing is exactly on {+alpha, -alpha} too), or
    an input exactly on that support.  Such an attempt builds no state
    unless its landing changes out.applied (`_draw`'s `reuse`): the next
    attempt reads the kept table, and a FAIL's state is the input's
    (`_named`).  Whether an input lies exactly on the support is read
    once, for the first table of an input that has not drawn (gate_z's):
    every amplitude x of its column equals +alpha or -alpha.  That is the
    table's own test, every offset d = x - r zero (`measure._bell_column`):
    r is +/-alpha + (+/-0)i, and d is 0 exactly when x equals r.  Any other
    input builds a second table from its first landing, which the teleport
    has projected onto the logical space."""
    cap, table = out.repetitions + MAX_REPEATS, None
    while out.success and out.applied != want:
        if out.repetitions == cap:
            raise GateFailure(f"Z branch did not land within {MAX_REPEATS} teleports")
        if table is None:
            table = _bell_step(out.state, enc)
            keep = out.repetitions > 0 or (((x := out.state.amps[:, enc.mode]) == enc.alpha) | (x == -enc.alpha)).all()
        out = _draw(out, enc, table, rng, "II", reuse=keep)
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
    return _draw(GateOutcome(s, True, "identity", 1.0, 0), enc, _bell_step(s, enc), rng, "I")


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
    trace = (("displace", f"beta={1j * enc.alpha * theta:.6g}", "-", 1.0),)
    table = _bell_step(displaced, enc)
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
    input-dependent filter once normalized.  Like a teleport's Bell table,
    each row carries its landing, X-corrected for an odd input; the drawn
    record lands through `_draw`, then `_settle` fixes a Z residual.  With
    rng=None the even/even branch is post-selected.
    """
    if theta is None:
        theta = np.pi / (4 * enc.alpha**2)
    # joint term 2j + r is s's term j times the resource's term r (the term
    # order of `optics.tensor`); the measured columns are s's, then the
    # resource's first mode
    c, x = _resource(s, enc)
    coeffs = np.repeat(s.coeffs * c, 2)
    cols = np.stack([np.repeat(s.amps[:, enc.mode], 2), np.tile(x, s.nterms)], axis=1)
    # the two cat projections each contribute e^{+/- i (theta/2) alpha^2};
    # the beam splitter touches only the two measured columns
    a, b = _passive(cols, _beamsplitter_u(theta / 2.0)).T
    trace = (("beamsplitter", f"theta={theta / 2.0:.6g}", "-", 1.0),)

    # joint cat projection of the input mode and the resource's first mode,
    # keys (pa, pb); term 2j + r lands s's row j with the resource's kept
    # mode, x_r, in enc.mode, negated exactly (-x_r) for an odd input's X
    # correction
    parity = ("even", "odd")
    wa = dict(zip(parity, measure._cat_weights(enc.alpha, a)))
    wb = dict(zip(parity, measure._cat_weights(enc.alpha, b)))
    even = np.repeat(s.amps, 2, axis=0)
    even[:, enc.mode] = cols[:, 1]
    odd = even.copy()
    odd[:, enc.mode] = -cols[:, 1]
    rows = [((ka, kb), 1.0, wa[ka] * wb[kb], odd if ka == "odd" else even)
            for kb in parity for ka in parity]
    # the mixed columns do not factor: the pair's eigen-forms on the 2K joint
    # terms, F(v_0 +/- v_1) over s's other modes
    v = np.array([w for _, _, w, _ in rows]) * coeffs
    rest = measure._rest(s.amps, [enc.mode])
    f = measure._forms(rest, np.stack([v[:, 0::2] + v[:, 1::2], v[:, 0::2] - v[:, 1::2]]))
    norms = _pair_form(f[0], f[1], enc.alpha * enc.alpha)
    table = measure._table("cat_projection", coeffs, rest, rows, norms)
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
    amplitudes acquire e^{+i theta a_a a_b} on |--> and |++> and
    e^{-i theta a_a a_b} on the mixed components, a_a and a_b the two
    encodings' alphas; accumulating to 2 theta a_a a_b = pi/2 gives a gate
    locally equivalent to CNOT.  The outcome is named ZZ(theta a_a a_b).
    """
    if enc_a.mode == enc_b.mode:
        raise ValueError("the two qubits must occupy distinct modes")
    _warn_outside_regime(theta, max(enc_a.alpha, enc_b.alpha))
    # each of the two teleport projections contributes half the phase
    mixed = optics.beamsplitter(s, enc_a.mode, enc_b.mode, theta / 2.0)
    trace = (("beamsplitter", f"theta={theta / 2.0:.6g}", "-", 1.0),)
    out = GateOutcome(mixed, True, "identity", 1.0, 0, trace)
    for enc in (enc_a, enc_b):
        if out.success:
            out = _settle(_draw(out, enc, _bell_step(out.state, enc), rng, "I"), enc, rng)
    return _named(s, out, f"ZZ({theta * (enc_a.alpha * enc_b.alpha):.6g})")


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
