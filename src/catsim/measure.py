"""Photon counting, parity conditioning, homodyne detection and the
Bell-cat measurement, with exact outcome probabilities and conditioned
pure states.  Every conditioning is an exact branch table {outcome:
MeasurementRecord} scored from the Gram matrix of its remaining modes
(`_table`); a gate's input (x) resource keeps the resource's pair x, -x
in one mode, whose two eigen-forms leave one Gram form on the input's
other modes.  Every Bell-cat table, `bell_outcomes` and every
teleport's, is scored by one row function, `_bell_rows`, which weights a
term off {+a, -a} by its overlap with the nearest support point, exactly 1
on the support.  The parity and Bell-cat measurements return the whole
table, `sample` draws one outcome and `sample_counts` the outcome counts
of many shots.  A branch's conditioned state is built on its first read,
so a shot that keeps one branch builds only that branch's state, and it
is built from the terms its row supports: the terms a branch's weights
zero (a Bell outcome's unmatched signs) never reach `merge_terms`.

Quadrature convention: x = (a + a^dag)/sqrt(2), so a coherent state |a>
has mean sqrt(2) Re a and variance 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# coherent_overlap stays bound here for bench/tracer.py, which wraps it per module
from .states import (  # noqa: F401
    CoherentSuperposition, ZeroNormError, _gram_forms, _pair_norm, coherent_overlap,
)

__all__ = [
    "MeasurementRecord",
    "UnsupportedStateError",
    "fock_amplitude",
    "default_nmax",
    "photon_statistics",
    "project_photon_number",
    "parity_projection",
    "cat_projection",
    "homodyne_pdf",
    "homodyne_condition",
    "homodyne_sample",
    "bell_outcomes",
    "sample",
    "sample_counts",
]

PROB_FLOOR = 1e-300


class UnsupportedStateError(ValueError):
    """Measurement precondition on the state's structure is violated."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event: detector kind, outcome, probability (a
    density for homodyne records) and the conditioned remaining-mode
    state.  `state` is built from the `_branch_state` arguments in `build`
    on its first read and kept from then on, or None for a discarded branch
    (no `build`).  Neither `==` nor `repr` reads it."""

    kind: str
    outcome: object
    probability: float
    build: Optional[tuple] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def state(self) -> Optional[CoherentSuperposition]:
        return None if self.build is None else _branch_state(*self.build)


def _branch_state(coeffs, w, n2, rest, pair) -> CoherentSuperposition:
    """The normalized, merged branch sum_k w_k c_k |rest_k> / sqrt(n2), built
    from the terms its row supports (w_k != 0, in term order): a term of
    weight 0 adds nothing to the state, so `merge_terms` never sees it.
    With a resource `pair` (`_table`), term k remains in rest row k // 2
    and pair row k % 2."""
    live = w.nonzero()[0]
    amps = rest[live] if pair is None else np.concatenate([rest[live // 2], pair[live % 2]], axis=1)
    return CoherentSuperposition(coeffs[live] * w[live] / np.sqrt(n2), amps).merge_terms()


def _rest(s: CoherentSuperposition, modes: list[int]) -> np.ndarray:
    """Amplitude columns of the modes of `s` not in `modes`, gathered by index."""
    return s.amps[:, [m for m in range(s.modes) if m not in modes]]


def _table(
    kind: str, coeffs: np.ndarray, rest: np.ndarray, rows: list[tuple],
    pair: Optional[np.ndarray] = None,
) -> dict:
    """Branch table {outcome: MeasurementRecord} of a measurement whose
    terms `coeffs` remain in the amplitude rows `rest` (`_rest(s, modes)`
    of a plain state), or, given a resource `pair` (its kept mode's rows
    x, -x), in |rest_j, pair_r> for term 2j + r: the term order of
    `optics.tensor` on the input's other modes and the resource.
    Row (outcome, factor, weights, keep) has probability factor times the
    squared norm of the unmerged branch (per-term contraction `weights`),
    all rows from one `_branch_norms` call.  A kept branch above PROB_FLOOR
    carries its normalized, merged state, built on the record's first read
    by `_branch_state` from the row's nonzero-weight terms; the others
    carry None."""
    norms = _branch_norms(coeffs, rest, np.array([w for _, _, w, _ in rows]), pair)
    table = {}
    for (outcome, factor, w, keep), n2 in zip(rows, norms):
        p = float(factor * n2)
        build = None
        if keep and p > PROB_FLOOR:
            build = (coeffs, w, n2, rest, pair)
        table[outcome] = MeasurementRecord(kind, outcome, p, build)
    return table


def _probabilities(table: dict) -> tuple[list, np.ndarray]:
    """Outcomes of a table in dict order and their probabilities, clipped
    at 0 (round-off) and renormalized; ValueError for a total of 0, NaN or inf."""
    names = list(table)
    probs = np.maximum([table[n].probability for n in names], 0.0)
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"branch probabilities sum to {total}")
    return names, probs / total


def sample(table: dict, rng: np.random.Generator) -> MeasurementRecord:
    """Draw one record of an exact branch table {outcome: record}: one
    uniform rng.random() against the CDF of the table in dict order, with
    probabilities clipped at 0 (round-off) and renormalized.  That is the
    index and generator state rng.choice(len(table), p=probs) gives."""
    names, probs = _probabilities(table)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return table[names[cdf.searchsorted(rng.random(), side="right")]]


def sample_counts(table: dict, rng: np.random.Generator, shots: int) -> dict:
    """Outcome counts {outcome: count} of `shots` independent draws from an
    exact branch table: one rng.multinomial call over the table in dict
    order, with probabilities clipped and renormalized as in `sample`.  No
    record's state is read."""
    names, probs = _probabilities(table)
    return dict(zip(names, rng.multinomial(shots, probs).tolist()))


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def fock_amplitude(n: int | np.ndarray, alpha: complex | np.ndarray) -> complex | np.ndarray:
    """<n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!), evaluated in log domain,
    elementwise over broadcast arrays of n and alpha (scalars give a
    scalar)."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("n must be >= 0")
    alpha = np.asarray(alpha, dtype=complex)
    r = np.abs(alpha)
    nonzero = r > 0.0
    r_safe = np.where(nonzero, r, 1.0)
    log_fact = np.asarray(_lgamma(n + 1.0), dtype=float)
    logmag = n * np.log(r_safe) - 0.5 * r * r - 0.5 * log_fact
    # integer power of the unit phase keeps signs exact for real alpha
    amp = np.exp(logmag) * (alpha / r_safe) ** n
    return np.where(nonzero, amp, n == 0)[()]


def default_nmax(amp_scale: float) -> int:
    """Photon cutoff with sub-1e-12 Poisson tail for the given amplitude."""
    a = abs(amp_scale)
    return math.ceil(a * a + 10 * a + 20)


def _branch_norms(
    coeffs: np.ndarray, rest: np.ndarray, weights: np.ndarray, pair: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared norm of the branch sum_k w_k c_k |rest_k> for every row w of a
    (..., K) stack of weights: v* G v with v = w * coeffs and G the Gram
    matrix of `rest`, one `states._gram_forms` call.

    With a resource `pair` (`_table`), term 2j + r remains in |rest_j,
    pair_r>.  The pair's Gram matrix [[1, o], [o, 1]], o = e^{-2 ||x||^2},
    has eigenvectors (1, +/-1) with eigenvalues 1 +/- o, so the squared
    norm is (1 + o)/2 F(v_0 + v_1) + (1 - o)/2 F(v_0 - v_1), v_r the
    weighted coefficients of resource term r and F the Gram form on `rest`
    (|sum u|^2 when it has no modes: no overlap matrix).  Both terms are
    >= 0 and 1 - o comes from expm1, so nothing cancels."""
    v = weights * coeffs
    if pair is None:
        return _gram_forms(rest, v, rest, v).real
    v0, v1 = v[..., 0::2], v[..., 1::2]
    u = np.stack([v0 + v1, v0 - v1])
    f = _gram_forms(rest, u, rest, u).real if rest.shape[1] else np.abs(u.sum(axis=-1)) ** 2
    e = math.expm1(-2 * float(np.vdot(pair[0], pair[0]).real))
    return (1 + 0.5 * e) * f[0] - 0.5 * e * f[1]


def photon_statistics(s: CoherentSuperposition, mode: int, n_max: int | None = None) -> np.ndarray:
    """P(n) for n = 0..n_max of counting photons in `mode`."""
    s.check_mode(mode)
    if n_max is None:
        n_max = default_nmax(np.max(np.abs(s.amps[:, mode])) if s.nterms else 0.0)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    w = fock_amplitude(np.arange(n_max + 1)[:, None], s.amps[:, mode])
    return _branch_norms(s.coeffs, _rest(s, [mode]), w)


def project_photon_number(s: CoherentSuperposition, mode: int, n: int) -> MeasurementRecord:
    """Condition on counting exactly n photons in `mode`."""
    s.check_mode(mode)
    w = fock_amplitude(n, s.amps[:, mode])
    (rec,) = _table("photon_count", s.coeffs, _rest(s, [mode]), [(n, 1.0, w, True)]).values()
    if rec.state is None:
        raise ZeroNormError(f"photon-number branch n={n} has probability 0")
    return rec


def _nearest_signs(amps: np.ndarray, ref: complex) -> np.ndarray:
    """+1 where an amplitude is nearer +ref than -ref (ties count as +1),
    else -1, elementwise."""
    return np.where(np.abs(amps - ref) <= np.abs(amps + ref), 1.0, -1.0)


def _off_support(amps: np.ndarray, ref: complex) -> bool:
    """Whether any amplitude lies farther than 1e-9 (1 + |ref|) from both
    +ref and -ref, i.e. off the support {+ref, -ref}."""
    near = np.minimum(np.abs(amps - ref), np.abs(amps + ref))
    return bool(np.count_nonzero(near > 1e-9 * (1 + abs(ref))))


def _reference(amps: np.ndarray) -> complex:
    """The largest amplitude a of a column (0 for an empty one), refused
    (UnsupportedStateError) unless every amplitude lies in {+a, -a}."""
    ref = complex(amps[np.argmax(np.abs(amps))]) if len(amps) else 0j
    if _off_support(amps, ref):
        raise UnsupportedStateError(
            "mode amplitudes are not supported on {+a, -a} for a common a"
        )
    return ref


def _parity_class_weights(amp_mag2: float) -> tuple[float, float, float]:
    """(P_zero, P_even_nonzero, P_odd) photon-sum factors for x = |a|^2:
    e^{-x}, e^{-x} cosh x - e^{-x} = (1 - e^{-x})^2 / 2 and e^{-x} sinh x =
    (1 - e^{-2x}) / 2, written with expm1 so that no large x overflows and
    no small x cancels."""
    return (
        math.exp(-amp_mag2),
        0.5 * math.expm1(-amp_mag2) ** 2,
        -0.5 * math.expm1(-2 * amp_mag2),
    )


def parity_projection(s: CoherentSuperposition, mode: int) -> dict[str, MeasurementRecord]:
    """Photon counting on `mode` coarse-grained into zero / even-nonzero /
    odd classes.  Requires the mode's amplitudes to lie in {+a, -a} for a
    common a: the regime where each class conditions onto a pure state
    (projecting onto the even/odd cat direction)."""
    s.check_mode(mode)
    col = s.amps[:, mode]
    ref = _reference(col)
    z0, even_nz, odd = _parity_class_weights(abs(ref) ** 2)
    ones = np.ones(s.nterms)
    return _table("parity", s.coeffs, _rest(s, [mode]), [
        ("zero", z0, ones, True),
        ("even_nonzero", even_nz, ones, True),
        ("odd", odd, _nearest_signs(col, ref), True),
    ])


def _cat_weights(ref_amp: complex, parity: int, amps: np.ndarray) -> np.ndarray:
    """<cat|a> for each amplitude a, against the normalized even (+1) or
    odd (-1) cat at amplitude `ref_amp` = r.

    With h = conj(r) a, <+/-r|a> = e^{e +/- h}, e = -|r|^2/2 - |a|^2/2, so
    the unnormalized weight <r|a> + p <-r|a> is <r|a> ((1 + p) + p expm1(-2h)).
    Where -r is the nearer reference (Re h < 0) the same algebra runs from
    p <-r|a> with -h: Re h >= 0 always, so the odd weight is an expm1 with
    no cancellation, and no term overflows."""
    ref = complex(ref_amp)
    sq = abs(ref) * abs(ref)
    norm = _pair_norm(sq, 1, parity)
    h = ref.conjugate() * amps
    far = h.real < 0
    h = np.where(far, -h, h)
    near = np.exp(-0.5 * sq - 0.5 * np.abs(amps) ** 2 + h)  # <nearer|a>
    lead = np.where(far, parity / norm, 1 / norm) * near
    return lead * ((1 + parity) + parity * np.expm1(-2 * h))


def cat_projection(
    s: CoherentSuperposition, mode: int, ref_amp: complex, parity: int
) -> MeasurementRecord:
    """Project `mode` onto the normalized even/odd cat at amplitude
    `ref_amp`.  On {+a, -a}-supported modes this coincides with the
    corresponding parity class; it stays an exact pure projection for
    modes that have leaked slightly off +/-a.

    A branch at or below PROB_FLOOR gives a record whose `state` is None,
    where `project_photon_number` and `homodyne_condition` raise
    ZeroNormError.  The gates rely on this: `gate_rx` builds the same
    cat-projection table, and `gates._pick` turns a drawn stateless branch
    into a GateFailure."""
    s.check_mode(mode)
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    outcome = "even" if parity > 0 else "odd"
    w = _cat_weights(ref_amp, parity, s.amps[:, mode])
    rows = [(outcome, 1.0, w, True)]
    return _table("cat_projection", s.coeffs, _rest(s, [mode]), rows)[outcome]


# ---------------------------------------------------------------------------
# homodyne

def _quadrature_overlap(x: float | np.ndarray, alpha: complex | np.ndarray) -> complex | np.ndarray:
    """<x|alpha> under x = (a + a^dag)/sqrt(2), elementwise over broadcast
    arrays of x and alpha."""
    x = np.asarray(x, dtype=float)
    alpha = np.asarray(alpha, dtype=complex)
    return math.pi ** -0.25 * np.exp(
        -0.5 * x * x + math.sqrt(2) * x * alpha - 0.5 * alpha * alpha - 0.5 * np.abs(alpha) ** 2
    )


def homodyne_pdf(s: CoherentSuperposition, mode: int, x: float | np.ndarray) -> float | np.ndarray:
    """Marginal density of the x quadrature of `mode` at x, elementwise
    over an array of x (a scalar x gives a scalar)."""
    s.check_mode(mode)
    w = _quadrature_overlap(np.asarray(x, dtype=float)[..., None], s.amps[:, mode])
    return np.maximum(_branch_norms(s.coeffs, _rest(s, [mode]), w), 0.0)[()]


def homodyne_condition(s: CoherentSuperposition, mode: int, x: float) -> MeasurementRecord:
    """Condition the remaining modes on a homodyne result x.  The record's
    probability field holds the density at x."""
    s.check_mode(mode)
    w = _quadrature_overlap(x, s.amps[:, mode])
    (rec,) = _table("homodyne", s.coeffs, _rest(s, [mode]), [(float(x), 1.0, w, True)]).values()
    if rec.state is None:
        raise ZeroNormError(f"zero homodyne density at x={x}")
    return rec


def homodyne_sample(
    s: CoherentSuperposition, mode: int, rng: np.random.Generator, points: int = 4096
) -> MeasurementRecord:
    """Draw a homodyne result by inverse CDF on a fixed grid over
    +/-(sqrt(2) max|a| + 8), then condition."""
    a = float(np.max(np.abs(s.amps[:, mode]))) if s.nterms else 0.0
    half = a * math.sqrt(2) + 8.0
    xs = np.linspace(-half, half, points)
    pdf = homodyne_pdf(s, mode, xs)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    x = float(np.interp(rng.random(), cdf, xs))
    return homodyne_condition(s, mode, x)


# ---------------------------------------------------------------------------
# Bell-cat measurement

def bell_outcomes(
    s: CoherentSuperposition, mode_a: int, mode_b: int
) -> dict[str, MeasurementRecord]:
    """All five outcome branches of the Bell-cat measurement on two modes
    whose amplitudes lie in {+a, -a} for a common a.

    The Bell-state creation is run in reverse (compensating +pi/2 phase on
    mode_b, then B(-pi/4)), after which photon counting on the two output
    modes is classified as I=(even>0, 0), II=(odd, 0), III=(0, even>0),
    IV=(0, odd) and FAIL=(0, 0).  The FAIL record carries no state.
    Amplitudes off {+a, -a} for the a of mode_a's largest amplitude are
    refused; the rows are those of `_bell_rows`, which every teleport
    reads too."""
    s.check_mode(mode_a)
    s.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("Bell measurement needs two distinct modes")
    a, b = s.amps[:, mode_a], s.amps[:, mode_b]
    ref = _reference(a)
    if _off_support(b, ref):
        raise UnsupportedStateError(
            "the two measured modes are not supported on {+a, -a} for a common a"
        )
    return _table("bell_measurement", s.coeffs, _rest(s, [mode_a, mode_b]), _bell_rows(a, b, ref))


def _bell_rows(a: np.ndarray, b: np.ndarray, ref: complex) -> list[tuple]:
    """The `_table` rows of the Bell-cat measurement from its two measured
    columns, one amplitude per term in each, against the reference `ref`.

    The phase and beam splitter send |x, y> to |(x + y)/sqrt(2),
    i(y - x)/sqrt(2)>, so a term with x = s_a r and y = s_b r leaves as
    |sqrt(2) s_a r, 0> when s_a = s_b and as |0, -i sqrt(2) s_a r>
    otherwise: all its photons reach one output, at amplitude sqrt(2) r up
    to a phase common to the branch.  The classes are therefore read off
    the signs, each column scanned once, with no mixed amplitude formed.
    Counting n photons contributes s_a^n, so an even class weights a term
    by 1 and an odd class by s_a, times the class factor at
    |sqrt(2) r|^2 = 2 |r|^2.

    A term off the support {+ref, -ref} is contracted against the support
    point nearest it in each mode: its weight gains <r|x> <r'|y>, with r,
    r' = (nearest sign) ref.  With d = x - r, <r|x> = exp(-|d|^2/2 +
    i Im(conj(r) d)), exactly 1 on the support, with nothing cancelling.
    FAIL is the joint vacuum, |<0, 0|x, y>|^2 = e^{-|x|^2 - |y|^2}: the class
    factor e^{-2 |ref|^2} times the squared weight exp(|ref|^2 - (|x|^2 +
    |y|^2)/2), written exp(-|d|^2/2 - Re(conj(r) d)) per mode, again exactly
    1 on the support."""
    ref = complex(ref)
    signs_a, signs_b = _nearest_signs(a, ref), _nearest_signs(b, ref)
    ra, rb = signs_a * ref, signs_b * ref
    da, db = a - ra, b - rb
    h = ra.conj() * da + rb.conj() * db
    e = -0.5 * (np.abs(da) ** 2 + np.abs(db) ** 2)
    w = np.exp(e + 1j * h.imag)
    same = signs_a == signs_b
    z0, even_nz, odd = _parity_class_weights(2 * abs(ref) ** 2)
    return [
        ("I", even_nz, same * w, True),
        ("II", odd, same * signs_a * w, True),
        ("III", even_nz, ~same * w, True),
        ("IV", odd, ~same * signs_a * w, True),
        ("FAIL", z0, np.exp(e - h.real), False),
    ]
