"""Photon counting, parity conditioning, homodyne detection and the
Bell-cat measurement, with exact outcome probabilities and conditioned
pure states.  Every conditioning is an exact branch table {outcome:
MeasurementRecord} scored from the Gram forms of its remaining modes
(`_table`).  One helper, `_forms`, gives every branch form F(v) = v^dag G v
here and in `gates`: one `states._gram_forms` call, or |sum v|^2 with no
overlap matrix when no mode remains (a single-mode cat counted, a Bell cat
measured).  Every Bell-cat table, `bell_outcomes` and every teleport's,
weights its terms by one per-column function, `_bell_column`, and one
weight function, `_bell_weights`: a term off {+a, -a} is weighted by its
overlap with the nearest support point, exactly 1 on the support.
`_bell_rows` composes two measured columns; a teleport's table reads its
input's column alone (`gates._bell_step`), and both name their five rows
through `_bell_classes`.  `_bell_scores` scores a stack of coefficient
vectors on one set of amplitude rows in one `_forms` call:
`bell_outcomes` is its one-state case, and `catsim bell-stats` scores the
four Bell cats of each alpha as one stack.  The parity and Bell-cat
measurements return the whole table, `sample` draws one outcome and
`sample_counts` the outcome counts of many shots.  A branch's conditioned
state is built on its first read, so a shot that keeps one branch builds
only that branch's state, and it is built from the terms its row supports:
the terms a branch's weights zero (a Bell outcome's unmatched signs) never
reach `merge_terms`.  A table's caller may hand a row its own amplitude
rows, one per term, in place of the remaining modes: a gate's rows hold
its landed output (`gates`), so this module knows no resource, no qubit
mode and no X correction.

Quadrature convention: x = (a + a^dag)/sqrt(2), so a coherent state |a>
has mean sqrt(2) Re a and variance 1/2.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
_OFF_SUPPORT = "mode amplitudes are not supported on {+a, -a} for a common a"
_OFF_SUPPORT_PAIR = "the two measured modes are not supported on {+a, -a} for a common a"


class UnsupportedStateError(ValueError):
    """Measurement precondition on the state's structure is violated."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event: detector kind, outcome, probability (a
    density for homodyne records) and the conditioned remaining-mode
    state.  `state` is built from the `_branch_state` arguments in `build`
    on its first read and kept from then on, or None for a discarded branch
    (no `build`); a gate lands its drawn branch by reading it.  Neither `==`
    nor `repr` reads it."""

    kind: str
    outcome: object
    probability: float
    build: Optional[tuple] = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def state(self) -> Optional[CoherentSuperposition]:
        return None if self.build is None else _branch_state(*self.build)


def _branch_state(coeffs, w, n2, amps) -> CoherentSuperposition:
    """The normalized, merged branch sum_k w_k c_k |amps_k> / sqrt(n2), built
    from the terms its row supports (w_k != 0, in term order): a term of
    weight 0 adds nothing to the state, so `merge_terms` never sees it."""
    live = w.nonzero()[0]
    return CoherentSuperposition(coeffs[live] * w[live] / np.sqrt(n2), amps[live]).merge_terms()


def _rest(amps: np.ndarray, modes) -> np.ndarray:
    """The columns of the amplitude rows `amps` of the modes not in `modes`,
    gathered by index."""
    return amps[:, [m for m in range(amps.shape[1]) if m not in modes]]


def _forms(rest: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The branch form F(v) = v^dag G v, G the Gram matrix of the amplitude
    rows `rest`, for every row of a (..., K) stack v: one
    `states._gram_forms` call, or |sum v|^2 when `rest` has no modes (G is
    all ones; no overlap matrix)."""
    return _gram_forms(rest, v, rest, v).real if rest.shape[1] else np.abs(v.sum(axis=-1)) ** 2


def _table(
    kind: str, coeffs: np.ndarray, rest: np.ndarray, rows: list[tuple],
    norms: Optional[np.ndarray] = None,
) -> dict:
    """Branch table {outcome: MeasurementRecord} of a measurement whose
    terms `coeffs` remain in the amplitude rows `rest` (`_rest(s.amps, modes)`
    of a plain state; one row per term).  Row (outcome, factor, weights,
    keep) has probability factor times the squared norm of the unmerged
    branch (per-term contraction `weights`): `norms`, one per row, or else
    all rows from one `_forms` call on the stack weights * coeffs.  `keep`
    is False for a discarded branch, True for one that remains in `rest`,
    or the amplitude rows, one per term, that the branch remains in instead
    (a gate's landed output).  A kept branch above PROB_FLOOR carries its
    normalized, merged state, built on the record's first read by
    `_branch_state` from the row's nonzero-weight terms; the others carry
    None."""
    if norms is None:
        norms = _forms(rest, np.array([w for _, _, w, _ in rows]) * coeffs)
    table = {}
    for (outcome, factor, w, keep), n2 in zip(rows, norms):
        p = float(factor * n2)
        build = None
        if keep is not False and p > PROB_FLOOR:
            build = (coeffs, w, n2, rest if keep is True else keep)
        table[outcome] = MeasurementRecord(kind, outcome, p, build)
    return table


def _probabilities(table: dict) -> tuple[list, list]:
    """Outcomes of a table in dict order and their probabilities, Python
    floats clipped at 0 (round-off) and divided by their sum taken in dict
    order; ValueError for a sum of 0, NaN or inf."""
    names = list(table)
    probs = [max(table[n].probability, 0.0) for n in names]  # NaN stays NaN
    total = list(itertools.accumulate(probs, initial=0.0))[-1]
    if not 0.0 < total < math.inf:
        raise ValueError(f"branch probabilities sum to {total}")
    return names, [p / total for p in probs]


def sample(table: dict, rng: np.random.Generator) -> MeasurementRecord:
    """Draw one record of an exact branch table {outcome: record}: one
    uniform rng.random() against the CDF of the table in dict order, with
    probabilities clipped at 0 (round-off) and renormalized (`_probabilities`).
    The CDF is their running sum divided by its last entry, so this is the
    index and generator state rng.choice(len(table), p=probs) gives, in
    plain Python floats."""
    names, probs = _probabilities(table)
    cdf = list(itertools.accumulate(probs))
    return table[names[bisect.bisect_right([c / cdf[-1] for c in cdf], rng.random())]]


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


def photon_statistics(s: CoherentSuperposition, mode: int, n_max: int | None = None) -> np.ndarray:
    """P(n) for n = 0..n_max of counting photons in `mode`."""
    s.check_mode(mode)
    if n_max is None:
        n_max = default_nmax(np.max(np.abs(s.amps[:, mode])) if s.nterms else 0.0)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    w = fock_amplitude(np.arange(n_max + 1)[:, None], s.amps[:, mode])
    return _forms(_rest(s.amps, [mode]), w * s.coeffs)


def project_photon_number(s: CoherentSuperposition, mode: int, n: int) -> MeasurementRecord:
    """Condition on counting exactly n photons in `mode`."""
    s.check_mode(mode)
    w = fock_amplitude(n, s.amps[:, mode])
    (rec,) = _table("photon_count", s.coeffs, _rest(s.amps, [mode]), [(n, 1.0, w, True)]).values()
    if rec.state is None:
        raise ZeroNormError(f"photon-number branch n={n} has probability 0")
    return rec


def _reference(amps: np.ndarray) -> complex:
    """The largest amplitude of a column (0 for an empty one)."""
    return complex(amps[np.abs(amps).argmax()]) if len(amps) else 0j


def _refuse_off_support(d: np.ndarray, ref: complex, message: str) -> None:
    """UnsupportedStateError(message) if any offset d of a column from its
    nearest support point (`_bell_column`) exceeds 1e-9 (1 + |ref|), i.e. an
    amplitude lies off the support {+ref, -ref}.  |d| is bitwise
    min(|x - ref|, |x + ref|): d = x - ref or x - (-ref), and x - (-ref) is
    x + ref exactly."""
    if np.count_nonzero(np.abs(d) > 1e-9 * (1 + abs(ref))):
        raise UnsupportedStateError(message)


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
    signs, d, _ = _bell_column(col, ref)
    _refuse_off_support(d, ref, _OFF_SUPPORT)
    z0, even_nz, odd = _parity_class_weights(abs(ref) ** 2)
    ones = np.ones(s.nterms)
    return _table("parity", s.coeffs, _rest(s.amps, [mode]), [
        ("zero", z0, ones, True),
        ("even_nonzero", even_nz, ones, True),
        ("odd", odd, signs, True),
    ])


def _cat_weights(ref_amp: complex, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd): <cat|a> for each amplitude a, against the normalized
    even and odd cats at amplitude `ref_amp` = r, from one pass over the
    amplitudes.

    With h = conj(r) a, <+/-r|a> = e^{e +/- h}, e = -|r|^2/2 - |a|^2/2, so
    the unnormalized weight <r|a> + p <-r|a> of parity p is <r|a> ((1 + p) +
    p expm1(-2h)).  Where -r is the nearer reference (Re h < 0) the same
    algebra runs from p <-r|a> with -h: Re h >= 0 always, so the odd weight
    is an expm1 with no cancellation, and no term overflows."""
    ref = complex(ref_amp)
    sq = abs(ref) * abs(ref)
    h = ref.conjugate() * amps
    far = h.real < 0
    h = np.where(far, -h, h)
    near = np.exp(-0.5 * sq - 0.5 * np.abs(amps) ** 2 + h)  # <nearer|a>
    m = np.expm1(-2 * h)

    def weights(parity):
        norm = _pair_norm(sq, 1, parity)
        return np.where(far, parity / norm, 1 / norm) * near * ((1 + parity) + parity * m)

    return weights(+1), weights(-1)


def cat_projection(
    s: CoherentSuperposition, mode: int, ref_amp: complex, parity: int
) -> MeasurementRecord:
    """Project `mode` onto the normalized even/odd cat at amplitude
    `ref_amp`.  On {+a, -a}-supported modes this coincides with the
    corresponding parity class; it stays an exact pure projection for
    modes that have leaked slightly off +/-a.

    A branch at or below PROB_FLOOR gives a record whose `state` is None,
    where `project_photon_number` and `homodyne_condition` raise
    ZeroNormError.  The record comes from `_table`'s PROB_FLOOR rule, which
    `gate_rx`'s joint two-mode table meets too: it weights both measured
    modes with `_cat_weights` and scores its rows itself (it never calls
    this function); `gates._pick` turns a drawn stateless branch into a
    GateFailure."""
    s.check_mode(mode)
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    outcome = "even" if parity > 0 else "odd"
    even, odd = _cat_weights(ref_amp, s.amps[:, mode])
    rows = [(outcome, 1.0, even if parity > 0 else odd, True)]
    return _table("cat_projection", s.coeffs, _rest(s.amps, [mode]), rows)[outcome]


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
    return np.maximum(_forms(_rest(s.amps, [mode]), w * s.coeffs), 0.0)[()]


def homodyne_condition(s: CoherentSuperposition, mode: int, x: float) -> MeasurementRecord:
    """Condition the remaining modes on a homodyne result x.  The record's
    probability field holds the density at x."""
    s.check_mode(mode)
    w = _quadrature_overlap(x, s.amps[:, mode])
    rest = _rest(s.amps, [mode])
    (rec,) = _table("homodyne", s.coeffs, rest, [(float(x), 1.0, w, True)]).values()
    if rec.state is None:
        raise ZeroNormError(f"zero homodyne density at x={x}")
    return rec


def homodyne_sample(
    s: CoherentSuperposition, mode: int, rng: np.random.Generator, points: int = 4096
) -> MeasurementRecord:
    """Draw a homodyne result by inverse CDF on a fixed grid of `points`
    (at least 2) over +/-(sqrt(2) max|a| + 8), then condition."""
    if points < 2:
        raise ValueError(f"homodyne grid needs at least 2 points, got {points}")
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
    refused.  The table is the one-state case of `_bell_scores`, whose rows
    are those of `_bell_rows`, which every teleport reads too."""
    s.check_mode(mode_a)
    s.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("Bell measurement needs two distinct modes")
    rows, rest, norms, _ = _bell_scores(s.coeffs, s.amps, mode_a, mode_b)
    return _table("bell_measurement", s.coeffs, rest, rows, norms)


def _bell_scores(
    coeffs: np.ndarray, amps: np.ndarray, mode_a: int, mode_b: int
) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """The Bell-cat measurement on modes mode_a and mode_b of the amplitude
    rows `amps` (K terms), scored for every coefficient vector of the
    (..., K) stack `coeffs`: (rows, rest, norms, probs), the `_bell_rows`
    rows, the amplitude rows of the remaining modes, the (..., 5) squared
    branch norms, one per row, and the (..., 5) probabilities factor_i *
    norms[..., i], the product `_table` forms for each record.

    The columns are scanned once (`_bell_column`), against one reference,
    mode_a's largest amplitude, and an amplitude off {+a, -a} in either
    column is refused from the same scan; the norms of the whole
    (..., 5, K) stack come from one `_forms` call, so states that share
    their amplitude rows share one Gram matrix, and a stack with no mode
    left unmeasured (a Bell cat, each of bell-stats' four) builds none: its
    forms are |sum v|^2.  A (K,) `coeffs` is the one-state case
    `bell_outcomes` scores."""
    a, b = amps[:, mode_a], amps[:, mode_b]
    ref = _reference(a)
    col_a, col_b = _bell_column(a, ref), _bell_column(b, ref)
    _refuse_off_support(col_a[1], ref, _OFF_SUPPORT)
    _refuse_off_support(col_b[1], ref, _OFF_SUPPORT_PAIR)
    rows = _bell_rows(col_a, col_b, ref)
    rest = _rest(amps, (mode_a, mode_b))
    norms = _forms(rest, np.array([w for _, _, w, _ in rows]) * coeffs[..., None, :])
    return rows, rest, norms, np.array([factor for _, factor, _, _ in rows]) * norms


def _bell_column(col: np.ndarray, ref: complex) -> tuple:
    """(signs, d, conj(r) d) of one measured column of a Bell-cat
    measurement against `ref`: each amplitude x's nearest sign (+1 where x
    is nearer +ref than -ref, ties included, else -1), its offset d = x - r
    from r = sign * ref, the support point nearest it, and conj(r) d.  d is
    exactly 0 where x lies on {+ref, -ref}."""
    signs = np.where(np.abs(col - ref) <= np.abs(col + ref), 1.0, -1.0)
    r = signs * ref
    d = col - r
    return signs, d, r.conj() * d


def _bell_weights(d2: np.ndarray, h: np.ndarray) -> tuple:
    """(w, fail) per term from the sums of |d|^2 and of conj(r) d over its
    measured columns (`_bell_column`): the support weight w = exp(-|d|^2/2 +
    i Im h), the product of <r|x> over the columns, and the FAIL weight
    exp(-|d|^2/2 - Re h), which `_bell_rows` derives.  Both are exactly 1
    on the support."""
    e = -0.5 * d2
    return np.exp(e + 1j * h.imag), np.exp(e - h.real)


def _bell_rows(col_a: tuple, col_b: tuple, ref: complex) -> list[tuple]:
    """The `_table` rows of the Bell-cat measurement from its two measured
    columns, one amplitude per term in each, each scanned against the
    reference `ref` by `_bell_column`.

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
    1 on the support.  Each column's part comes from `_bell_column`, which
    a gate's table reads for its input's column alone
    (`gates._bell_step`).  The rows do not depend on any coefficient, so one
    call serves every state of a `_bell_scores` stack."""
    signs_a, da, ha = col_a
    signs_b, db, hb = col_b
    w, fail = _bell_weights(np.abs(da) ** 2 + np.abs(db) ** 2, ha + hb)
    same = signs_a == signs_b
    weights = (same * w, same * signs_a * w, ~same * w, ~same * signs_a * w)
    return _bell_classes(ref, weights, fail, (True,) * 4)


def _bell_classes(ref: complex, weights: tuple, fail: np.ndarray, keeps: tuple) -> list[tuple]:
    """The five `_table` rows of a Bell-cat measurement against `ref`: I,
    II, III and IV with the per-term `weights` and the `keeps` given in that
    order, and FAIL with weight `fail`, which keeps no state.  Their class
    factors are those of photon counting at |sqrt(2) ref|^2 = 2 |ref|^2:
    even > 0 for I and III, odd for II and IV, zero for FAIL."""
    z0, even_nz, odd = _parity_class_weights(2 * abs(ref) ** 2)
    (w1, w2, w3, w4), (k1, k2, k3, k4) = weights, keeps
    return [("I", even_nz, w1, k1), ("II", odd, w2, k2), ("III", even_nz, w3, k3),
            ("IV", odd, w4, k4), ("FAIL", z0, fail, False)]
