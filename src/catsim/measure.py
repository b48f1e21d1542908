"""Photon counting, parity conditioning, homodyne detection and the
Bell-cat measurement, with exact outcome probabilities and conditioned
pure states.  Every conditioning is an exact branch table {outcome:
MeasurementRecord} scored from one Gram matrix; the parity and Bell-cat
measurements return the whole table, `sample` draws one outcome and
`sample_counts` the outcome counts of many shots.  A branch's conditioned
state is built on its first read, so a shot that keeps one branch builds
only that branch's state.

Quadrature convention: x = (a + a^dag)/sqrt(2), so a coherent state |a>
has mean sqrt(2) Re a and variance 1/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .states import CoherentSuperposition, ZeroNormError, _gram_forms, coherent_overlap

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
    "bell_cat_outcomes",
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


def _branch_state(coeffs, w, n2, rest) -> CoherentSuperposition:
    return CoherentSuperposition(coeffs * w / np.sqrt(n2), rest).merge_terms()


def _rest(s: CoherentSuperposition, modes: list[int]) -> np.ndarray:
    """Amplitude columns of the modes of `s` not in `modes`, gathered by index."""
    return s.amps[:, [m for m in range(s.modes) if m not in modes]]


def _table(kind: str, s: CoherentSuperposition, modes: list[int], rows: list[tuple]) -> dict:
    """Branch table {outcome: MeasurementRecord} of measuring `modes` of `s`.
    Row (outcome, factor, weights, keep) has probability factor times the
    squared norm of the unmerged branch (per-term contraction `weights`),
    all rows from one `_gram_forms` call on the remaining modes.  A kept
    branch above PROB_FLOOR carries its normalized, merged state, built on
    the record's first read; the others carry None."""
    rest = _rest(s, modes)
    v = np.array([w for _, _, w, _ in rows]) * s.coeffs
    norms = _gram_forms(rest, v, rest, v).real
    table = {}
    for (outcome, factor, w, keep), n2 in zip(rows, norms):
        p = float(factor * n2)
        build = None
        if keep and p > PROB_FLOOR:
            build = (s.coeffs, w, n2, rest)
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


def _branch_norms(s: CoherentSuperposition, modes: list[int], weights: np.ndarray) -> np.ndarray:
    """Squared norm of the branch sum_k w_k c_k |rest_k> on the modes not in
    `modes`, for every row w of a (..., K) stack of weights: v* G v with
    v = w * coeffs on the one Gram matrix G of the remaining modes."""
    rest = _rest(s, modes)
    v = weights * s.coeffs
    return _gram_forms(rest, v, rest, v).real


def photon_statistics(s: CoherentSuperposition, mode: int, n_max: int | None = None) -> np.ndarray:
    """P(n) for n = 0..n_max of counting photons in `mode`."""
    s.check_mode(mode)
    if n_max is None:
        n_max = default_nmax(np.max(np.abs(s.amps[:, mode])) if s.nterms else 0.0)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    w = fock_amplitude(np.arange(n_max + 1)[:, None], s.amps[:, mode])
    return _branch_norms(s, [mode], w)


def project_photon_number(s: CoherentSuperposition, mode: int, n: int) -> MeasurementRecord:
    """Condition on counting exactly n photons in `mode`."""
    s.check_mode(mode)
    w = fock_amplitude(n, s.amps[:, mode])
    (rec,) = _table("photon_count", s, [mode], [(n, 1.0, w, True)]).values()
    if rec.state is None:
        raise ZeroNormError(f"photon-number branch n={n} has probability 0")
    return rec


def _nearest_signs(amps: np.ndarray, ref: complex) -> np.ndarray:
    """+1 where an amplitude is nearer +ref than -ref (ties count as +1),
    else -1, elementwise."""
    return np.where(np.abs(amps - ref) <= np.abs(amps + ref), 1.0, -1.0)


def _support(amps: np.ndarray, ref: complex) -> tuple[np.ndarray, bool]:
    """(signs, off): the `_nearest_signs` of the amplitudes against `ref`,
    and whether any amplitude lies farther than 1e-9 (1 + |ref|) from
    signs * ref, i.e. off the support {+ref, -ref}."""
    signs = _nearest_signs(amps, ref)
    return signs, bool(np.count_nonzero(np.abs(amps - signs * ref) > 1e-9 * (1 + abs(ref))))


def _signs_against_reference(amps: np.ndarray) -> tuple[complex, np.ndarray]:
    """For amplitudes all in {+a, -a}, return (a, signs); a may be 0, as it
    is for an empty column."""
    ref = amps[np.argmax(np.abs(amps))] if len(amps) else 0.0
    if abs(ref) == 0.0:
        return 0.0, np.ones(len(amps))
    signs, off = _support(amps, ref)
    if off:
        raise UnsupportedStateError(
            "mode amplitudes are not supported on {+a, -a} for a common a"
        )
    return complex(ref), signs


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
    ref, signs = _signs_against_reference(s.amps[:, mode])
    z0, even_nz, odd = _parity_class_weights(abs(ref) ** 2)
    ones = np.ones(s.nterms)
    return _table("parity", s, [mode], [
        ("zero", z0, ones, True),
        ("even_nonzero", even_nz, ones, True),
        ("odd", odd, signs, True),
    ])


def _cat_weights(ref_amp: complex, parity: int, amps: np.ndarray) -> np.ndarray:
    """<cat|a> for each amplitude a, against the normalized even (+1) or
    odd (-1) cat at amplitude `ref_amp`."""
    ref = complex(ref_amp)
    norm_cat = math.sqrt(2 + parity * 2 * math.exp(-2 * abs(ref) ** 2))
    if norm_cat == 0.0:  # the odd cat once e^{-2|a|^2} rounds to 1
        raise ZeroNormError(f"the odd cat at amplitude {ref:.3g} has zero norm")
    return (coherent_overlap(ref, amps) + parity * coherent_overlap(-ref, amps)) / norm_cat


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
    return _table("cat_projection", s, [mode], [(outcome, 1.0, w, True)])[outcome]


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
    return np.maximum(_branch_norms(s, [mode], w), 0.0)[()]


def homodyne_condition(s: CoherentSuperposition, mode: int, x: float) -> MeasurementRecord:
    """Condition the remaining modes on a homodyne result x.  The record's
    probability field holds the density at x."""
    s.check_mode(mode)
    w = _quadrature_overlap(x, s.amps[:, mode])
    (rec,) = _table("homodyne", s, [mode], [(float(x), 1.0, w, True)]).values()
    if rec.state is None:
        raise ZeroNormError(f"zero homodyne density at x={x}")
    return rec


def homodyne_grid(s: CoherentSuperposition, mode: int, points: int = 4096) -> np.ndarray:
    a = float(np.max(np.abs(s.amps[:, mode]))) if s.nterms else 0.0
    half = a * math.sqrt(2) + 8.0
    return np.linspace(-half, half, points)


def homodyne_sample(
    s: CoherentSuperposition, mode: int, rng: np.random.Generator, points: int = 4096
) -> MeasurementRecord:
    """Draw a homodyne result by inverse CDF on a fixed grid, then condition."""
    xs = homodyne_grid(s, mode, points)
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

    The phase and beam splitter send |x, y> to |(x + y)/sqrt(2),
    i(y - x)/sqrt(2)>, so a term with x = s_a a and y = s_b a leaves as
    |sqrt(2) s_a a, 0> when s_a = s_b and as |0, -i sqrt(2) s_a a>
    otherwise: all its photons reach one output, at amplitude sqrt(2) a up
    to a phase common to the branch.  The classes are therefore read off
    the input signs, each column scanned once, with no mixed amplitude
    formed.  Counting n photons contributes s_a^n, so an even class weights
    a term by 1 and an odd class by s_a, times the class factor at
    |sqrt(2) a|^2 = 2 |a|^2.  Amplitudes off {+a, -a} for the a of mode_a
    are refused."""
    s.check_mode(mode_a)
    s.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("Bell measurement needs two distinct modes")
    ref, signs_a = _signs_against_reference(s.amps[:, mode_a])
    signs_b, off = _support(s.amps[:, mode_b], ref)
    if off:
        raise UnsupportedStateError(
            "the two measured modes are not supported on {+a, -a} for a common a"
        )
    same = signs_a == signs_b
    z0, even_nz, odd = _parity_class_weights(2 * abs(ref) ** 2)
    return _table("bell_measurement", s, [mode_a, mode_b], [
        ("I", even_nz, same, True),
        ("II", odd, same * signs_a, True),
        ("III", even_nz, ~same, True),
        ("IV", odd, ~same * signs_a, True),
        ("FAIL", z0, np.ones(s.nterms), False),
    ])


def bell_cat_outcomes(
    s: CoherentSuperposition, mode_a: int, mode_b: int, ref_amp: complex
) -> dict[str, MeasurementRecord]:
    """Idealized Bell measurement for inputs that have leaked slightly off
    the logical amplitudes: each coherent term is contracted against the
    Bell-cat bra component whose per-mode amplitudes are *nearest* to the
    term's own, and only that component (FAIL = joint vacuum, recorded
    without a state).

    Dropping the non-nearest bra components removes the O(e^{-2|a|^2})
    cross-overlap contamination, which is exactly the orthogonal-support
    idealization under which the teleported-gate phase formulas are exact;
    on {+a, -a}-supported inputs the conditioned states coincide with the
    photon-counting classifier of `bell_outcomes` branch by branch.
    """
    s.check_mode(mode_a)
    s.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("Bell measurement needs two distinct modes")
    ref = complex(ref_amp)
    if ref == 0:
        raise ValueError("ref_amp must be nonzero")
    a = s.amps[:, mode_a]
    b = s.amps[:, mode_b]
    sgn_a = _nearest_signs(a, ref)
    sgn_b = _nearest_signs(b, ref)
    wa = coherent_overlap(sgn_a * ref, a)
    wb = coherent_overlap(sgn_b * ref, b)
    same = (sgn_a == sgn_b).astype(complex)
    anti = 1.0 - same
    # bra-side coefficient of the matched component: +1 on the all-minus
    # term, -sgn on the all-plus term of the odd-symmetry Bell cats
    flip = -sgn_a
    norm_plus = math.sqrt(2 + 2 * math.exp(-4 * abs(ref) ** 2))
    norm_minus = math.sqrt(2 - 2 * math.exp(-4 * abs(ref) ** 2))
    if norm_minus == 0.0:  # once e^{-4|a|^2} rounds to 1
        raise ZeroNormError(f"the odd Bell cats at amplitude {ref:.3g} have zero norm")
    return _table("bell_measurement", s, [mode_a, mode_b], [
        ("I", 1.0, same * wa * wb / norm_plus, True),
        ("II", 1.0, same * flip * wa * wb / norm_minus, True),
        ("III", 1.0, anti * wa * wb / norm_plus, True),
        ("IV", 1.0, anti * flip * wa * wb / norm_minus, True),
        ("FAIL", 1.0, coherent_overlap(0.0, a) * coherent_overlap(0.0, b), False),
    ])
