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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optics import _mix
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


class _Deferred(functools.partial):
    """A record state not built yet: called once, on the first read."""


class _BuiltOnFirstRead:
    """Data descriptor behind `MeasurementRecord.state`.  A `_Deferred`
    value is called on the first read and replaced by its result; any
    other value is stored and read as is.  Reading it from the class
    raises AttributeError, so the dataclass field keeps no default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if isinstance(value, _Deferred):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event: detector kind, outcome, probability (a
    density for homodyne records) and the conditioned remaining-mode
    state (None for discarded branches).  A table's records get their
    state built on its first read and kept from then on."""

    kind: str
    outcome: object
    probability: float
    state: Optional[CoherentSuperposition] = _BuiltOnFirstRead()


def _branch_state(coeffs, w, n2, rest) -> CoherentSuperposition:
    return CoherentSuperposition(coeffs * w / np.sqrt(n2), rest).merge_terms()


def _table(kind: str, s: CoherentSuperposition, modes: list[int], rows: list[tuple]) -> dict:
    """Branch table {outcome: MeasurementRecord} of measuring `modes` of `s`.
    Row (outcome, factor, weights, keep) has probability factor times the
    squared norm of the unmerged branch (per-term contraction `weights`),
    all rows from one `_gram_forms` call on the remaining modes.  A kept
    branch above PROB_FLOOR carries its normalized, merged state, built on
    the record's first read; the others carry None."""
    rest = np.delete(s.amps, modes, axis=1)
    v = np.array([w for _, _, w, _ in rows]) * s.coeffs
    norms = _gram_forms(rest, v, rest, v).real
    table = {}
    for (outcome, factor, w, keep), n2 in zip(rows, norms):
        p = float(factor * n2)
        state = None
        if keep and p > PROB_FLOOR:
            state = _Deferred(_branch_state, s.coeffs, w, n2, rest)
        table[outcome] = MeasurementRecord(kind, outcome, p, state)
    return table


def _probabilities(table: dict) -> tuple[list, np.ndarray]:
    """Outcomes of a table in dict order and their probabilities, clipped
    at 0 (round-off) and renormalized."""
    names = list(table)
    probs = np.clip([table[n].probability for n in names], 0.0, None)
    return names, probs / probs.sum()


def sample(table: dict, rng: np.random.Generator) -> MeasurementRecord:
    """Draw one record of an exact branch table {outcome: record}: a single
    rng.choice over the table in dict order, with probabilities clipped at
    0 (round-off) and renormalized."""
    names, probs = _probabilities(table)
    return table[names[rng.choice(len(names), p=probs)]]


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
    rest = np.delete(s.amps, modes, axis=1)
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


def _signs_against_reference(amps: np.ndarray, tol: float = 1e-9) -> tuple[complex, np.ndarray]:
    """For amplitudes all in {+a, -a}, return (a, signs); a may be 0."""
    ref = amps[np.argmax(np.abs(amps))]
    if abs(ref) == 0.0:
        return 0.0, np.ones(len(amps))
    signs = _nearest_signs(amps, ref)
    resid = np.max(np.abs(amps - signs * ref))
    if resid > tol * (1 + abs(ref)):
        raise UnsupportedStateError(
            "mode amplitudes are not supported on {+a, -a} for a common a"
        )
    return complex(ref), signs


def _parity_class_weights(amp_mag2: float) -> tuple[float, float, float]:
    """(P_zero, P_even_nonzero, P_odd) photon-sum factors for |a|^2."""
    z0 = math.exp(-amp_mag2)
    even = z0 * math.cosh(amp_mag2)
    odd = z0 * math.sinh(amp_mag2)
    return z0, even - z0, odd


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
    modes that have leaked slightly off +/-a."""
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

def _group_signs(amps: np.ndarray, mask: np.ndarray) -> tuple[complex, np.ndarray]:
    """Signs of the masked amplitudes against their common reference;
    entries outside the mask get sign 1 and are not validated."""
    signs = np.ones(len(amps))
    if not np.any(mask):
        return 0.0, signs
    ref, group = _signs_against_reference(amps[mask])
    signs[mask] = group
    return ref, signs


def bell_outcomes(
    s: CoherentSuperposition, mode_a: int, mode_b: int
) -> dict[str, MeasurementRecord]:
    """All five outcome branches of the Bell-cat measurement on two modes
    whose amplitudes lie in {+a, -a} for a common a.

    The Bell-state creation is run in reverse (compensating +pi/2 phase on
    mode_b, then B(-pi/4)), after which photon counting on the two output
    modes is classified as I=(even>0, 0), II=(odd, 0), III=(0, even>0),
    IV=(0, odd) and FAIL=(0, 0).  The FAIL record carries no state.  Only
    the two measured columns are transformed; the rest of `s` is kept.
    """
    s.check_mode(mode_a)
    s.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("Bell measurement needs two distinct modes")
    _signs_against_reference(s.amps[:, mode_a])
    _signs_against_reference(s.amps[:, mode_b])

    u, v = _mix(s.amps[:, mode_a], s.amps[:, mode_b] * np.exp(1j * np.pi / 2), -np.pi / 4)
    scale = max(np.max(np.abs(u)), np.max(np.abs(v)))
    if scale == 0.0:
        in_a = np.ones(s.nterms, dtype=bool)
    else:
        in_a = np.abs(u) > np.abs(v)
        bad = np.minimum(np.abs(u), np.abs(v)) > 1e-9 * scale
        if np.any(bad):
            raise UnsupportedStateError("interfered state has photons in both output modes")

    ref_u, signs_u = _group_signs(u, in_a)
    ref_v, signs_v = _group_signs(v, ~in_a)
    mag2 = abs(ref_u) ** 2 if abs(ref_u) > 0 else abs(ref_v) ** 2
    z0, even_nz, odd = _parity_class_weights(mag2)

    return _table("bell", s, [mode_a, mode_b], [
        ("I", even_nz, in_a, True),
        ("II", odd, in_a * signs_u, True),
        ("III", even_nz, ~in_a, True),
        ("IV", odd, ~in_a * signs_v, True),
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
    return _table("bell", s, [mode_a, mode_b], [
        ("I", 1.0, same * wa * wb / norm_plus, True),
        ("II", 1.0, same * flip * wa * wb / norm_minus, True),
        ("III", 1.0, anti * wa * wb / norm_plus, True),
        ("IV", 1.0, anti * flip * wa * wb / norm_minus, True),
        ("FAIL", 1.0, coherent_overlap(0.0, a) * coherent_overlap(0.0, b), False),
    ])
