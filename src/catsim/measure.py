"""Photon counting, parity conditioning, homodyne detection and the
Bell-cat measurement, with exact outcome probabilities and conditioned
pure states.

Quadrature convention: x = (a + a^dag)/sqrt(2), so a coherent state |a>
has mean sqrt(2) Re a and variance 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .optics import BeamSplitterSpec, beamsplitter, phase_shift
from .states import CoherentSuperposition, ZeroNormError, coherent_overlap

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
    "bell_measurement",
]

PROB_FLOOR = 1e-300


class UnsupportedStateError(ValueError):
    """Measurement precondition on the state's structure is violated."""


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event: detector kind, outcome, probability (a
    density for homodyne records) and the conditioned remaining-mode
    state (None for discarded branches)."""

    kind: str
    outcome: object
    probability: float
    state: Optional[CoherentSuperposition]

    def to_row(self) -> str:
        return f"{self.kind}\t{self.outcome}\t{self.probability:.17g}"


def fock_amplitude(n: int, alpha: complex) -> complex:
    """<n|alpha> = e^{-|a|^2/2} a^n / sqrt(n!), evaluated in log domain."""
    if n < 0:
        raise ValueError("n must be >= 0")
    alpha = complex(alpha)
    r = abs(alpha)
    if r == 0.0:
        return 1.0 + 0j if n == 0 else 0.0 + 0j
    logmag = n * math.log(r) - 0.5 * r * r - 0.5 * gammaln(n + 1)
    # integer power of the unit phase keeps signs exact for real alpha
    return math.exp(logmag) * (alpha / r) ** n


def default_nmax(amp_scale: float) -> int:
    """Photon cutoff with sub-1e-12 Poisson tail for the given amplitude."""
    a = abs(amp_scale)
    return math.ceil(a * a + 10 * a + 20)


def _rest(s: CoherentSuperposition, modes: list[int], weights: np.ndarray) -> CoherentSuperposition:
    """Unnormalized state on the modes not in `modes`, coefficients
    multiplied by per-term contraction weights."""
    amps = np.delete(s.amps, modes, axis=1)
    return CoherentSuperposition(s.coeffs * weights, amps)


def photon_statistics(s: CoherentSuperposition, mode: int, n_max: int | None = None) -> np.ndarray:
    """P(n) for n = 0..n_max of counting photons in `mode`."""
    s.check_mode(mode)
    if n_max is None:
        n_max = default_nmax(np.max(np.abs(s.amps[:, mode])) if s.nterms else 0.0)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    probs = np.empty(n_max + 1)
    for n in range(n_max + 1):
        w = np.array([fock_amplitude(n, a) for a in s.amps[:, mode]])
        probs[n] = _rest(s, [mode], w).norm_squared()
    return probs


def project_photon_number(s: CoherentSuperposition, mode: int, n: int) -> MeasurementRecord:
    """Condition on counting exactly n photons in `mode`."""
    s.check_mode(mode)
    w = np.array([fock_amplitude(n, a) for a in s.amps[:, mode]])
    branch = _rest(s, [mode], w)
    p = branch.norm_squared()
    if p < PROB_FLOOR:
        raise ZeroNormError(f"photon-number branch n={n} has probability 0")
    return MeasurementRecord("photon_count", n, p, branch.normalize())


def _signs_against_reference(amps: np.ndarray, tol: float = 1e-9) -> tuple[complex, np.ndarray]:
    """For amplitudes all in {+a, -a}, return (a, signs); a may be 0."""
    ref = amps[np.argmax(np.abs(amps))]
    if abs(ref) == 0.0:
        return 0.0, np.ones(len(amps))
    signs = np.where(np.abs(amps - ref) <= np.abs(amps + ref), 1.0, -1.0)
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
    v_even = _rest(s, [mode], np.ones(s.nterms)).merge_terms()
    v_odd = _rest(s, [mode], signs.astype(complex)).merge_terms()
    ne, no = v_even.norm_squared(), v_odd.norm_squared()
    records = {}
    for name, weight, vec, n2 in [
        ("zero", z0, v_even, ne),
        ("even_nonzero", even_nz, v_even, ne),
        ("odd", odd, v_odd, no),
    ]:
        p = weight * n2
        state = vec.normalize() if p > PROB_FLOOR else None
        records[name] = MeasurementRecord("parity", name, p, state)
    return records


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
    ref = complex(ref_amp)
    norm_cat = math.sqrt(2 + parity * 2 * math.exp(-2 * abs(ref) ** 2))
    a = s.amps[:, mode]
    w = (coherent_overlap(ref, a) + parity * coherent_overlap(-ref, a)) / norm_cat
    branch = _rest(s, [mode], w).merge_terms()
    p = branch.norm_squared()
    name = "even" if parity > 0 else "odd"
    state = branch.normalize() if p > PROB_FLOOR else None
    return MeasurementRecord("cat_projection", name, p, state)


# ---------------------------------------------------------------------------
# homodyne

_SQRT_PI = math.sqrt(math.pi)


def _quadrature_overlap(x: float, alpha: complex) -> complex:
    """<x|alpha> under x = (a + a^dag)/sqrt(2)."""
    alpha = complex(alpha)
    return math.pi ** -0.25 * np.exp(
        -0.5 * x * x + math.sqrt(2) * x * alpha - 0.5 * alpha * alpha - 0.5 * abs(alpha) ** 2
    )


def homodyne_pdf(s: CoherentSuperposition, mode: int, x: float) -> float:
    """Marginal density of the x quadrature of `mode` at x."""
    s.check_mode(mode)
    w = np.array([_quadrature_overlap(x, a) for a in s.amps[:, mode]])
    return max(_rest(s, [mode], w).norm_squared(), 0.0)


def homodyne_condition(s: CoherentSuperposition, mode: int, x: float) -> MeasurementRecord:
    """Condition the remaining modes on a homodyne result x.  The record's
    probability field holds the density at x."""
    s.check_mode(mode)
    w = np.array([_quadrature_overlap(x, a) for a in s.amps[:, mode]])
    branch = _rest(s, [mode], w)
    density = branch.norm_squared()
    if density < PROB_FLOOR:
        raise ZeroNormError(f"zero homodyne density at x={x}")
    return MeasurementRecord("homodyne", float(x), density, branch.normalize())


def homodyne_grid(s: CoherentSuperposition, mode: int, points: int = 4096) -> np.ndarray:
    a = float(np.max(np.abs(s.amps[:, mode]))) if s.nterms else 0.0
    half = a * math.sqrt(2) + 8.0
    return np.linspace(-half, half, points)


def homodyne_sample(
    s: CoherentSuperposition, mode: int, rng: np.random.Generator, points: int = 4096
) -> MeasurementRecord:
    """Draw a homodyne result by inverse CDF on a fixed grid, then condition."""
    xs = homodyne_grid(s, mode, points)
    pdf = np.array([homodyne_pdf(s, mode, x) for x in xs])
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    x = float(np.interp(rng.random(), cdf, xs))
    return homodyne_condition(s, mode, x)


# ---------------------------------------------------------------------------
# Bell-cat measurement

BELL_OUTCOMES = ("I", "II", "III", "IV", "FAIL")


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
    s: CoherentSuperposition,
    mode_a: int,
    mode_b: int,
    keep_fail_state: bool = False,
) -> dict[str, MeasurementRecord]:
    """All five outcome branches of the Bell-cat measurement on two modes
    whose amplitudes lie in {+a, -a} for a common a.

    The Bell-state creation is run in reverse (compensating +pi/2 phase on
    mode_b, then B(-pi/4)), after which photon counting on the two output
    modes is classified as I=(even>0, 0), II=(odd, 0), III=(0, even>0),
    IV=(0, odd) and FAIL=(0, 0).
    """
    s.check_mode(mode_a)
    s.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("Bell measurement needs two distinct modes")
    _signs_against_reference(s.amps[:, mode_a])
    _signs_against_reference(s.amps[:, mode_b])

    mixed = beamsplitter(
        phase_shift(s, mode_b, np.pi / 2), BeamSplitterSpec(mode_a, mode_b, -np.pi / 4)
    )
    u = mixed.amps[:, mode_a]
    v = mixed.amps[:, mode_b]
    scale = max(np.max(np.abs(u)), np.max(np.abs(v)))
    if scale == 0.0:
        in_a = np.ones(mixed.nterms, dtype=bool)
    else:
        in_a = np.abs(u) > np.abs(v)
        bad = np.minimum(np.abs(u), np.abs(v)) > 1e-9 * scale
        if np.any(bad):
            raise UnsupportedStateError("interfered state has photons in both output modes")

    ref_u, signs_u = _group_signs(u, in_a)
    ref_v, signs_v = _group_signs(v, ~in_a)
    mag2 = abs(ref_u) ** 2 if abs(ref_u) > 0 else abs(ref_v) ** 2
    z0, even_nz, odd = _parity_class_weights(mag2)

    drop = [mode_a, mode_b]
    sel_a = in_a.astype(complex)
    sel_b = (~in_a).astype(complex)
    v_ae = _rest(mixed, drop, sel_a).merge_terms()
    v_ao = _rest(mixed, drop, sel_a * signs_u).merge_terms()
    v_be = _rest(mixed, drop, sel_b).merge_terms()
    v_bo = _rest(mixed, drop, sel_b * signs_v).merge_terms()
    v_fail = _rest(mixed, drop, np.ones(mixed.nterms)).merge_terms()

    records = {}
    for name, weight, vec in [
        ("I", even_nz, v_ae),
        ("II", odd, v_ao),
        ("III", even_nz, v_be),
        ("IV", odd, v_bo),
        ("FAIL", z0, v_fail),
    ]:
        p = weight * vec.norm_squared()
        keep = (name != "FAIL") or keep_fail_state
        state = vec.normalize() if (keep and p > PROB_FLOOR) else None
        records[name] = MeasurementRecord("bell", name, p, state)
    return records


def bell_cat_outcomes(
    s: CoherentSuperposition,
    mode_a: int,
    mode_b: int,
    ref_amp: complex,
    keep_fail_state: bool = False,
) -> dict[str, MeasurementRecord]:
    """Idealized Bell measurement for inputs that have leaked slightly off
    the logical amplitudes: each coherent term is contracted against the
    Bell-cat bra component whose per-mode amplitudes are *nearest* to the
    term's own, and only that component (FAIL = joint vacuum).

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
    sgn_a = np.where(np.abs(a - ref) <= np.abs(a + ref), 1.0, -1.0)
    sgn_b = np.where(np.abs(b - ref) <= np.abs(b + ref), 1.0, -1.0)
    wa = coherent_overlap(sgn_a * ref, a)
    wb = coherent_overlap(sgn_b * ref, b)
    same = (sgn_a == sgn_b).astype(complex)
    anti = 1.0 - same
    # bra-side coefficient of the matched component: +1 on the all-minus
    # term, -sgn on the all-plus term of the odd-symmetry Bell cats
    flip = -sgn_a
    norm_plus = math.sqrt(2 + 2 * math.exp(-4 * abs(ref) ** 2))
    norm_minus = math.sqrt(2 - 2 * math.exp(-4 * abs(ref) ** 2))
    weight_table = {
        "I": same * wa * wb / norm_plus,
        "II": same * flip * wa * wb / norm_minus,
        "III": anti * wa * wb / norm_plus,
        "IV": anti * flip * wa * wb / norm_minus,
    }
    records = {}
    for name, w in weight_table.items():
        branch = _rest(s, [mode_a, mode_b], w).merge_terms()
        p = branch.norm_squared()
        state = branch.normalize() if p > PROB_FLOOR else None
        records[name] = MeasurementRecord("bell", name, p, state)
    w0 = coherent_overlap(0.0, a) * coherent_overlap(0.0, b)
    fail = _rest(s, [mode_a, mode_b], w0).merge_terms()
    pf = fail.norm_squared()
    state = fail.normalize() if (keep_fail_state and pf > PROB_FLOOR) else None
    records["FAIL"] = MeasurementRecord("bell", "FAIL", pf, state)
    return records


def bell_measurement(
    s: CoherentSuperposition,
    mode_a: int,
    mode_b: int,
    rng: np.random.Generator,
    keep_fail_state: bool = False,
) -> MeasurementRecord:
    """Sample one Bell-cat measurement outcome and condition on it."""
    branches = bell_outcomes(s, mode_a, mode_b, keep_fail_state)
    names = list(branches)
    probs = np.array([branches[n].probability for n in names])
    probs = np.clip(probs, 0.0, None)
    pick = rng.choice(len(names), p=probs / probs.sum())
    return branches[names[pick]]
