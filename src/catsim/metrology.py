"""Weak-force sensing, Ramsey phase estimation and quantum-ruler fringes
for coherent-superposition probes, with exact sensitivity bounds and the
exact mean and variance of the maximum-likelihood estimate.

Conventions:
- A weak force acting for a fixed time displaces every probe mode by
  D(i eps); the Hermitian generator of that displacement is
  G = sum_m (a_m + a_m^dag).
- `qfi_displacement` and every report hold the standard quantum Fisher
  information 4 Var(G), and eps_min = 1/sqrt(qfi).
- The weak-force chain (probe, D(i eps) on every mode, N-port merge, cat
  readout) is a cat of amplitude alpha displaced by i sqrt(N) eps: its
  readout is ruler_probability(alpha, 2 sqrt(N) eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .states import CoherentSuperposition, ZeroNormError, _gram_forms, ghz_cat

TAIL = 1e-18  # binomial mass that the weak-force moments may leave out

__all__ = [
    "SensitivityReport",
    "FringeScan",
    "classical_snr",
    "mean_photon_number",
    "qfi_displacement",
    "sensitivity_bound",
    "weak_force_experiment",
    "ruler_probability",
    "ramsey_probability",
    "ramsey_fisher",
    "quantum_ruler",
]


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity of one N-mode entangled cat probe: its exact total mean
    photon number `n_tot`, its quantum Fisher information `qfi` = 4 Var(G)
    and `epsilon_min` = 1/sqrt(qfi)."""

    n_tot: float
    qfi: float
    epsilon_min: float
    estimate_mean: float = float("nan")
    estimate_var: float = float("nan")
    crb_var: float = float("nan")
    saturation: float = float("nan")
    pinned: bool = False


@dataclass(frozen=True)
class FringeScan:
    """Interference-fringe scan of the length-measurement probe."""

    theta: np.ndarray
    length: np.ndarray
    probability: np.ndarray
    spacing_theta: float
    spacing_length: float


def classical_snr(epsilon: float) -> float:
    """Homodyne signal-to-noise for displacement D(i eps) on a coherent
    probe: mean quadrature shift sqrt(2) eps over sigma 1/sqrt(2), the same
    at every probe amplitude."""
    return 2.0 * float(epsilon)


def qfi_displacement(s: CoherentSuperposition) -> float:
    """Quantum Fisher information 4 Var(G) of the pure state for the
    collective displacement D(i eps) of every mode, G = sum_m (a_m + a_m^dag).

    With S_j = sum_m a_jm, a term pair has <a_j|G|a_k> = O_jk (conj(S_j) + S_k)
    and <a_j|G^2|a_k> = O_jk ((conj(S_j) + S_k)^2 + M), so both moments are
    forms F(u, v) = u* O v: n = F(c, c), <G> = 2 Re F(Sc, c) / n and
    <G^2> = (2 Re F(S^2 c, c) + 2 F(Sc, Sc)) / n + M."""
    total = np.sum(s.amps, axis=1)  # S_j
    c, sc = s.coeffs, total * s.coeffs
    left, right = np.stack([c, sc, total * sc, sc]), np.stack([c, c, c, sc])
    n, f1, f2, f11 = _gram_forms(s.amps, left, s.amps, right).real
    mean_g = 2.0 * f1 / n
    mean_g2 = 2.0 * (f2 + f11) / n + s.modes
    return float(4.0 * (mean_g2 - mean_g**2))


def mean_photon_number(s: CoherentSuperposition) -> float:
    """Exact total <n> over all modes (no orthogonality approximation): one
    form on the rows [c, a_1 c, ..., a_M c], whose first value is the norm
    and whose others sum to norm * <n>."""
    rows = np.vstack([s.coeffs, (s.amps * s.coeffs[:, None]).T])
    forms = _gram_forms(s.amps, rows, s.amps, rows).real
    return float(np.sum(forms[1:]) / forms[0])


def sensitivity_bound(alpha: float, n_modes: int) -> SensitivityReport:
    """Exact bound for the N-mode entangled cat probe of total amplitude
    alpha (per-mode amplitude alpha/sqrt(N)).

    The probe is the pair |x> + |-x> with ||x||^2 = alpha^2 = sq, and a_m
    sends it to x_m (|x> - |-x>), so its <n> is sq times the ratio of the
    odd and even pair norms^2, (1 - e^{-2 sq}) / (1 + e^{-2 sq}) = tanh sq:
    exact at any alpha, where the K-term `mean_photon_number` cancels at
    small alpha.  Refused where either is not finite: alpha^2 overflows, or
    the Gram exponent's round-off, of order alpha^2 * 1e-16, overflows
    exp."""
    probe = ghz_cat(alpha, n_modes)
    with np.errstate(over="ignore", invalid="ignore"):
        info = qfi_displacement(probe)
    sq = float(alpha) * float(alpha)
    n_tot = sq * math.tanh(sq)
    if not (math.isfinite(info) and math.isfinite(n_tot)):
        raise ValueError(f"the probe's n_tot = {n_tot} or qfi = {info} is not finite")
    return SensitivityReport(n_tot=n_tot, qfi=info, epsilon_min=1.0 / math.sqrt(info))


def weak_force_experiment(
    alpha: float,
    n_modes: int,
    epsilon: float,
    trials: int,
) -> SensitivityReport:
    """Exact statistics of the maximum-likelihood estimate of a weak
    displacement from `trials` shots of the exact readout
    p = ruler_probability(alpha, 2 sqrt(N) eps).

    The even count k is Binomial(trials, p), and its estimate eps_hat(k)
    inverts p at k/trials on the first fringe, so the estimator's mean and
    variance are sums over k.  They run over the counts with
    |k - trials p| <= sqrt(trials ln(2/TAIL) / 2), outside which lies at
    most TAIL of the mass (Hoeffding), with the pmf built by its ratio
    recurrence out of the mode, where every ratio is at most 1, and
    normalized over that window.  Reports them against the Cramer-Rao bound
    1/(trials * qfi) and their ratio `saturation`, at most 1 for an
    unbiased estimator (Braunstein & Caves 1994).  Where one count holds all
    of the window's mass to double precision, as near a fringe extremum,
    the estimate is `pinned` and biased.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bound = sensitivity_bound(alpha, n_modes)
    theta_per_eps = 2.0 * math.sqrt(n_modes)
    if not math.isfinite(alpha * theta_per_eps * epsilon):
        raise ValueError("the fringe phase 2 sqrt(N) alpha epsilon overflows")
    p = ruler_probability(alpha, theta_per_eps * epsilon)
    half = math.sqrt(trials * math.log(2.0 / TAIL) / 2.0)
    mode = min(math.floor((trials + 1) * p), trials)
    # pmf(k - 1) / pmf(k) below the mode and pmf(k + 1) / pmf(k) above it;
    # at p = 0 or 1 the side that would divide by 0 is empty
    down = np.arange(mode, max(0, math.ceil(trials * p - half)), -1)
    up = np.arange(mode, min(trials, math.floor(trials * p + half)))
    pmf = np.concatenate([np.cumprod(down * (1 - p) / ((trials + 1 - down) * p))[::-1], [1.0],
                          np.cumprod((trials - up) * p / ((up + 1) * (1 - p)))])
    pmf /= pmf.sum()
    k = np.arange(mode - len(down), mode + len(up) + 1)
    eps_hat = _ruler_theta(alpha, k / trials) / theta_per_eps
    # NumPy's own sums, not a BLAS dot, so the bytes do not depend on the BLAS kernel
    mean = float(np.sum(pmf * eps_hat))
    var = float(np.sum(pmf * (eps_hat - mean) ** 2))
    crb_var = 1.0 / (trials * bound.qfi)
    return replace(bound, estimate_mean=mean, estimate_var=var, crb_var=crb_var,
                   saturation=crb_var / var if var != 0 else math.inf,
                   pinned=bool(pmf.max() == 1.0))


# ---------------------------------------------------------------------------
# Ramsey phase estimation

def ramsey_probability(theta: float, n_systems: int, entangled: bool) -> float:
    """P(+|theta) for a Ramsey sequence: cos^2(theta) per system with the
    product strategy, cos^2(N theta) for the N-system entangled strategy
    (collective phase e^{+/- i N theta})."""
    if n_systems < 1:
        raise ValueError("n_systems must be >= 1")
    mult = n_systems if entangled else 1
    return float(math.cos(mult * theta) ** 2)


def ramsey_fisher(theta: float, n_systems: int, entangled: bool) -> float:
    """Total Fisher information p'^2 / [p (1-p)] of one N-system Ramsey run
    (Braunstein & Caves 1994).  Each shot of p = cos^2(k theta) carries
    exactly 4 k^2 off a fringe extremum: the entangled strategy is one shot
    with k = N (4 N^2), the product strategy N shots with k = 1 (4 N)."""
    p = ramsey_probability(theta, n_systems, entangled)
    if not 0.0 < p < 1.0:
        raise ValueError("Fisher information undefined at a fringe extremum")
    # 4 k^2 itself: near an extremum, 1 - p formed from p loses its digits
    return 4.0 * n_systems**2 if entangled else 4.0 * n_systems


# ---------------------------------------------------------------------------
# quantum ruler

def _halves(v: float | np.ndarray) -> tuple:
    """Veltkamp split v = hi + lo, exactly, into halves of at most 26
    significant bits, made on the mantissa so that no finite v overflows."""
    m, e = np.frexp(v)
    big = 134217729.0 * m  # 2^27 + 1
    hi = np.ldexp(big - (big - m), e)
    return hi, v - hi


def ruler_probability(alpha: float, theta: float | np.ndarray) -> float | np.ndarray:
    """Even-cat readout probability of the ruler probe at arm phase theta,
    elementwise over an array of theta (a scalar theta gives a scalar).

    The phase displaces the even cat of amplitude alpha by i theta/2
    before the normalized even/odd cat discrimination.  The two branch
    norms share a factor that cancels in their ratio; with c, s = cos, sin
    of alpha theta and o = e^{-2 alpha^2} it leaves
        p = (c + o)^2 (1 - o) / [(c + o)^2 (1 - o) + s^2 (1 + o)],
    cos^2(alpha theta) once o is negligible: fringes alpha times narrower
    than the classical cos^2(theta).  Refused only once 1 - o is 0, where
    the odd cat has zero norm.
    """
    one_minus_o = -math.expm1(-2.0 * alpha * alpha)
    if one_minus_o == 0.0:
        raise ZeroNormError(f"the odd cat at amplitude {alpha:.3g} has zero norm")
    theta = np.asarray(theta, dtype=float)
    # x = fl(alpha theta) is off by up to half an ulp, which alone moves p by
    # 7e-14 at alpha = 1e-3, where the fringe is steep: Dekker's product of
    # the halves gives the rounding error dx, which turns x/2 by dx/2
    x = alpha * theta
    (ah, al), (th, tl) = _halves(alpha), _halves(theta)
    dx = ((ah * th - x) + ah * tl + al * th) + al * tl
    half = np.exp(0.5j * x) * np.exp(0.5j * dx)  # e^{i alpha theta / 2}
    ch, sh = half.real, half.imag
    # c + o = 2 ch^2 - (1 - o) keeps its digits where c is near -1 and o near 1;
    # 1 + o = 2 - (1 - o)
    even = (2.0 * ch**2 - one_minus_o) ** 2 * one_minus_o
    return (even / (even + (2.0 * sh * ch) ** 2 * (2.0 - one_minus_o)))[()]


def _ruler_theta(alpha: float, p: float | np.ndarray) -> float | np.ndarray:
    """Arm phase theta in [0, arccos(-o)/alpha] at which the ruler reads p,
    the inverse of `ruler_probability` on its first, monotone fringe.  With
    u = sqrt(p (1 + o)), v = sqrt((1 - p)(1 - o)) and tan(psi) = v/u,
    c + o = s u/v is sin(x - psi) = o sin(psi) for x = alpha theta; its
    arcsin is an arctan2, exact at p = 1 and with no loss of digits where
    o sin(psi) nears 1 (small alpha, p near 0)."""
    o, one_minus_o = math.exp(-2.0 * alpha * alpha), -math.expm1(-2.0 * alpha * alpha)
    p = np.asarray(p, dtype=float)
    u, v = np.sqrt(p * (1.0 + o)), np.sqrt((1.0 - p) * one_minus_o)
    x = np.arctan2(v, u) + np.arctan2(o * v, np.sqrt(u**2 + one_minus_o * (1.0 + o) * v**2))
    return (x / alpha)[()]


def _peak_positions(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Local maxima refined by quadratic interpolation of three points."""
    left, mid, right = ys[:-2], ys[1:-1], ys[2:]
    i = np.flatnonzero((mid >= left) & (mid > right))
    # left <= mid > right makes the second difference negative, never 0
    denom = left[i] - 2 * mid[i] + right[i]
    shift = 0.5 * (left[i] - right[i]) / denom
    return xs[i + 1] + shift * (xs[i + 2] - xs[i + 1])


def quantum_ruler(
    alpha: float,
    wavelength: float,
    points: int = 2001,
) -> FringeScan:
    """Fringe scan of the cat-probe length ruler.

    Scans the arm phase theta over [0, 3.4 pi / alpha], converts to length
    via L = theta wavelength / (2 pi), and extracts the fringe spacing by
    peak finding.  The spacing is wavelength/(2 alpha): alpha times below
    the classical wavelength/2 stepping scale.
    """
    if alpha <= 0 or wavelength <= 0:
        raise ValueError("alpha and wavelength must be > 0")
    if points < 16:
        raise ValueError("points must be >= 16")
    theta_max = 3.4 * math.pi / alpha
    if not math.isfinite(theta_max):
        raise ValueError(f"scan range theta_max = {theta_max} is not finite at alpha = {alpha}")
    thetas = np.linspace(0.0, theta_max, points)
    probs = ruler_probability(alpha, thetas)
    peaks = _peak_positions(thetas, probs)
    if len(peaks) < 2:
        raise ValueError("fewer than 2 fringe peaks in the scan range")
    spacing_theta = float(np.mean(np.diff(peaks)))
    return FringeScan(
        theta=thetas,
        length=thetas * wavelength / (2 * math.pi),
        probability=probs,
        spacing_theta=spacing_theta,
        spacing_length=spacing_theta * wavelength / (2 * math.pi),
    )
