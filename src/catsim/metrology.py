"""Weak-force sensing, Ramsey phase estimation and quantum-ruler fringes
for coherent-superposition probes, with closed-form sensitivity bounds and
Monte Carlo maximum-likelihood estimation.

Conventions:
- A weak force acting for a fixed time displaces every probe mode by
  D(i eps); the Hermitian generator of that displacement is
  G = sum_m (a_m + a_m^dag).
- `qfi_displacement` returns the standard quantum Fisher information
  4 Var(G).  The cat-probe reports hold Var(G) in their `qfi` field, and
  eps_min = 1/sqrt(Var G): a single cat gives eps_min ~ 1/(2 sqrt(nbar))
  and the N-mode entangled probe eps_min = 1/sqrt(N [1 + 4 n_tot]).
- The weak-force readout snaps the recombined amplitudes back to
  +/- alpha.  The exact chain's readout is the ruler's:
  ruler_probability(alpha, 2 sqrt(N) eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import measure, optics
from .optics import _displacement_phases
from .states import CoherentSuperposition, _gram_forms, cat, ghz_cat

__all__ = [
    "SensitivityReport",
    "FringeScan",
    "classical_snr",
    "mean_photon_number",
    "qfi_displacement",
    "sensitivity_bound",
    "weak_force_readout_probability",
    "weak_force_experiment",
    "ruler_probability",
    "ramsey_probability",
    "ramsey_fisher",
    "quantum_ruler",
]


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity of one N-mode entangled cat probe.

    `qfi` is the generator variance Var(G) of the probe, while
    `qfi_displacement` returns the standard 4 Var(G); `epsilon_min` is
    1/sqrt(qfi).
    """

    n_tot: float
    qfi: float
    epsilon_min: float
    estimate_mean: float = float("nan")
    estimate_var: float = float("nan")
    crb_var: float = float("nan")
    saturation: float = float("nan")


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
    """Closed-form bound for the N-mode entangled cat probe at fixed total
    mean photon number n_tot = alpha^2 (per-mode amplitude alpha/sqrt(N))."""
    probe = ghz_cat(alpha, n_modes)
    info = qfi_displacement(probe) / 4.0
    return SensitivityReport(
        n_tot=float(alpha) ** 2,
        qfi=info,
        epsilon_min=1.0 / math.sqrt(info),
    )


def weak_force_readout_probability(alpha: float, n_modes: int, epsilon: float) -> float:
    """Probability of the even-cat readout after the sensing chain: N-mode
    entangled probe, D(i eps) on every mode, recombination into a single
    mode, then even/odd cat discrimination (normalized binary).

    The small residual displacement i eps sqrt(N) of the recombined
    amplitudes is dropped while the exact accumulated phases
    e^{+/- i sqrt(N) alpha eps} are kept, so the readout is
    cos^2(sqrt(N) alpha eps) up to exponentially small nonorthogonality
    terms.  On the exact recombined state the residual displacement
    contributes a second phase of the same size: that chain is a cat of
    amplitude alpha displaced by i sqrt(N) eps, whose readout is
    `ruler_probability(alpha, 2 sqrt(N) eps)`.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon = {epsilon} is not finite")
    probe = ghz_cat(alpha, n_modes)
    for m in range(n_modes):
        probe = optics.displace(probe, m, 1j * epsilon)
    merged = optics.nport_merge(probe, list(range(n_modes)))
    snapped = measure._nearest_signs(merged.amps, alpha) * alpha
    merged = CoherentSuperposition(merged.coeffs, snapped)
    a = merged.amps[:, 0]
    weights = np.array([measure._cat_weights(alpha, parity, a) for parity in (+1, -1)])
    p_even, p_odd = measure._branch_norms(merged, [0], weights)
    return float(p_even / (p_even + p_odd))


def weak_force_experiment(
    alpha: float,
    n_modes: int,
    epsilon: float,
    trials: int,
    rng: np.random.Generator,
    batches: int = 2000,
) -> SensitivityReport:
    """Monte Carlo maximum-likelihood estimation of a weak displacement.

    Runs `batches` independent experiments of `trials` binary readout
    shots each; each batch yields the ML estimate
    eps_hat = arccos(sqrt(k/trials)) / (sqrt(N) alpha).  Reports the
    estimator mean and variance against the Cramer-Rao bound
    1/(trials * qfi) and their ratio `saturation`, at most 1 for an
    unbiased estimator.  Near a fringe extremum every batch can give the
    same, biased, estimate: the variance is then 0 and `saturation` inf.
    """
    if trials < 1 or batches < 1:
        raise ValueError("trials and batches must be >= 1")
    bound = sensitivity_bound(alpha, n_modes)
    p = weak_force_readout_probability(alpha, n_modes, epsilon)
    k = rng.binomial(trials, p, size=batches)
    eps_hat = np.arccos(np.sqrt(k / trials)) / (math.sqrt(n_modes) * alpha)
    crb_var = 1.0 / (trials * bound.qfi)
    # one batch leaves the variance, and so the saturation, undefined
    est_var = float(np.var(eps_hat, ddof=1)) if batches > 1 else float("nan")
    saturation = crb_var / est_var if est_var != 0 else float("inf")
    return replace(
        bound,
        estimate_mean=float(np.mean(eps_hat)),
        estimate_var=est_var,
        crb_var=crb_var,
        saturation=float(saturation),
    )


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

def ruler_probability(alpha: float, theta: float | np.ndarray) -> float | np.ndarray:
    """Even-cat readout probability of the ruler probe at arm phase theta,
    elementwise over an array of theta (a scalar theta gives a scalar).

    The phase enters the balanced interferometer as a displacement i theta/2
    of the cat probe; the normalized even/odd discrimination then reads
    cos^2(alpha theta), fringes alpha times narrower than the classical
    cos^2(theta) pattern.
    """
    probe = cat(alpha, +1)
    a = probe.amps[:, 0]
    beta = 0.5j * np.asarray(theta, dtype=float)[..., None]
    # the displacement acts on the bra: each term's weight is its
    # displacement phase times the cat weight at the shifted amplitude
    phases = _displacement_phases(beta, a)
    weights = [phases * measure._cat_weights(alpha, parity, a + beta) for parity in (+1, -1)]
    p_even, p_odd = measure._branch_norms(probe, [0], np.stack(weights))
    return (p_even / (p_even + p_odd))[()]


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
    with np.errstate(invalid="ignore"):
        probs = ruler_probability(alpha, thetas)
    if not np.all(np.isfinite(probs)):
        # both branch norms underflow to 0 far out on the scan at small alpha
        raise ValueError(f"ruler probability is not finite in the scan at alpha = {alpha}")
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
