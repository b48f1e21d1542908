import math
import warnings

import numpy as np
import pytest

from catsim import metrology
from catsim.fockoracle import to_fock
from catsim.measure import cat_projection, default_nmax
from catsim.optics import displace, nport_merge
from catsim.metrology import (
    _peak_positions,
    _ruler_theta,
    classical_snr,
    mean_photon_number,
    qfi_displacement,
    quantum_ruler,
    ramsey_fisher,
    ramsey_probability,
    ruler_probability,
    sensitivity_bound,
    weak_force_experiment,
)
from catsim.states import CoherentSuperposition, cat, coherent, fidelity, ghz_cat

import referee


def test_classical_reference():
    assert classical_snr(0.01) == pytest.approx(0.02)


def test_displaced_cat_small_epsilon():
    alpha, eps = 2.0, 0.01
    probe = displace(cat(alpha, +1), 0, 1j * eps).normalize()
    # stays close to the undisplaced cat at first order
    f = fidelity(probe, cat(alpha, +1))
    # infidelity ~ eps^2 Var(G) = eps^2 qfi/4 at leading order
    assert 1 - f <= 1.1 * eps**2 * qfi_displacement(cat(alpha, +1)) / 4
    assert f >= 1 - 2e-3
    # exact displaced amplitudes
    assert probe.amps[0, 0] == pytest.approx(alpha + 1j * eps)


def test_qfi_coherent_state():
    # any coherent state has Var(a + a^dag) = 1 -> qfi = 4
    for a in (0.0, 1.3, 2.0 - 0.7j):
        assert qfi_displacement(coherent(a)) == pytest.approx(4.0, abs=1e-12)


def test_qfi_matches_fock_oracle():
    alpha = 1.8
    s = cat(alpha, +1)
    got = qfi_displacement(s)
    # oracle: 4 Var(G), G = a + a^dag, in a truncated number basis
    nmax = 60
    v = to_fock(s, nmax).ravel()
    n = np.arange(nmax + 1)
    a_mat = np.zeros((nmax + 1, nmax + 1))
    a_mat[n[:-1], n[1:]] = np.sqrt(n[1:])
    g = a_mat + a_mat.T
    mean = np.real(v.conj() @ (g @ v))
    mean2 = np.real(v.conj() @ (g @ (g @ v)))
    assert got == pytest.approx(4 * (mean2 - mean**2), abs=1e-10)
    # closed form for the even cat: 4 (1 + 4 alpha^2 / (1 + e^{-2 a^2}))
    # dominated by 4(1 + 4 alpha^2) at large alpha
    assert got == pytest.approx(4 * (1 + 4 * alpha**2), rel=5e-3)


def _on_mode(op: np.ndarray, v: np.ndarray, mode: int) -> np.ndarray:
    """A d x d operator acting on axis `mode` of a number-basis tensor."""
    return np.moveaxis(np.tensordot(op, v, axes=([1], [mode])), 0, mode)


def test_multimode_moments_match_fock_oracle_on_random_states():
    # oracle: 4 Var(sum_m (a_m + a_m^dag)) and <sum_m a_m^dag a_m> on the
    # number-basis vector of seeded random states (K <= 6, M <= 2, |a| <= 1.5)
    rng = np.random.default_rng(20261018)
    nmax = default_nmax(1.5)
    n = np.arange(nmax + 1)
    a_mat = np.zeros((nmax + 1, nmax + 1))
    a_mat[n[:-1], n[1:]] = np.sqrt(n[1:])
    for _ in range(40):
        k, m = rng.integers(1, 7), rng.integers(1, 3)
        amps = 1.5 * np.sqrt(rng.random((k, m))) * np.exp(2j * np.pi * rng.random((k, m)))
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        s = CoherentSuperposition(coeffs, amps)
        v = to_fock(s, nmax)
        norm2 = np.vdot(v, v).real
        gv = sum(_on_mode(a_mat + a_mat.T, v, j) for j in range(m))
        mean_g = np.vdot(v, gv).real / norm2
        mean_g2 = np.vdot(gv, gv).real / norm2
        assert qfi_displacement(s) == pytest.approx(4 * (mean_g2 - mean_g**2), rel=1e-9)
        mean_n = sum(np.linalg.norm(_on_mode(a_mat, v, j)) ** 2 for j in range(m)) / norm2
        assert mean_photon_number(s) == pytest.approx(mean_n, rel=1e-9)


def test_multimode_scaling_exact():
    alpha = 4.0
    base = sensitivity_bound(alpha, 1)
    for n in (1, 2, 4, 9, 16):
        rep = sensitivity_bound(alpha, n)
        # exact sqrt(N) improvement at fixed total amplitude alpha
        assert rep.epsilon_min * math.sqrt(n) == pytest.approx(
            base.epsilon_min, rel=1e-12
        )
        # the probe's exact <n> and 4 Var(G) = 4 N (1 + 2 alpha^2 + 2 n_tot)
        n_tot = alpha**2 * math.tanh(alpha**2)
        assert rep.n_tot == pytest.approx(n_tot, rel=1e-12)
        assert rep.qfi == pytest.approx(4 * n * (1 + 2 * alpha**2 + 2 * n_tot), rel=1e-12)
        assert rep.epsilon_min == 1 / math.sqrt(rep.qfi)
    assert qfi_displacement(ghz_cat(alpha, 4)) == sensitivity_bound(alpha, 4).qfi
    with pytest.raises(ValueError):
        sensitivity_bound(2.0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_probe_photon_number_matches_mpmath(n):
    ctx = referee.ctx()
    for alpha in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 2.0, 4.0, 16.0):
        sq = ctx.mpf(alpha) ** 2
        exact = sq * ctx.tanh(sq)
        rep = sensitivity_bound(alpha, n)
        assert abs(rep.n_tot / exact - 1) <= 1e-15
        # 4 Var(G) = 4 N (1 + 2 alpha^2 + 2 n_tot)
        assert abs(rep.qfi / (4 * n * (1 + 2 * sq + 2 * exact)) - 1) <= 1e-15, alpha


def test_mean_photon_number_even_cat():
    # <n> = alpha^2 tanh(alpha^2) for the even cat
    for a in (0.8, 1.5, 2.5):
        assert mean_photon_number(cat(a, +1)) == pytest.approx(
            a**2 * math.tanh(a**2), rel=1e-12
        )
    assert mean_photon_number(coherent(1.7)) == pytest.approx(1.7**2, rel=1e-12)


def test_ruler_probability_is_the_exact_weak_force_chain():
    # the unsnapped chain: probe, D(i eps) on every mode, merge, cat projection
    for alpha in (1.0, 1.5, 2.0, 3.0):
        for n in (1, 2, 4, 9):
            for eps in (0.0, 0.013, 0.05, -0.11, 0.3):
                probe = ghz_cat(alpha, n)
                for m in range(n):
                    probe = displace(probe, m, 1j * eps)
                merged = nport_merge(probe, list(range(n)))
                p_even, p_odd = (
                    cat_projection(merged, 0, alpha, parity).probability for parity in (+1, -1)
                )
                assert ruler_probability(alpha, 2 * math.sqrt(n) * eps) == pytest.approx(
                    p_even / (p_even + p_odd), abs=1e-14
                ), (alpha, n, eps)
    # the readout phase is 2 sqrt(N) alpha eps: merge phase and residual displacement
    p_exact = ruler_probability(2.0, 2 * math.sqrt(4) * 0.02)
    assert p_exact == pytest.approx(math.cos(2 * math.sqrt(4) * 2.0 * 0.02) ** 2, abs=1e-3)


def test_weak_force_experiment_unbiased_and_saturating():
    alpha, n = 2.0, 1
    eps = math.pi / (8 * math.sqrt(n) * alpha)  # mid-fringe operating point
    rep = weak_force_experiment(alpha, n, eps, trials=10_000)
    assert rep.estimate_mean == pytest.approx(eps, rel=1e-6)
    assert rep.crb_var == 1 / (10_000 * rep.qfi)
    assert 0.9 <= rep.saturation <= 1  # cannot beat the Cramer-Rao bound of 4 Var(G)
    assert not rep.pinned
    with pytest.raises(ValueError):
        weak_force_experiment(alpha, n, eps, trials=0)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
def test_weak_force_moments_match_the_full_support_sum_in_mpmath(alpha):
    # the estimator's moments summed over every count 0..trials at 50 digits,
    # on the same p and the same estimates eps_hat(k); a log-pmf built from
    # math.lgamma is off by about 1.1e-11 of the mass at 10^4 trials and fails
    ctx = referee.ctx()
    for n in (1, 3):
        eps = math.pi / (8 * math.sqrt(n) * alpha)
        p = ctx.mpf(float(ruler_probability(alpha, 2 * math.sqrt(n) * eps)))
        for trials in (1, 2, 100, 10_000):
            rep = weak_force_experiment(alpha, n, eps, trials)
            k = np.arange(trials + 1)
            eps_hat = [ctx.mpf(e) for e in _ruler_theta(alpha, k / trials) / (2 * math.sqrt(n))]
            pmf = [(1 - p) ** trials]
            for j in range(trials):  # pmf(j + 1) / pmf(j) = (trials - j) p / ((j + 1)(1 - p))
                pmf.append(pmf[-1] * (trials - j) * p / ((j + 1) * (1 - p)))
            mean = ctx.fdot(pmf, eps_hat)
            var = ctx.fdot(pmf, [(e - mean) ** 2 for e in eps_hat])
            assert abs(rep.estimate_mean / mean - 1) <= 1e-14, (n, trials)
            assert abs(rep.estimate_var / var - 1) <= 1e-14, (n, trials)


@pytest.mark.parametrize("alpha, n", [(2.0, 1), (3.0, 2), (1.0, 3)])
def test_weak_force_moments_match_sampled_batches(alpha, n):
    # B batches of the estimator, drawn as weak-force once drew them: sample
    # mean and variance within 5 standard errors of the exact moments
    trials, batches = 10_000, 100_000
    eps = math.pi / (8 * math.sqrt(n) * alpha)
    rep = weak_force_experiment(alpha, n, eps, trials)
    k = np.random.default_rng(20240817).binomial(
        trials, ruler_probability(alpha, 2 * math.sqrt(n) * eps), size=batches)
    eps_hat = _ruler_theta(alpha, k / trials) / (2 * math.sqrt(n))
    assert abs(np.mean(eps_hat) - rep.estimate_mean) <= 5 * math.sqrt(rep.estimate_var / batches)
    assert abs(np.var(eps_hat, ddof=1) - rep.estimate_var) <= \
        5 * rep.estimate_var * math.sqrt(2 / (batches - 1))


def test_weak_force_pinned_at_the_fringe_extrema_without_warnings():
    # p = 1 at eps = 0 and p = 0 on the dark fringe arccos(-e^{-2 alpha^2}) / (2 alpha):
    # every shot gives one count, and the recurrence divides by no 0
    dark = math.acos(-math.exp(-8.0)) / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, p in ((0.0, 1.0), (dark, 0.0)):
            assert ruler_probability(2.0, 2 * eps) == p
            for trials in (1, 2, 10_000, 10_000_000):
                rep = weak_force_experiment(2.0, 1, eps, trials)
                assert rep.pinned and rep.estimate_var == 0 and rep.saturation == math.inf
                assert rep.estimate_mean == pytest.approx(eps, rel=1e-15)


def test_ramsey_probabilities():
    assert ramsey_probability(0.3, 5, entangled=True) == pytest.approx(
        math.cos(1.5) ** 2
    )
    assert ramsey_probability(0.3, 5, entangled=False) == pytest.approx(
        math.cos(0.3) ** 2
    )
    with pytest.raises(ValueError):
        ramsey_probability(0.3, 0, True)


def test_ramsey_fisher_is_exact_across_theta(monkeypatch):
    # p = cos^2(k theta) carries p'^2 / [p (1-p)] = 4 k^2 at every theta off
    # an extremum; 1e-6 from an extremum, 1 - p formed from p = 1 - 1e-12
    # would be off by about 1e-4 relative
    for theta in (0.37, 1e-6, math.pi / 2 - 1e-6, 1e6):
        for n in range(1, 11):
            ent = ramsey_fisher(theta, n, entangled=True)
            prod = ramsey_fisher(theta, n, entangled=False)
            assert ent == pytest.approx(4 * n**2, rel=1e-12, abs=0)
            assert prod == pytest.approx(4 * n, rel=1e-12, abs=0)
    for theta in (0.0, math.pi):  # p = 1
        with pytest.raises(ValueError):
            ramsey_fisher(theta, 3, entangled=True)
    # no float theta makes cos^2 exactly 0, so p = 0 is reached by a stand-in
    monkeypatch.setattr(metrology, "ramsey_probability", lambda *args: 0.0)
    with pytest.raises(ValueError):
        ramsey_fisher(0.37, 3, entangled=False)


def test_ramsey_fisher_ratio():
    theta = 0.37
    for n in range(1, 11):
        ent = ramsey_fisher(theta, n, entangled=True)
        prod = ramsey_fisher(theta, n, entangled=False)
        assert ent == pytest.approx(4 * n**2, rel=1e-7)
        assert prod == pytest.approx(4 * n, rel=1e-7)
        assert ent / prod == pytest.approx(n, rel=1e-6)


def test_ruler_probability_fringes():
    alpha = 6.0
    for theta in (0.0, 0.1, 0.25):
        assert ruler_probability(alpha, theta) == pytest.approx(
            math.cos(alpha * theta) ** 2, abs=1e-8
        )


def test_ruler_probability_and_its_inverse_match_mpmath():
    # the ruler chain's Gram form, even cat |a> + |-a> displaced by i theta/2
    # and read out against the normalized even and odd cats, at 50 digits and
    # the exact product alpha theta, over whole scans down to alpha = 1e-4,
    # where the branch norms underflow and the odd norm cancels in floats
    ctx = referee.ctx()

    def readout(alpha, theta):
        a, beta = ctx.mpf(alpha), ctx.mpc(0, ctx.mpf(theta) / 2)
        # per term t: its displacement phase times <+a|t + beta> and <-a|t + beta>
        terms = [(ctx.exp((beta * t - ctx.conj(beta) * t) / 2), referee.overlap([a], [t + beta]),
                  referee.overlap([-a], [t + beta])) for t in (a, -a)]
        even, odd = (abs(sum(ph * (plus + parity * minus) for ph, plus, minus in terms)) ** 2
                     / (2 + 2 * parity * ctx.exp(-2 * a * a)) for parity in (1, -1))
        return even / (even + odd)

    def phase(alpha, p):  # alpha theta on the first fringe: c + o = t s, in arccos form
        a, p = ctx.mpf(alpha), ctx.mpf(p)
        o = ctx.exp(-2 * a * a)
        if p == 1:
            return ctx.mpf(0)
        t = ctx.sqrt(p * (1 + o) / ((1 - p) * (1 - o)))
        return ctx.acos(-o / ctx.sqrt(1 + t * t)) - ctx.atan(t)

    for alpha in (1e-4, 1e-3, 0.0123, 0.083, 0.37, 2.0, 16.0):
        thetas = np.linspace(0.0, 3.4 * math.pi / alpha, 201)
        want = [float(readout(alpha, t)) for t in thetas]
        assert np.max(np.abs(ruler_probability(alpha, thetas) - want)) <= 1e-15, alpha
        ps = np.linspace(0.0, 1.0, 41)
        x = [float(phase(alpha, p)) for p in ps]
        assert np.max(np.abs(alpha * _ruler_theta(alpha, ps) - x)) <= 2e-15, alpha
        assert _ruler_theta(alpha, 1.0) == 0.0


def _peak_positions_reference(xs, ys):
    """Per-point loop: local maxima refined by three-point quadratic interpolation."""
    peaks = []
    for i in range(1, len(xs) - 1):
        if ys[i] >= ys[i - 1] and ys[i] > ys[i + 1]:
            denom = ys[i - 1] - 2 * ys[i] + ys[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (ys[i - 1] - ys[i + 1]) / denom
            peaks.append(float(xs[i] + shift * (xs[i + 1] - xs[i])))
    return peaks


def test_peak_positions_bit_identical_to_loop_reference():
    cases = [(alpha, points) for alpha in (1.0, 2.0, 6.0) for points in (16, 101, 2001)]
    for alpha, points in cases:
        xs = np.linspace(0.0, 3.4 * math.pi / alpha, points)
        ys = ruler_probability(alpha, xs)
        assert _peak_positions(xs, ys).tolist() == _peak_positions_reference(xs, ys)
    # a tie on the left counts as a peak, a tie on the right does not
    xs = np.arange(7.0)
    ys = np.array([0.0, 1.0, 1.0, 0.5, 2.0, 2.0, 1.0])
    assert _peak_positions(xs, ys).tolist() == _peak_positions_reference(xs, ys) == [1.5, 4.5]


def test_quantum_ruler_spacing():
    lam = 10.0  # micrometres
    for alpha in (4.0, 6.0, 8.0, 10.0):
        scan = quantum_ruler(alpha, lam)
        assert scan.spacing_theta * alpha == pytest.approx(math.pi, rel=1e-4)
        assert scan.spacing_length == pytest.approx(lam / (2 * alpha), rel=1e-4)
    # classical-scale reference: alpha = 1 steps at half a wavelength
    assert quantum_ruler(1.0, lam).spacing_length == pytest.approx(5.0, rel=1e-4)
    with pytest.raises(ValueError):
        quantum_ruler(-1.0, lam)
    with pytest.raises(ValueError):
        quantum_ruler(4.0, lam, points=4)
