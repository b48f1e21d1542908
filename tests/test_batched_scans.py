"""The array forms of the photon-counting, homodyne and ruler scans agree
with their scalar forms and with the per-point reference loops."""

import cmath
import math

import numpy as np
import pytest

from catsim import optics
from catsim.measure import (
    _quadrature_overlap,
    cat_projection,
    fock_amplitude,
    homodyne_pdf,
    photon_statistics,
    project_photon_number,
)
from catsim.metrology import ruler_probability
from catsim.states import CoherentSuperposition, cat

RTOL, ATOL = 1e-12, 1e-15


def _random_states(seed, count=12):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        amps = rng.uniform(-2, 2, size=(k, m)) + 1j * rng.uniform(-2, 2, size=(k, m))
        yield CoherentSuperposition(coeffs, amps).normalize()


def _rest(s, modes, weights):
    """Reference branch: the unnormalized state on the modes not in `modes`,
    coefficients multiplied by per-term contraction weights."""
    return CoherentSuperposition(s.coeffs * weights, np.delete(s.amps, modes, axis=1))


def test_homodyne_pdf_array_matches_scalar_and_loop():
    xs = np.linspace(-6.0, 6.0, 61)
    for s in _random_states(11):
        for mode in range(s.modes):
            batched = homodyne_pdf(s, mode, xs)
            scalar = np.array([homodyne_pdf(s, mode, x) for x in xs])
            loop = np.array([
                max(_rest(s, [mode], np.array(
                    [_quadrature_overlap(x, a) for a in s.amps[:, mode]]
                )).norm_squared(), 0.0)
                for x in xs
            ])
            assert batched.shape == xs.shape
            np.testing.assert_allclose(batched, scalar, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(batched, loop, rtol=RTOL, atol=ATOL)
            grid = homodyne_pdf(s, mode, xs.reshape(61, 1))
            assert grid.shape == (61, 1)
            np.testing.assert_allclose(grid[:, 0], batched, rtol=RTOL, atol=ATOL)


def test_photon_statistics_matches_per_n_projection():
    for s in _random_states(12):
        for mode in range(s.modes):
            stats = photon_statistics(s, mode, 30)
            per_n = [project_photon_number(s, mode, n).probability for n in range(31)]
            np.testing.assert_allclose(stats, per_n, rtol=RTOL, atol=ATOL)


def test_ruler_probability_array_matches_scalar_and_displaced_cat():
    rng = np.random.default_rng(13)
    for alpha in (1.0, 2.5, 6.0, 10.0):
        thetas = rng.uniform(0.0, 3.4 * math.pi / alpha, size=25)
        batched = ruler_probability(alpha, thetas)
        scalar = [ruler_probability(alpha, t) for t in thetas]
        reference = []
        for t in thetas:
            probe = optics.displace(cat(alpha, +1), 0, 0.5j * t)
            p_even = cat_projection(probe, 0, alpha, +1).probability
            p_odd = cat_projection(probe, 0, alpha, -1).probability
            reference.append(p_even / (p_even + p_odd))
        np.testing.assert_allclose(batched, scalar, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(batched, reference, rtol=RTOL, atol=ATOL)


def test_fock_amplitude_array_matches_closed_form():
    n = np.arange(41)
    alphas = np.array([0.0, 1.7, -1.7, 0.8 * cmath.exp(0.4j), -2.3j, 3.1 - 0.6j])
    table = fock_amplitude(n[:, None], alphas)
    assert table.shape == (41, len(alphas))
    for i, k in enumerate(n):
        for j, a in enumerate(alphas):
            a = complex(a)
            ref = cmath.exp(-0.5 * abs(a) ** 2) * a ** int(k) / math.sqrt(math.factorial(k))
            assert table[i, j] == pytest.approx(ref, rel=RTOL, abs=ATOL)
    assert table[0, 0] == 1.0
    assert np.all(table[1:, 0] == 0.0)
    with pytest.raises(ValueError):
        fock_amplitude(np.array([0, -1]), 1.0)


def test_scalar_arguments_return_scalars():
    s = cat(2.0, -1)
    amp = fock_amplitude(3, 1.2 - 0.3j)
    pdf = homodyne_pdf(s, 0, 0.4)
    prob = ruler_probability(4.0, 0.1)
    for value, kind in ((amp, complex), (pdf, float), (prob, float)):
        assert np.isscalar(value)
        assert isinstance(value, kind)
