import itertools
import math

import numpy as np
import pytest

from catsim import fockoracle
from catsim.fockoracle import (
    fock_beamsplitter,
    fock_displace,
    fock_inner,
    fock_measure_number,
    fock_norm_squared,
    fock_phase,
    fock_quadrature_pdf,
    to_fock,
)
from catsim.states import CoherentSuperposition, cat, coherent, vacuum


def test_vacuum_is_unit_vector():
    v = to_fock(vacuum(), 10)
    assert v[0] == pytest.approx(1.0)
    assert np.sum(np.abs(v[1:])) == 0.0


def test_coherent_tail_mass():
    v = to_fock(coherent(2.0), 44)
    assert 1.0 - fock_norm_squared(v) < 1e-12


def test_even_cat_parity_structure():
    v = to_fock(cat(1.0, +1), 30)
    assert np.max(np.abs(v[1::2])) < 1e-16
    w = to_fock(cat(1.0, -1), 30)
    assert np.max(np.abs(w[0::2])) < 1e-16


def _distance(x, y):
    return math.sqrt(fock_norm_squared(x - y))


def test_phase_shifter_closed_form():
    theta = 0.7
    a = 1.2 + 0.4j
    out = fock_phase(to_fock(coherent(a), 40), 0, theta)
    ref = to_fock(coherent(a * np.exp(1j * theta)), 40)
    assert _distance(out, ref) <= 1e-12


def test_displacement_closed_form():
    a, beta = 1.1, 0.4 - 0.2j
    out = fock_displace(to_fock(coherent(a), 50), 0, beta)
    # D(beta)|a> = e^{(beta a^* - beta^* a)/2} |a + beta>
    phase = np.exp(0.5 * (beta * np.conj(a) - np.conj(beta) * a))
    ref = phase * to_fock(coherent(a + beta), 50)
    assert _distance(out, ref) <= 1e-12
    assert fock_norm_squared(out) == pytest.approx(1.0, abs=1e-10)


def test_beamsplitter_closed_form():
    g, b, theta = 1.0 + 0.3j, -0.5, 0.6
    out = fock_beamsplitter(to_fock(coherent(g, b), 30), 0, 1, theta)
    c, s = math.cos(theta), math.sin(theta)
    ref = to_fock(coherent(g * c + 1j * b * s, b * c + 1j * g * s), 30)
    assert _distance(out, ref) <= 1e-12
    assert fock_norm_squared(out) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        fock_beamsplitter(out, 0, 0, 0.1)


def test_number_statistics_poisson():
    v = to_fock(coherent(1.5), 40)
    stats = fock_measure_number(v, 0)
    n = np.arange(41)
    log_factorial = np.array([math.lgamma(k + 1) for k in n])
    poisson = np.exp(-1.5**2 + n * math.log(1.5**2) - log_factorial)
    assert np.max(np.abs(stats - poisson)) < 1e-12


def test_vacuum_quadrature_gaussian():
    xs = np.linspace(-4, 4, 81)
    pdf = fock_quadrature_pdf(to_fock(vacuum(), 20), 0, xs)
    ref = np.exp(-(xs**2)) / math.sqrt(math.pi)
    assert np.max(np.abs(pdf - ref)) < 1e-12


def test_inner_product_shape_mismatch():
    with pytest.raises(ValueError):
        fock_inner(to_fock(vacuum(), 5), to_fock(vacuum(), 6))


# ---------------------------------------------------------------------------
# dense references at small cutoffs, where truncation reaches every block


def _annihilation(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _random_vector(rng, d, modes):
    return rng.normal(size=(d,) * modes) + 1j * rng.normal(size=(d,) * modes)


def _dense_beamsplitter(data, mode_a, mode_b, theta):
    """exp[i theta G] with G = kron(a, a^dag) + kron(a^dag, a) on the full
    truncated two-mode space."""
    d = data.shape[mode_a]
    a = _annihilation(d)
    evals, evecs = np.linalg.eigh(np.kron(a, a.T) + np.kron(a.T, a))
    u = (evecs * np.exp(1j * theta * evals)) @ evecs.T
    x = np.moveaxis(data, (mode_a, mode_b), (0, 1))
    y = (u @ x.reshape(d * d, -1)).reshape(x.shape)
    return np.moveaxis(y, (0, 1), (mode_a, mode_b))


def test_beamsplitter_matches_dense_truncated_generator():
    rng = np.random.default_rng(5)
    # cutoffs interleaved, so a block cached under a wrong key is reused
    for d in (4, 6, 2, 5, 4, 3, 6, 1, 5):
        for modes, pair in ((2, (0, 1)), (2, (1, 0)), (3, (0, 2)), (3, (2, 0)), (3, (1, 2))):
            data = _random_vector(rng, d, modes)
            for theta in (0.37, -1.2, np.pi / 2, 2.9):
                out = fock_beamsplitter(data, *pair, theta)
                ref = _dense_beamsplitter(data, *pair, theta)
                assert np.max(np.abs(out - ref)) < 1e-13, (d, pair, theta)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("modes", [2, 3])
def test_beamsplitter_matches_dense_generator_on_every_mode_pair(d, modes):
    # a unit vector, so the distance is relative to the state's norm
    data = _random_vector(np.random.default_rng(10 * d + modes), d, modes)
    data /= math.sqrt(fock_norm_squared(data))
    for pair in itertools.permutations(range(modes), 2):
        for theta in (0.3, np.pi, -np.pi):
            out = fock_beamsplitter(data, *pair, theta)
            assert _distance(out, _dense_beamsplitter(data, *pair, theta)) <= 1e-13, (pair, theta)


def _fockoracle_caches():
    return {name: obj for name, obj in vars(fockoracle).items() if hasattr(obj, "__wrapped__")}


def test_every_fockoracle_cache_can_be_cleared():
    caches = _fockoracle_caches()
    assert set(caches) == {"_block_eigh", "_quadrature_eigh"}
    assert all(callable(cache.cache_clear) for cache in caches.values())


def test_cold_and_warm_beamsplitter_give_the_same_bytes():
    rng = np.random.default_rng(8)
    data = _random_vector(rng, 9, 3)
    for cache in _fockoracle_caches().values():
        cache.cache_clear()
    cold = fock_beamsplitter(data, 2, 0, 0.8)
    # other cutoffs share the lower blocks and add their own upper ones
    for d in (5, 12):
        fock_beamsplitter(_random_vector(rng, d, 2), 0, 1, -0.4)
    warm = fock_beamsplitter(data, 2, 0, 0.8)
    assert cold.tobytes() == warm.tobytes()


def test_byte_bounded_cache_evicts_the_least_recently_used():
    calls = []

    @fockoracle._lru_bytes(4 * 8)
    def zeros(n):
        calls.append(n)
        return (np.zeros(n),)

    zeros(1), zeros(2), zeros(1)
    zeros(3)  # 6 doubles: evicts 2, the least recently used
    zeros(1), zeros(2)  # 6 doubles again: evicts 3
    assert calls == [1, 2, 3, 2]
    assert zeros.cache_bytes() == 3 * 8
    zeros.cache_clear()
    assert zeros.cache_bytes() == 0
    zeros(1)
    assert calls == [1, 2, 3, 2, 1]


def test_sums_of_squares_match_abs_squared_on_every_axis():
    data = _random_vector(np.random.default_rng(9), 7, 3)
    ref = np.abs(data) ** 2
    assert fock_norm_squared(data) == pytest.approx(ref.sum(), rel=1e-14)
    assert fock_norm_squared(data[1, 2, 3]) == pytest.approx(ref[1, 2, 3], rel=1e-15)
    for mode in range(3):
        others = tuple(m for m in range(3) if m != mode)
        np.testing.assert_allclose(fock_measure_number(data, mode), ref.sum(axis=others), rtol=1e-14)


def test_displacement_matches_dense_truncated_generator():
    rng = np.random.default_rng(6)
    for d in (5, 3, 6, 5, 1):
        a = _annihilation(d)
        for beta in (0.7 + 0.4j, -0.5 + 1.1j, -0.9 - 0.3j, 0.2 - 1.3j, 0.0):
            h = -1j * (beta * a.T - np.conj(beta) * a)
            evals, evecs = np.linalg.eigh(h)
            u = (evecs * np.exp(1j * evals)) @ evecs.conj().T
            for modes, mode in ((1, 0), (3, 0), (3, 1), (3, 2)):
                data = _random_vector(rng, d, modes)
                out = fock_displace(data, mode, beta)
                ref = np.moveaxis(np.tensordot(u, data, axes=([1], [mode])), 0, mode)
                assert np.max(np.abs(out - ref)) < 1e-13, (d, beta, mode)


@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize("parity", [+1, -1])
def test_cat_amplitudes_of_the_other_parity_are_exactly_zero(modes, parity):
    a = 1.3 + 0.4j
    s = CoherentSuperposition([1.0, parity], [[a] * modes, [-a] * modes]).normalize()
    data = to_fock(s, 12)
    total = np.indices(data.shape).sum(axis=0)
    wrong = total % 2 == (0 if parity < 0 else 1)
    assert np.all(data[wrong] == 0.0)
    assert np.all(data[~wrong] != 0.0)


def _to_fock_per_term(s, n_max):
    """Reference: each term's outer product of per-mode recurrences, added
    one term at a time."""
    data = np.zeros((n_max + 1,) * s.modes, dtype=complex)
    for k in range(s.nterms):
        term = np.array(s.coeffs[k], dtype=complex)
        for m in range(s.modes):
            col = np.empty(n_max + 1, dtype=complex)
            col[0] = math.exp(-0.5 * abs(s.amps[k, m]) ** 2)
            for n in range(1, n_max + 1):
                col[n] = col[n - 1] * s.amps[k, m] / math.sqrt(n)
            term = np.multiply.outer(term, col)
        data = data + term
    return data


def test_to_fock_matches_per_term_reference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        amps = rng.uniform(0, 2.5, (k, m)) * np.exp(2j * np.pi * rng.uniform(size=(k, m)))
        s = CoherentSuperposition(rng.normal(size=k) + 1j * rng.normal(size=k), amps).normalize()
        n_max = int(rng.integers(0, 30))
        out = to_fock(s, n_max)
        assert out.shape == (n_max + 1,) * m
        assert np.max(np.abs(out - _to_fock_per_term(s, n_max))) < 1e-15
