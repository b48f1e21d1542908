import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catsim import audit, fockoracle
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

import referee


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
# dense references at small cutoffs, where the corner n_a + n_b >= d is a
# large share of the grid


def _annihilation(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _random_vector(rng, d, modes):
    return rng.normal(size=(d,) * modes) + 1j * rng.normal(size=(d,) * modes)


def _kept(d):
    """The (d, d) grid of (n_a, n_b) with n_a + n_b < d."""
    return np.add.outer(np.arange(d), np.arange(d)) < d


def _dense_beamsplitter(data, mode_a, mode_b, theta):
    """exp[i theta G] with G = kron(a, a^dag) + kron(a^dag, a) on the full
    truncated two-mode space, projected onto n_a + n_b < d.  G is block
    diagonal in N = n_a + n_b and its blocks N < d are untruncated, so
    there it is the exact beam splitter."""
    d = data.shape[mode_a]
    a = _annihilation(d)
    evals, evecs = np.linalg.eigh(np.kron(a, a.T) + np.kron(a.T, a))
    kept = _kept(d).ravel()
    u = (evecs * np.exp(1j * theta * evals)) @ evecs.T * np.outer(kept, kept)
    x = np.moveaxis(data, (mode_a, mode_b), (0, 1))
    y = (u @ x.reshape(d * d, -1)).reshape(x.shape)
    return np.moveaxis(y, (0, 1), (mode_a, mode_b))


def _corner(data, mode_a, mode_b):
    d = data.shape[mode_a]
    return np.moveaxis(data, (mode_a, mode_b), (0, 1))[~_kept(d)]


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
                assert np.all(_corner(out, *pair) == 0), (d, pair, theta)


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
            assert np.all(_corner(out, *pair) == 0), (pair, theta)


def test_beamsplitter_refuses_modes_of_unequal_cutoff():
    data = _random_vector(np.random.default_rng(11), 2, 3)
    wide = np.concatenate([data, data], axis=1)  # (2, 4, 2)
    for pair in ((0, 1), (1, 0), (1, 2), (2, 1)):
        with pytest.raises(ValueError, match="cutoff"):
            fock_beamsplitter(wide, *pair, 0.4)
    assert fock_beamsplitter(wide, 0, 2, 0.4).shape == wide.shape


def test_every_block_spectrum_is_that_of_2_jx_on_spin_n_over_2():
    # a b^dag + a^dag b on the whole block of N is 2 J_x on spin N/2, so its
    # eigenvalues are -N, -N + 2, ..., N; a truncated block has others
    for total in range(1, 111):
        evals, evecs = fockoracle._block_eigh(total)
        assert evecs.shape == (total + 1, total + 1)
        np.testing.assert_allclose(evals, np.arange(-total, total + 1, 2), rtol=0, atol=1e-12)


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
                # the array and a strided view of it with its axes reversed
                for v in (data, data.T):
                    out = fock_displace(v, mode, beta)
                    ref = np.moveaxis(np.tensordot(u, v, axes=([1], [mode])), 0, mode)
                    assert out.shape == v.shape and np.max(np.abs(out - ref)) < 1e-13, (d, beta, mode)


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
    # a state of no mode is the sum of its coefficients, of shape ()
    s = CoherentSuperposition(np.array([0.5, -0.25j, 2.0 + 1.0j]), np.zeros((3, 0)))
    out = to_fock(s, 4)
    assert np.shape(out) == () and out == sum(s.coeffs.tolist())


def test_inner_matches_vdot_to_round_off():
    rng = np.random.default_rng(12)
    u = 2.0**-53
    for shape in ((), (1,), (9,), (5, 7), (4, 3, 6), (11, 11, 11)):
        x, y = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        # each part is a fixed-order sum of 2 N real products on either side,
        # within gamma_2N sum |x_i| |y_i| of the exact sum
        n = 2 * x.size
        bound = 2 * n * u / (1 - n * u) * np.sum(np.abs(x) * np.abs(y))
        got, ref = fock_inner(x, y), np.vdot(x, y)
        assert abs(got.real - ref.real) <= bound and abs(got.imag - ref.imag) <= bound, shape
    x = rng.normal(size=(4, 6)) + 0j
    for other in (x.reshape(6, 4), x.reshape(24), x[None]):
        with pytest.raises(ValueError, match="shape"):
            fock_inner(x, other)


def _steep_states(count, seed):
    """Cancelling superpositions: K = 2..6 terms within a spread (log-uniform
    1e-4 to 1e-1) of a random centre of at most 3 on M = 1 or 2 modes, with
    coefficients in the null space of the first r = 1..K-1 moment rows
    sum c, sum c d, ... of the terms' offsets d from the centre."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, k = int(rng.integers(1, 3)), int(rng.integers(2, 7))
        r = int(rng.integers(1, k))
        spread = 10 ** rng.uniform(-4, -1)
        centre = rng.uniform(0, 3, m) * np.exp(2j * np.pi * rng.uniform(size=m))
        offsets = spread * (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
        # the monomials d_0^a d_1^b in order of degree a + b
        powers = [p for j in range(k) for p in ([(j,)] if m == 1 else [(a, j - a) for a in range(j + 1)])]
        moments = np.array([np.prod(offsets ** np.array(p), axis=1) for p in powers[:r]])
        null = np.linalg.svd(moments)[2][r:].conj().T
        yield null @ (rng.normal(size=k - r) + 1j * rng.normal(size=k - r)), centre + offsets


def test_span_matches_a_50_digit_referee_on_cancelling_states():
    # the spanned columns of Householder QR are the exact coordinates of
    # columns a + da with ||da|| <= g ||a||, g = gamma~_{dG} (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2nd ed., Thm 19.4), its small
    # constant c taken as 16 for complex arithmetic.  With S = sum_g |c_g|
    # prod_m ||a_gm||, that moves the tensor T by at most ((1 + g)^M - 1) S,
    # and its assembly, M complex products and G - 1 sums an entry, by at
    # most sqrt(2) gamma_{2M+G} (1 + g)^M S; ||T||^2 then sums 2 G^M squares.
    # R read from a Cholesky factor of the Gram matrix A^H A fails here: it
    # loses digits as the Gram form does, u (S / ||T||)^2 rather than
    # u S / ||T||, or A^H A does not factor at all
    ctx = referee.ctx()
    u = 2.0**-53

    def gamma(k, c=1):
        return c * k * u / (1 - c * k * u)

    for i, (coeffs, amps) in enumerate(_steep_states(40, 0)):
        cols = fockoracle._coherent_columns(amps, audit._nmax(float(np.max(np.abs(amps)))))
        g, m, d = cols.shape
        got = fock_norm_squared(fockoracle._assemble(coeffs, fockoracle._span(cols)))
        # the referee: sum_jk conj(c_j) c_k prod_m <a_jm|a_km> of the same columns
        a = [[[ctx.mpc(x) for x in col] for col in group] for group in cols]
        fock_gram = [[ctx.fprod(ctx.fdot(ak, aj, conjugate=True) for ak, aj in zip(k_cols, j_cols))
                      for k_cols in a] for j_cols in a]
        exact = referee.form(coeffs, fock_gram).real
        norm = float(ctx.sqrt(exact))
        size = float(np.sum(np.abs(coeffs) * np.prod(np.linalg.norm(cols, axis=2), axis=1)))
        moved = (1 + gamma(d * g, 16)) ** m
        delta = (moved - 1 + math.sqrt(2) * gamma(2 * m + g) * moved) * size
        bound = delta * (2 * norm + delta) + gamma(2 * g**m) * (norm + delta) ** 2
        assert abs(got - exact) <= bound, (i, float(abs(got - exact) / exact), bound / norm**2)


def test_span_gives_the_same_bytes_under_one_and_two_blas_threads():
    # the largest audit shape: 16 groups at the beam splitter's 110 levels
    script = (
        "import numpy as np\n"
        "from catsim import fockoracle as fo\n"
        "rng = np.random.default_rng(4)\n"
        "amps = rng.uniform(0, 4 * 2 ** 0.5, (16, 2)) * np.exp(2j * np.pi * rng.uniform(size=(16, 2)))\n"
        "cols = fo._coherent_columns(amps, 109)\n"
        "assert cols.shape == (16, 2, 110)\n"
        "print(fo._span(cols).tobytes().hex())\n"
    )
    src = Path(fockoracle.__file__).resolve().parent.parent

    def run(threads):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    one = run("1")
    assert len(one) == 2 * 16 * 2 * 16 * 16 + 1
    assert run("2") == one


def test_span_of_no_more_levels_than_columns_keeps_d_coordinates():
    # 12 columns of 4 levels: the basis has min(d, G) = 4 vectors, and the
    # coordinates keep every Gram entry of each mode's columns
    rng = np.random.default_rng(6)
    cols = fockoracle._coherent_columns(rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2)), 3)
    got = fockoracle._span(cols)
    assert got.shape == (12, 2, 4)
    for u in range(2):
        np.testing.assert_allclose(got[:, u].conj() @ got[:, u].T, cols[:, u].conj() @ cols[:, u].T, atol=1e-14)
