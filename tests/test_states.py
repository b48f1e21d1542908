import cmath
import math

import numpy as np
import pytest

from catsim.gates import QubitEncoding, encode
from catsim.states import (
    MERGE_TOL,
    CoherentSuperposition,
    ZeroNormError,
    _MERGE_AXIS,
    _gram_forms,
    _overlap_matrix,
    bell_cat,
    cat,
    coherent,
    coherent_overlap,
    fidelity,
    ghz_cat,
    inner_product,
    vacuum,
)


def test_overlap_closed_form():
    for alpha in np.linspace(0.5, 3.0, 11):
        value = abs(coherent_overlap(alpha, -alpha)) ** 2
        exact = math.exp(-4 * alpha**2)
        assert abs(value - exact) <= 1e-12 * exact


def test_overlap_general_complex():
    a, b = 1.2 + 0.3j, -0.4 + 1.1j
    expected = np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conj(a) * b)
    assert coherent_overlap(a, b) == pytest.approx(expected)
    assert abs(coherent_overlap(a, a) - 1.0) < 1e-15


def test_constructor_validation():
    with pytest.raises(ValueError):
        CoherentSuperposition(np.ones(2), np.zeros((3, 1)))
    # any one non-finite entry, real or imaginary, in either array
    for bad in (complex(np.nan, 0), complex(0, np.inf), -np.inf):
        for i in range(3):
            coeffs, amps = np.ones(3, dtype=complex), np.zeros((3, 2), dtype=complex)
            coeffs[i] = bad
            with pytest.raises(ValueError):
                CoherentSuperposition(coeffs, amps)
            amps[i, 1], coeffs[i] = bad, 1.0
            with pytest.raises(ValueError):
                CoherentSuperposition(coeffs, amps)
    s = coherent(1.0, 2.0)
    assert s.modes == 2 and s.nterms == 1
    with pytest.raises(ValueError):
        s.amps[0, 0] = 0.0  # frozen arrays


def test_overlap_matrix_shares_half_norms_only_within_one_array():
    # catches half-norms shared between two distinct arrays
    rng = np.random.default_rng(8)
    for k, m in ((1, 1), (4, 2), (16, 3), (33, 9)):
        x, y = (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)) for _ in range(2))
        assert _overlap_matrix(x, x).tobytes() == _overlap_matrix(x, x.copy()).tobytes()
        expected = np.prod(coherent_overlap(x[:, None, :], y[None, :, :]), axis=2)
        assert np.allclose(_overlap_matrix(x, y), expected, rtol=1e-12, atol=0)


def test_gram_forms_bits_do_not_follow_the_amplitude_layout():
    # np.delete, a slice and an index gather of the same amplitudes: a
    # C-contiguous copy, a view with row gaps and a column-gathered copy
    rng = np.random.default_rng(19)
    for k in (2, 5, 16):
        for m in range(1, 12):
            full = rng.normal(size=(k, m + 1)) + 1j * rng.normal(size=(k, m + 1))
            v = rng.normal(size=(3, k)) + 1j * rng.normal(size=(3, k))
            layouts = (np.delete(full, 0, axis=1), full[:, 1:], full[:, list(range(1, m + 1))])
            forms = [_gram_forms(x, v, x, v).tobytes() for x in layouts]
            assert forms == [forms[0]] * 3, (k, m)


def test_norm_uses_gram():
    # (|a> + |-a>) has norm^2 = 2 + 2 e^{-2a^2}, not 2
    a = 1.0
    s = CoherentSuperposition(np.array([1.0, 1.0]), np.array([[a], [-a]]))
    assert s.norm_squared() == pytest.approx(2 + 2 * math.exp(-2 * a**2), rel=1e-14)
    g = _overlap_matrix(s.amps, s.amps)
    assert g[0, 1] == pytest.approx(math.exp(-2 * a**2))


def test_cat_normalization_and_orthogonality():
    even = cat(2.0, +1)
    odd = cat(2.0, -1)
    assert even.norm_squared() == pytest.approx(1.0, abs=1e-14)
    assert abs(inner_product(even, odd)) < 1e-14
    # divisor from the even-cat closed form at alpha=2
    expected = 1.0 / math.sqrt(2 + 2 * math.exp(-2 * 4.0))
    assert abs(even.coeffs[0]) == pytest.approx(expected, rel=1e-14)


def test_bell_cat_kinds():
    for kind in ("i", "ii", "iii", "iv"):
        b = bell_cat(2.0, kind)
        assert b.modes == 2 and b.nterms == 2
        assert b.norm_squared() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        bell_cat(2.0, "v")
    # the two odd-symmetry kinds are exactly orthogonal to the even ones
    assert abs(inner_product(bell_cat(2.0, "i"), bell_cat(2.0, "ii"))) < 1e-14


def test_ghz_cat():
    g = ghz_cat(2.0, 4)
    assert g.modes == 4
    assert np.allclose(np.abs(g.amps), 1.0)  # 2/sqrt(4)
    assert g.norm_squared() == pytest.approx(1.0, abs=1e-14)
    assert ghz_cat(2.0, 1).modes == 1


def _norm_squared_minus_1_at_50_digits(s):
    """||s||^2 - 1 of the stored coefficients and amplitudes, summed over
    the full Gram matrix in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        cs = [mp.mpc(complex(c)) for c in s.coeffs]
        rows = [[mp.mpc(complex(a)) for a in row] for row in s.amps]
        n2 = mp.fsum(
            mp.conj(cj) * ck * mp.exp(mp.fsum(-abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + mp.conj(x) * y
                                             for x, y in zip(rj, rk)))
            for cj, rj in zip(cs, rows) for ck, rk in zip(cs, rows)
        )
        return float(mp.re(n2) - 1)


@pytest.mark.parametrize("alpha", [1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 4.0, 16.0])
def test_two_term_states_are_normalized_to_round_off(alpha):
    # the odd ones' Gram norm^2 2 - 2 e^{-2 ||x||^2} cancels at small alpha:
    # 8e-4 off at alpha = 1e-7, and 0 at 1e-9; the closed form keeps the digits
    rng = np.random.default_rng(25)
    mus = rng.normal(size=(4, 2)) @ [1, 1j]
    pairs = [(mus[0], mus[1]), (mus[2], mus[3]), (mus[0], -mus[0]), (1, 1j)]
    enc = QubitEncoding(alpha)
    made = (
        [cat(alpha, p) for p in (+1, -1)]
        + [cat(alpha * cmath.exp(0.3j), p) for p in (+1, -1)]
        + [bell_cat(alpha, kind) for kind in ("i", "ii", "iii", "iv")]
        + [ghz_cat(alpha, n) for n in (1, 2, 3, 4)]
        + [encode(mu, nu, enc) for mu, nu in pairs]
    )
    for i, s in enumerate(made):
        assert abs(_norm_squared_minus_1_at_50_digits(s)) <= 1e-15, i


def test_merge_terms_combines_and_drops():
    # the close pair combines into its first term and the duplicate row is
    # dropped; a tiny coefficient is a term like any other and stays
    s = CoherentSuperposition(
        np.array([0.5, 0.5, 1e-20]), np.array([[1.0], [1.0 + 1e-14], [3.0]])
    )
    m = s.merge_terms()
    assert m.nterms == 2
    assert m.coeffs.tolist() == [1.0, 1e-20]
    assert m.amps.tolist() == [[1.0], [3.0]]


def test_merge_preserves_inner_products():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    amps[3] = amps[0] + 1e-14
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    s = CoherentSuperposition(coeffs, amps)
    probe = coherent(0.3, -0.2)
    before = inner_product(probe, s)
    after = inner_product(probe, s.merge_terms())
    assert abs(before - after) < 1e-12


def _merge_reference(s):
    """Greedy first-representative merge at MERGE_TOL, one term at a time."""
    rep_amps, rep_coeffs = [], []
    for k in range(s.nterms):
        a = s.amps[k]
        for j, r in enumerate(rep_amps):
            if (np.max(np.abs(a - r)) <= MERGE_TOL) if a.size else True:
                rep_coeffs[j] += s.coeffs[k]
                break
        else:
            rep_amps.append(a.copy())
            rep_coeffs.append(complex(s.coeffs[k]))
    coeffs = np.array(rep_coeffs, dtype=complex)
    amps = np.array(rep_amps, dtype=complex).reshape(len(rep_amps), s.modes)
    return CoherentSuperposition(coeffs, amps)


def _same_bytes(x, y):
    """Equal shapes and bit-identical coefficients and amplitudes."""
    return x.amps.shape == y.amps.shape and (x.coeffs.tobytes(), x.amps.tobytes()) == (
        y.coeffs.tobytes(), y.amps.tobytes())


def _random_state_with_duplicates(rng, k, m):
    amps = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    for i in range(1, k):
        kind = rng.integers(4)
        if kind == 1:  # exact duplicate of an earlier row
            amps[i] = amps[rng.integers(i)]
        elif kind == 2:  # duplicate up to round-off-sized jitter
            amps[i] = amps[rng.integers(i)] + 1e-13 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    coeffs = np.empty(k, dtype=complex)
    coeffs.real, coeffs.imag = rng.normal(size=k), rng.normal(size=k)
    coeffs.real[rng.random(k) < 0.3] = -0.0
    coeffs.imag[rng.random(k) < 0.1] = -0.0
    coeffs[rng.random(k) < 0.1] *= 1e-20  # tiny, and kept like any other
    return CoherentSuperposition(coeffs, amps)


def test_merge_terms_bit_identical_to_greedy_reference():
    rng = np.random.default_rng(2024)
    # amplitudes scaled by 2^-e merge at distance MERGE_TOL 2^e: an exact
    # scaling that reaches from exact duplicates only to ~0.5, 1 and 2
    scales = (2.0**40, 1.0, 2.0**-39, 2.0**-40, 2.0**-41)
    nontransitive = 0
    for k in range(41):
        for m in range(5):
            base = _random_state_with_duplicates(rng, k, m)
            for scale in scales:
                s = CoherentSuperposition(base.coeffs, base.amps * scale)
                expected = _merge_reference(s)
                assert _same_bytes(s.merge_terms(), expected), (k, m, scale)
                if k and m:
                    dist = np.max(np.abs(s.amps[:, None] - s.amps[None]), axis=2)
                    first = (dist <= MERGE_TOL).argmax(axis=1)
                    nontransitive += not np.all(first[first] == first)
    # the large effective tolerances must exercise the non-transitive grouping path
    assert nontransitive > 50


def _edge_states(case, rng):
    """States at the edges of `merge_terms`' sorted candidate search, each a
    few terms in random term order."""
    m = int(rng.integers(1, 5))
    w = _MERGE_AXIS[:m]
    a = rng.normal(size=m) + 1j * rng.normal(size=m)
    if case == "tol_apart":
        # every mode MERGE_TOL apart along conj(w): the projections differ
        # by the window's m MERGE_TOL, less or more by a last bit
        step = MERGE_TOL * w.conj() * (1 + rng.choice([-1, 0, 1]) * 2.0**-52)
        rows = [a, a + step, a - step, a + step * np.eye(m)[int(rng.integers(m))]]
    elif case == "far_ties":
        # far apart along i conj(w), on which every projection is the same,
        # and one exact duplicate
        rows = [a + 0.5j * j * w.conj() for j in range(5)] + [a]
    elif case == "chains":
        # a-b and b-c close, a-c not: greedy grouping follows term order
        e = np.exp(1j * rng.uniform(0, 2 * np.pi)) * np.eye(m)[int(rng.integers(m))]
        rows = [a + j * 0.9 * MERGE_TOL * e for j in range(4)]
    elif case == "large":
        # |a| ~ 1e3, where rounding moves a projection by ~1e-13: steps just
        # under MERGE_TOL along conj(w), whose rounded projections can lie
        # farther apart than m MERGE_TOL
        a = 1e3 * np.exp(2j * np.pi * rng.random(m))
        step = MERGE_TOL * w.conj() * (1 - rng.uniform(0.0, 0.03))
        rows = [a, a + step, a + 2 * step, a - step]
    order = rng.permutation(len(rows))
    amps = np.array(rows)[order]
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return CoherentSuperposition(coeffs, amps)


@pytest.mark.parametrize("case", ["tol_apart", "far_ties", "chains", "large"])
def test_merge_terms_edges_of_the_sorted_search_match_the_reference(case):
    rng = np.random.default_rng(["tol_apart", "far_ties", "chains", "large"].index(case))
    merged = 0
    for _ in range(2000):
        s = _edge_states(case, rng)
        expected = _merge_reference(s)
        assert _same_bytes(s.merge_terms(), expected), (case, s.amps)
        merged += expected.nterms < s.nterms
        if case == "far_ties":
            assert expected.nterms == s.nterms - 1  # the duplicate alone
    assert merged > 500


def test_merge_terms_of_zero_modes_and_one_term():
    one = CoherentSuperposition(np.array([2.0 - 1j]), np.array([[0.3, -1.5j]]))
    assert one.merge_terms() is one
    scalar = CoherentSuperposition(np.array([1.0, -0.0, 2.5j, 1e-20]), np.zeros((4, 0)))
    assert _same_bytes(scalar.merge_terms(), _merge_reference(scalar))
    assert scalar.merge_terms().nterms == 1


def test_merge_terms_keeps_negative_zero():
    coeffs = np.array([complex(-0.0, 1.0), complex(-0.0, -0.0), 2.0])
    s = CoherentSuperposition(coeffs, np.array([[1.0], [1.0], [3.0]]))
    m = s.merge_terms()
    assert _same_bytes(m, _merge_reference(s))
    assert math.copysign(1.0, m.coeffs[0].real) == -1.0


def test_zero_norm_rejected():
    s = CoherentSuperposition(np.array([1.0, -1.0]), np.array([[1.0], [1.0]]))
    with pytest.raises(ZeroNormError):
        s.normalize()


def test_fidelity_basics():
    assert fidelity(vacuum(), vacuum()) == pytest.approx(1.0)
    assert fidelity(cat(2.0, +1), cat(2.0, -1)) < 1e-28
