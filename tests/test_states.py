import math

import numpy as np
import pytest

from catsim.states import (
    DROP_THRESHOLD,
    MERGE_TOL,
    CoherentSuperposition,
    ZeroNormError,
    _overlap_matrix,
    bell_cat,
    cat,
    coherent,
    coherent_overlap,
    fidelity,
    from_record,
    ghz_cat,
    gram_matrix,
    inner_product,
    to_record,
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


def test_norm_uses_gram():
    # (|a> + |-a>) has norm^2 = 2 + 2 e^{-2a^2}, not 2
    a = 1.0
    s = CoherentSuperposition(np.array([1.0, 1.0]), np.array([[a], [-a]]))
    assert s.norm_squared() == pytest.approx(2 + 2 * math.exp(-2 * a**2), rel=1e-14)
    g = gram_matrix(s)
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


def test_merge_terms_combines_and_drops():
    s = CoherentSuperposition(
        np.array([0.5, 0.5, 1e-20]), np.array([[1.0], [1.0 + 1e-14], [3.0]])
    )
    m = s.merge_terms()
    assert m.nterms == 1
    assert m.coeffs[0] == pytest.approx(1.0)


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
    cmax = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    keep = np.abs(coeffs) >= DROP_THRESHOLD * cmax
    if not np.all(keep) and np.any(keep):
        coeffs, amps = coeffs[keep], amps[keep]
    return CoherentSuperposition(coeffs, amps)


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
    coeffs[rng.random(k) < 0.1] *= 1e-20  # below the drop threshold
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
                assert to_record(s.merge_terms()) == to_record(expected), (k, m, scale)
                if k and m:
                    dist = np.max(np.abs(s.amps[:, None] - s.amps[None]), axis=2)
                    first = (dist <= MERGE_TOL).argmax(axis=1)
                    nontransitive += not np.all(first[first] == first)
    # the large effective tolerances must exercise the non-transitive grouping path
    assert nontransitive > 50


def test_merge_terms_keeps_negative_zero():
    coeffs = np.array([complex(-0.0, 1.0), complex(-0.0, -0.0), 2.0])
    s = CoherentSuperposition(coeffs, np.array([[1.0], [1.0], [3.0]]))
    m = s.merge_terms()
    assert to_record(m) == to_record(_merge_reference(s))
    assert math.copysign(1.0, m.coeffs[0].real) == -1.0


def test_zero_norm_rejected():
    s = CoherentSuperposition(np.array([1.0, -1.0]), np.array([[1.0], [1.0]]))
    with pytest.raises(ZeroNormError):
        s.normalize()


def test_fidelity_basics():
    assert fidelity(vacuum(), vacuum()) == pytest.approx(1.0)
    assert fidelity(cat(2.0, +1), cat(2.0, -1)) < 1e-28


def test_record_round_trip_bit_faithful():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    s = CoherentSuperposition(coeffs, amps)
    t = from_record(to_record(s))
    assert np.array_equal(s.coeffs, t.coeffs)
    assert np.array_equal(s.amps, t.amps)


def test_record_rejects_malformed():
    with pytest.raises(ValueError):
        from_record("oops 2\n")
    with pytest.raises(ValueError):
        from_record("modes 2\n0x1p+0 0x0p+0\n")  # wrong field count
