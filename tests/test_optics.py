import itertools
import math

import numpy as np
import pytest

from catsim import audit, optics
from catsim import fockoracle as fo
from catsim.optics import (
    append_modes,
    beamsplitter,
    bell_resource,
    displace,
    nport_merge,
    phase_shift,
    tensor,
)
from catsim.states import (
    MERGE_TOL,
    CoherentSuperposition,
    bell_cat,
    cat,
    coherent,
    fidelity,
    ghz_cat,
)


def test_beamsplitter_amplitude_transform():
    g, b = 1.3 + 0.2j, -0.7 + 0.5j
    theta = 0.37
    out = beamsplitter(coherent(g, b), 0, 1, theta)
    c, s = math.cos(theta), math.sin(theta)
    assert out.amps[0, 0] == pytest.approx(g * c + 1j * b * s)
    assert out.amps[0, 1] == pytest.approx(b * c + 1j * g * s)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-14)


def test_beamsplitter_validation():
    s = coherent(1.0, 2.0)
    with pytest.raises(ValueError):
        beamsplitter(s, 0, 0, 0.1)
    with pytest.raises(IndexError):
        beamsplitter(s, 0, 5, 0.1)


def test_phase_shift():
    out = phase_shift(coherent(2.0), 0, math.pi / 2)
    assert out.amps[0, 0] == pytest.approx(2.0j)
    # X on a cat: P(pi) maps even cat to itself
    assert fidelity(phase_shift(cat(2.0, +1), 0, math.pi), cat(2.0, +1)) == pytest.approx(1.0)


def test_displace_action_and_phase():
    # D(beta)|a> = exp[(beta a* - beta* a)/2] |a + beta>
    a, beta = 1.5, 0.3j
    out = displace(coherent(a), 0, beta)
    assert out.amps[0, 0] == pytest.approx(a + beta)
    assert out.coeffs[0] == pytest.approx(np.exp(0.5 * (beta * a - np.conj(beta) * a)))
    # displaced cat keeps the e^{+/- i eps a} phase pattern
    eps = 0.01
    dc = displace(cat(2.0, +1), 0, 1j * eps)
    ratio = dc.coeffs[0] / dc.coeffs[1]
    assert np.angle(ratio) == pytest.approx(2 * eps * 2.0, abs=1e-12)


def test_displace_composition():
    s = cat(1.5, -1)
    b1, b2 = 0.2 + 0.1j, -0.3 + 0.4j
    once = displace(displace(s, 0, b2), 0, b1)
    direct = displace(s, 0, b1 + b2)
    assert fidelity(once.normalize(), direct.normalize()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [2.0, 1.5, 3.0, -2.5, 2 + 0.5j, 0.0, 1e-13, 1e-7, 16.0, 100.0])
def test_bell_resource_matches_target(alpha):
    # catches the terms (a, -a), an odd pair, and the |-a,-a> term first
    res = bell_resource(alpha)
    # the chain that prepares it: a sqrt(2) a cat and vacuum, B(pi/4), P(-pi/2)
    chain = phase_shift(
        beamsplitter(append_modes(cat(np.sqrt(2) * alpha), [0.0]), 0, 1, np.pi / 4), 1, -np.pi / 2
    ).merge_terms()
    if abs(alpha) > MERGE_TOL:
        # the chain's sqrt(2) a cos(pi/4) rounds a few ulp off a
        assert np.max(np.abs(res.amps - chain.amps)) <= 4 * np.spacing(abs(alpha))
        assert res.coeffs.tobytes() == chain.coeffs.tobytes()
    else:
        # the chain merges its two coincident terms into one
        assert chain.nterms == 1 and np.sum(res.coeffs) == chain.coeffs[0]
    # bell_cat(a, "i") is the same pair with |-a,-a> first
    target = bell_cat(alpha, "i")
    assert np.array_equal(res.coeffs, target.coeffs[::-1])
    assert np.array_equal(res.amps, target.amps[::-1])
    with pytest.raises(ValueError):
        bell_resource(float("nan"))
    assert not res.coeffs.flags.writeable and not res.amps.flags.writeable


def test_passive_kernel_sums_column_products_in_order():
    # catches the u[i, j] * cols[:, j] operand order, another summation
    # order, and a sum started from zero (which loses a -0.0)
    rng = np.random.default_rng(30)
    for k, n in itertools.product((1, 2, 7, 16), (1, 2, 3, 5)):
        cols = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        cols[0] = 0.0
        u = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n, n))) * rng.uniform(0.1, 1.0, (n, n))
        out = optics._passive(cols, u)
        for i in range(n):
            expected = cols[:, 0] * u[i, 0]
            for j in range(1, n):
                expected = expected + cols[:, j] * u[i, j]
            assert out[:, i].tobytes() == expected.tobytes(), (k, n, i)


def test_passive_elements_round_like_their_closed_forms():
    rng = np.random.default_rng(31)
    for k in (1, 2, 5, 16, 33):
        amps = rng.normal(size=(k, 3)) + 1j * rng.normal(size=(k, 3))
        amps[0, 1] = 0.0  # a vacuum amplitude keeps the signs of its zeros
        s = CoherentSuperposition(np.ones(k), amps)
        for theta in rng.uniform(-np.pi, np.pi, size=20):
            c, sn = np.cos(theta), np.sin(theta)
            g, b = amps[:, 2], amps[:, 0]
            out = beamsplitter(s, 2, 0, theta).amps
            assert out[:, 2].tobytes() == (g * c + 1j * b * sn).tobytes()
            assert out[:, 0].tobytes() == (b * c + 1j * g * sn).tobytes()
            assert out[:, 1].tobytes() == amps[:, 1].tobytes()
            out = phase_shift(s, 1, theta).amps
            assert out[:, 1].tobytes() == (amps[:, 1] * np.exp(1j * theta)).tobytes()


def _element(m, theta, pair):
    """The M x M unitary of one beam splitter (pair) or phase (one mode)."""
    u = np.eye(m, dtype=complex)
    if len(pair) == 2:
        u[np.ix_(pair, pair)] = optics._beamsplitter_u(theta)
    else:
        u[pair[0], pair[0]] = np.exp(1j * theta)
    return u


def test_passive_product_matches_the_fock_oracle_element_by_element():
    rng = np.random.default_rng(14)
    for case in range(8):
        s = audit._random_state(rng, 1.2, modes_max=1, terms_max=4)
        s = CoherentSuperposition(s.coeffs, np.tile(s.amps, (1, 3)) * rng.uniform(0.5, 1.0, 3))
        n = audit._nmax(np.sqrt(3) * audit._amp_scale(s))
        ref = fo.to_fock(s, n)
        u = np.eye(3, dtype=complex)
        for _ in range(int(rng.integers(2, 6))):
            theta = rng.uniform(-np.pi, np.pi)
            pair = [int(p) for p in rng.choice(3, size=int(rng.integers(1, 3)), replace=False)]
            u = _element(3, theta, pair) @ u
            if len(pair) == 2:
                ref = fo.fock_beamsplitter(ref, *pair, theta)
            else:
                ref = fo.fock_phase(ref, pair[0], theta)
        out = fo.to_fock(CoherentSuperposition(s.coeffs, optics._passive(s.amps, u)), n)
        assert audit._norm(out - ref) <= audit.DIST_TOL, case


@pytest.mark.parametrize("alpha", [1.0, 2.0, 1.5 - 0.5j])
def test_nport_merge_recombines_a_ghz_cat(alpha):
    for n in range(1, 7):
        back = nport_merge(ghz_cat(alpha, n), range(n))
        assert back.modes == 1
        assert fidelity(back, cat(alpha)) == pytest.approx(1.0, abs=1e-14), n


def test_nport_merge_rejects_unequal():
    s = coherent(1.0, 2.0)
    for modes in ([0, 1], [0, 0], []):
        with pytest.raises(ValueError):
            nport_merge(s, modes)
    with pytest.raises(ValueError):
        nport_merge(cat(2.0), [0, 0])
    with pytest.raises(IndexError):
        nport_merge(s, [0, 2])


def test_nport_merge_tolerance_refuses_a_port_a_few_tolerances_off_vacuum():
    # the other port of two merged modes reads (a - b)/sqrt(2), refused past
    # 1e-9 (1 + max|a|) = 2e-9 here: 7e-10 passes as round-off, 7e-9 does
    # not, though a tenfold looser tolerance would take it
    for step, refused in ((1e-9, False), (1e-8, True)):
        s = CoherentSuperposition(np.array([1.0]), np.array([[1.0, 1.0 + step]]))
        if refused:
            with pytest.raises(ValueError, match="equal amplitudes"):
                nport_merge(s, [0, 1])
        else:
            assert nport_merge(s, [0, 1]).modes == 1


def test_tensor_and_permute():
    x = cat(1.0, +1)
    y = coherent(0.5)
    t = tensor(x, y)
    assert t.modes == 2 and t.nterms == 2
    # the factors in the other order give the same state with its modes swapped
    swapped = tensor(y, x)
    assert np.array_equal(swapped.amps[:, ::-1], t.amps)
    assert np.array_equal(swapped.coeffs, t.coeffs)


def test_tensor_matches_the_repeat_tile_products_bit_for_bit():
    # catches a term order other than x-major, or a product formed otherwise
    rng = np.random.default_rng(5)

    def state(k, m):
        return CoherentSuperposition(
            rng.normal(size=k) + 1j * rng.normal(size=k),
            rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))

    for kx, mx, ky, my in itertools.product((1, 2, 5), (0, 1, 3), (1, 4), (0, 2)):
        x, y = state(kx, mx), state(ky, my)
        coeffs = np.repeat(x.coeffs, ky) * np.tile(y.coeffs, kx)
        amps = np.concatenate([np.repeat(x.amps, ky, axis=0), np.tile(y.amps, (kx, 1))], axis=1)
        t = tensor(x, y)
        assert t.coeffs.tobytes() == coeffs.tobytes()
        assert t.amps.shape == amps.shape and t.amps.tobytes() == amps.tobytes()


def test_append_modes():
    s = append_modes(cat(2.0, +1), [0.0, 1.0j])
    assert s.modes == 3
    assert np.allclose(s.amps[:, 2], 1.0j)
