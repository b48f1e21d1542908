import math

import numpy as np
import pytest

from catsim import gates, measure, optics, states
from catsim.gates import (
    CNOT,
    GateFailure,
    GateOutcome,
    QubitEncoding,
    cnot_dressing,
    decode,
    decode_two,
    encode,
    entangling_gate,
    gate_rx,
    gate_rz,
    gate_x,
    gate_z,
    logical_coefficients,
    teleport,
)
from catsim.states import CoherentSuperposition, cat, coherent_overlap, fidelity

ENC = QubitEncoding(2.0)


def test_encode_decode_round_trip():
    mu, nu = 0.8, 0.6j
    s = encode(mu, nu, ENC)
    m, n, leak = decode(s, ENC)
    # decode returns coefficients up to the common normalization
    assert n / m == pytest.approx(nu / mu, rel=1e-12)
    assert leak < 1e-14
    with pytest.raises(ValueError):
        encode(0.0, 0.0, ENC)


def test_gate_x_swaps_logical_amplitudes():
    s = encode(0.8, 0.6, ENC)
    m, n, leak = decode(gate_x(s, ENC), ENC)
    assert n / m == pytest.approx(0.8 / 0.6, rel=1e-12)
    assert leak < 1e-14
    # X is an involution
    assert fidelity(gate_x(gate_x(s, ENC), ENC), s) == pytest.approx(1.0, abs=1e-14)


def test_teleport_branches_realize_identity_or_z():
    s = encode(0.6, 0.8j, ENC)
    for branch, residual in ((_I, "identity"), (_II, "Z"), (_III, "identity"), (_IV, "Z")):
        out = teleport(s, ENC, _ScriptedRng(branch))
        assert out.success and out.applied == residual
        m, n, _ = decode(out.state, ENC)
        expected = (0.8j / 0.6) * (-1 if residual == "Z" else 1)
        assert n / m == pytest.approx(expected, rel=1e-9)
    # branch probabilities over all five outcomes sum to one
    total = sum(teleport(s, ENC, _ScriptedRng(b)).probability for b in range(5))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_teleport_projects_leakage_back():
    a = ENC.alpha
    leaked = CoherentSuperposition(
        np.array([0.7, 0.3]), np.array([[-a + 0.03j], [a + 0.03j]])
    ).normalize()
    out = teleport(leaked, ENC)
    _, _, leak = decode(out.state.normalize(), ENC)
    assert leak < 1e-10
    assert np.max(np.abs(np.abs(out.state.amps) - a)) < 1e-12


def test_teleport_sampling_frequencies():
    s = encode(1.0, 1.0, ENC)
    rng = np.random.default_rng(123)
    counts = {"identity": 0, "Z": 0, "FAIL": 0}
    trials = 10_000
    for _ in range(trials):
        out = teleport(s, ENC, rng=rng)
        counts[out.applied if out.success else "FAIL"] += 1
    # identity and Z each land with probability ~(1 - p_fail)/2
    p_fail = teleport(s, ENC, _ScriptedRng(_FAIL)).probability
    expect = (1 - p_fail) / 2
    sigma = math.sqrt(expect * (1 - expect) * trials)
    assert abs(counts["identity"] - expect * trials) < 4 * sigma
    assert abs(counts["Z"] - expect * trials) < 4 * sigma


def test_gate_z_flips_sign_and_composes_to_identity():
    s = encode(0.6, 0.8, ENC)
    out = gate_z(s, ENC)
    assert out.success and out.applied == "Z"
    m, n, leak = decode(out.state, ENC)
    assert n / m == pytest.approx(-0.8 / 0.6, rel=1e-9)
    assert leak < 1e-14
    again = gate_z(out.state, ENC)
    assert fidelity(again.state, s) >= 1 - 1e-10


def test_gate_z_mean_repetitions():
    s = encode(0.6, 0.8, ENC)
    rng = np.random.default_rng(77)
    reps = [gate_z(s, ENC, rng).repetitions for _ in range(400)]
    # geometric with success ~1/2 per teleport: mean ~2
    assert 1.7 < np.mean(reps) < 2.4


def test_gate_rz_zero_angle_is_identity():
    s = encode(0.6, 0.8j, ENC)
    out = gate_rz(s, ENC, 0.0)
    assert fidelity(out.state, s) == pytest.approx(1.0, abs=1e-12)


def test_gate_rz_phase_exact():
    for alpha in (1.5, 2.0, 2.5, 3.0):
        enc = QubitEncoding(alpha)
        theta = 0.02 / alpha**2
        s = encode(1.0, 1.0, enc)
        out = gate_rz(s, enc, theta)
        m, n, leak = decode(out.state, enc)
        phase = np.angle(n / m)
        assert abs(phase - 4 * theta * alpha**2) < 1e-9
        assert leak < 1e-12


_EPS = np.finfo(float).eps
_TINY_TO_SMALL = [float(x) for x in np.logspace(-12, -2, 11)]


def _phase_bound(alpha, phase):
    """Round-off of a decoded phase: the per-term exponents (the overlaps'
    Im(conj(r) d) and the displacement's phase, of size up to alpha^2 times
    the rounding of an amplitude) and the few products and the angle that
    read it from four coefficients, each a few eps relative.  16 eps
    (1 + alpha^2) is 3.5e-14 rad at alpha = 3: a 4e-12 rad phase to 1%."""
    return 16 * _EPS * (1 + alpha**2) + 16 * _EPS * abs(phase)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_gate_rz_phase_is_4_theta_alpha2_at_every_small_angle(alpha):
    # the Bell table weights each displaced term by its overlap with the
    # nearest +/-alpha, whose phase carries half the rotation, however small
    enc = QubitEncoding(alpha)
    mu, nu = 0.6 + 0.2j, 0.7 - 0.3j
    s = encode(mu, nu, enc)
    for theta_alpha2 in _TINY_TO_SMALL:
        m, n, _ = decode(gate_rz(s, enc, theta_alpha2 / alpha**2).state, enc)
        phase = float(np.angle((n / m) / (nu / mu)))
        expected = 4 * theta_alpha2
        assert abs(phase - expected) <= _phase_bound(alpha, expected), theta_alpha2


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_entangling_step_phase_is_4_alpha2_sin_half_theta_at_every_small_angle(alpha):
    # B(theta/2) turns the mixed components by -4 alpha^2 sin(theta/2)
    # against |--> and |++>, which the two teleports must keep
    enc_a, enc_b = QubitEncoding(alpha, 0), QubitEncoding(alpha, 1)
    s = optics.tensor(encode(1.0, 1.0, enc_a), encode(1.0, 1.0, enc_b))
    for theta_alpha2 in _TINY_TO_SMALL:
        theta = theta_alpha2 / alpha**2
        x, _ = decode_two(entangling_gate(s, enc_a, enc_b, theta).state, enc_a, enc_b)
        mixed = -4 * alpha**2 * math.sin(theta / 2)
        err = np.abs(np.angle(x / x[0]) - [0.0, mixed, mixed, 0.0])
        assert err.max() <= _phase_bound(alpha, mixed), theta_alpha2


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_gate_rz_table_is_continuous_in_the_angle(alpha):
    # The displacement D(i alpha theta) moves each term by d = i alpha
    # theta: every row weight gains e^{-|d|^2 / 2} and each term a phase
    # e^{+/- 2 i theta alpha^2} (overlap and displacement), so a row is
    # p(theta) = factor e^{-theta^2 alpha^2} v^dag U^dag G U v with U
    # diagonal, ||U - 1|| <= 2 theta alpha^2, and |p(theta) - p(0)| <=
    # factor ||G|| |v|^2 (4 theta alpha^2 + theta^2 alpha^2): factor <= 1,
    # ||G|| <= 2K (the joint terms), |v|^2 <= sum |c|^2 of the joint
    # coefficients.
    enc = QubitEncoding(alpha)
    s = encode(0.6 + 0.2j, 0.7 - 0.3j, enc)
    res = optics.bell_resource(alpha)
    joint = float(np.sum(np.abs(s.coeffs) ** 2) * np.sum(np.abs(res.coeffs) ** 2))
    at_zero = gates._bell_table(s, enc)
    for theta_alpha2 in (1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-4, 1e-2):
        theta = theta_alpha2 / alpha**2
        table = gates._bell_table(optics.displace(s, 0, 1j * alpha * theta), enc)
        bound = 2 * s.nterms * joint * (4 * theta_alpha2 + theta * theta_alpha2) + 8 * _EPS
        for outcome, rec in table.items():
            step = abs(rec.probability - at_zero[outcome].probability)
            assert step <= bound, (theta_alpha2, outcome)


def test_gate_rz_composition_reaches_large_angle():
    # 40 small steps accumulate a pi/2 logical rotation
    enc = QubitEncoding(2.0)
    steps = 40
    theta = (np.pi / 2) / (4 * enc.alpha**2) / steps
    state = encode(1.0, 1.0, enc)
    for _ in range(steps):
        state = gate_rz(state, enc, theta).state
    m, n, _ = decode(state, enc)
    assert np.angle(n / m) == pytest.approx(np.pi / 2, abs=1e-9)


def test_gate_rz_warns_outside_regime():
    with pytest.warns(UserWarning):
        gate_rz(encode(1.0, 1.0, ENC), ENC, 0.3)


def test_entangling_gate_warns_outside_regime():
    # theta^2 alpha^2 is 0.04 on the first qubit and 0.16 on the second
    s = optics.tensor(encode(1.0, 1.0, QubitEncoding(1.0)), encode(1.0, 1.0, QubitEncoding(2.0)))
    with pytest.warns(UserWarning, match="theta\\^2 alpha\\^2 = 0.16") as caught:
        entangling_gate(s, QubitEncoding(1.0, 0), QubitEncoding(2.0, 1), 0.2)
    assert caught[0].filename == __file__


def test_gate_rx_squared_is_x():
    # two pi/2 rotations about X equal X up to a global phase
    enc = QubitEncoding(2.0)
    s = encode(0.8, 0.6j, enc)
    once = gate_rx(s, enc).state
    twice = gate_rx(once, enc).state
    target = gate_x(s, enc)
    assert fidelity(twice, target) >= 1 - 10 * math.exp(-2 * enc.alpha**2)


def test_gate_rx_even_cat_is_eigenstate():
    enc = QubitEncoding(2.0)
    s = cat(enc.alpha, +1)
    out = gate_rx(s, enc)
    assert fidelity(out.state, s) >= 1 - 10 * math.exp(-2 * enc.alpha**2)


def test_entangling_zero_angle_identity():
    enc_a, enc_b = QubitEncoding(2.0, 0), QubitEncoding(2.0, 1)
    s = optics.tensor(encode(0.6, 0.8, enc_a), encode(1.0, 1.0j, enc_b)).merge_terms()
    out = entangling_gate(s, enc_a, enc_b, 0.0)
    assert fidelity(out.state, s) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        entangling_gate(s, enc_a, QubitEncoding(2.0, 0), 0.1)


def test_entangling_phase_per_step():
    enc_a, enc_b = QubitEncoding(2.5, 0), QubitEncoding(2.5, 1)
    a2 = enc_a.alpha**2
    theta = np.pi / (4 * a2) / 8
    s = optics.tensor(encode(1.0, 1.0, enc_a), encode(1.0, 1.0, enc_b)).merge_terms()
    out = entangling_gate(s, enc_a, enc_b, theta)
    x, leak = decode_two(out.state, enc_a, enc_b)
    assert leak < 1e-10
    # phase difference between aligned (00/11) and mixed (01/10) components
    rel = np.angle(x[0] / x[1])
    ideal = 2 * a2 * math.sin(theta / 2) * 2  # aligned minus mixed
    assert abs(rel - ideal) < 1e-9
    # small-angle target phase, cubic correction theta^3 a^2 / 12
    assert abs(ideal - 2 * theta * a2) < theta**3 * a2 / 6


def test_dressed_cnot_fidelity():
    enc_a, enc_b = QubitEncoding(2.5, 0), QubitEncoding(2.5, 1)
    a2 = enc_a.alpha**2
    steps = 8
    theta = np.pi / (4 * a2) / steps

    def channel(v: np.ndarray) -> np.ndarray:
        psi = sum_basis(v, enc_a, enc_b)
        state = psi
        for _ in range(steps):
            state = entangling_gate(state, enc_a, enc_b, theta).state
        x, _ = decode_two(state.normalize(), enc_a, enc_b)
        return x

    gate = reconstruct_two_qubit(channel)
    fid, _ = cnot_dressing(gate)
    assert fid >= 0.999


def sum_basis(v, enc_a, enc_b):
    terms = []
    coeffs = []
    for i, c in enumerate(v):
        if c == 0:
            continue
        sa = enc_a.alpha if (i >> 1) & 1 else -enc_a.alpha
        sb = enc_b.alpha if i & 1 else -enc_b.alpha
        terms.append([sa, sb])
        coeffs.append(c)
    return CoherentSuperposition(np.array(coeffs), np.array(terms, dtype=complex)).normalize()


def reconstruct_two_qubit(channel):
    eye = np.eye(4, dtype=complex)
    inputs = [eye[i] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            inputs.append((eye[i] + eye[j]) / np.sqrt(2))
            inputs.append((eye[i] + 1j * eye[j]) / np.sqrt(2))
    vin = np.column_stack(inputs)
    vout = np.column_stack([channel(v) for v in inputs])
    a, *_ = np.linalg.lstsq(vin.T, vout.T, rcond=None)
    return a.T


def _locally_phased_diag(chi: float, rng: np.random.Generator) -> np.ndarray:
    """diag(1, 1, 1, e^{i chi}) times random local Z phases and a global phase."""
    a, b, g = rng.uniform(0, 2 * np.pi, size=3)
    local = np.kron([1, np.exp(1j * a)], [1, np.exp(1j * b)])
    return np.exp(1j * g) * np.diag(local * [1, 1, 1, np.exp(1j * chi)])


def test_cnot_dressing_closed_form_on_diagonal_gates():
    rng = np.random.default_rng(11)
    for _ in range(5):
        fid, dressed = cnot_dressing(_locally_phased_diag(np.pi, rng))
        assert fid == pytest.approx(1.0, abs=1e-12)
        phase = dressed[0, 0]
        assert abs(phase) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(dressed, phase * CNOT, atol=1e-12)
        for chi in (0.5, 2.0):
            fid, _ = cnot_dressing(_locally_phased_diag(chi, rng))
            assert fid == pytest.approx((10 - 6 * np.cos(chi)) / 16, abs=1e-12)


def test_cnot_dressing_rejects_non_two_qubit_shapes():
    with pytest.raises(ValueError):
        cnot_dressing(np.eye(3))


def test_gate_outcome_trace_records():
    out = gate_rz(encode(1.0, 1.0, ENC), ENC, 0.001)
    assert len(out.trace) >= 2
    kinds = [t[0] for t in out.trace]
    assert "displace" in kinds and "bell_measurement" in kinds


def test_teleport_fail_branch():
    s = encode(1.0, 1.0, ENC)
    out = teleport(s, ENC, _ScriptedRng(_FAIL))
    assert not out.success and out.applied == "FAIL"
    # FAIL probability lives on the double-vacuum weight scale e^{-2 alpha^2}
    assert 0 < out.probability < 10 * math.exp(-2 * ENC.alpha**2)
    assert fidelity(out.state, s) == pytest.approx(1.0)
    assert isinstance(GateFailure("x"), RuntimeError)


def test_logical_coefficients_on_permuted_modes():
    # qubit q lives on mode encs[q].mode; unequal alphas pin the column order
    encs = [QubitEncoding(1.6, 2), QubitEncoding(2.1, 0), QubitEncoding(1.3, 1)]
    rng = np.random.default_rng(5)
    x_true = rng.normal(size=8) + 1j * rng.normal(size=8)
    bits = [[(i >> (2 - q)) & 1 for q in range(3)] for i in range(8)]
    amps = np.zeros((9, 3), dtype=complex)
    for i, row in enumerate(bits):
        for q, e in enumerate(encs):
            amps[i, e.mode] = e.alpha if row[q] else -e.alpha
    amps[8] = [0.4 + 0.2j, -0.3, 1.1j]  # a term outside the logical span
    s = CoherentSuperposition(np.append(x_true, 0.05), amps).normalize()

    basis = [[e.alpha if row[q] else -e.alpha for q, e in enumerate(encs)] for row in bits]
    b = np.array([
        sum(
            c * np.prod([coherent_overlap(bq, a[e.mode]) for bq, e in zip(bi, encs)])
            for c, a in zip(s.coeffs, s.amps)
        )
        for bi in basis
    ])
    g = np.array([
        [np.prod([coherent_overlap(p, q) for p, q in zip(bi, bj)]) for bj in basis]
        for bi in basis
    ])
    x_ref = np.linalg.solve(g, b)
    leak_ref = 1.0 - float(np.real(np.conj(x_ref) @ g @ x_ref))

    x, leakage = logical_coefficients(s, encs)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0)
    assert leakage == pytest.approx(leak_ref, rel=1e-9)
    assert leakage > 1e-6
    # the logical part alone decodes to the amplitudes it was built from
    scale = math.sqrt(CoherentSuperposition(x_true, amps[:8]).norm_squared())
    logical = CoherentSuperposition(x_true / scale, amps[:8])
    x_logical, leak_logical = logical_coefficients(logical, encs)
    np.testing.assert_allclose(x_logical, x_true / scale, rtol=1e-12)
    assert leak_logical < 1e-12


def _logical_solve_50_digits(s, encs):
    """The normal equations G x = b of the logical fit (mode 0 the most
    significant bit, logical 0 = -alpha), solved in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    n = len(encs)
    basis = [[e.alpha if (i >> (n - 1 - q)) & 1 else -e.alpha for q, e in enumerate(encs)]
             for i in range(2**n)]
    terms = [[complex(a[e.mode]) for e in encs] for a in s.amps]
    with mp.workdps(50):
        def overlap(xs, ys):
            return mp.fprod(mp.exp(-abs(mp.mpc(x)) ** 2 / 2 - abs(mp.mpc(y)) ** 2 / 2
                                   + mp.conj(mp.mpc(x)) * mp.mpc(y)) for x, y in zip(xs, ys))
        g = mp.matrix([[overlap(bi, bj) for bj in basis] for bi in basis])
        b = mp.matrix([mp.fsum(complex(c) * overlap(bi, t) for c, t in zip(s.coeffs, terms))
                       for bi in basis])
        return np.array([complex(v) for v in mp.lu_solve(g, b)])


def test_logical_coefficients_match_a_50_digit_solve():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        alpha = 10 ** rng.uniform(-4, 0.5)
        encs = [QubitEncoding(alpha, q) for q in range(n)]
        amps = alpha * (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
        s = CoherentSuperposition(rng.normal(size=k) + 1j * rng.normal(size=k), amps).normalize()
        x, _ = logical_coefficients(s, encs)
        ref = _logical_solve_50_digits(s, encs)
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref), (n, k, alpha)


@pytest.mark.parametrize("alpha", [1e-1, 1e-3, 1e-5, 1e-7])
def test_logical_product_states_decode_exactly_at_small_alpha(alpha):
    enc_a, enc_b = QubitEncoding(alpha, 0), QubitEncoding(alpha, 1)
    one = CoherentSuperposition([0.6 + 0.2j, 0.7 - 0.3j], [[-alpha], [alpha]])
    mu, nu, _ = decode(one, enc_a)
    assert max(abs(mu - one.coeffs[0]), abs(nu - one.coeffs[1])) <= 1e-15
    a = alpha
    two = CoherentSuperposition(np.kron(one.coeffs, [0.3, -0.8j]),
                                [[-a, -a], [-a, a], [a, -a], [a, a]])
    x4, _ = decode_two(two, enc_a, enc_b)
    assert np.max(np.abs(x4 - two.coeffs)) <= 1e-15


@pytest.mark.parametrize("alpha, far", [(6.0, -100.0), (2.0, -200.0), (6.0, 100.0)])
def test_a_term_far_past_either_reference_decodes_to_finite_coefficients(alpha, far):
    # expm1(-2r(r + x)) overflows for x far past -r; no RuntimeWarning may escape
    s = CoherentSuperposition([0.6, 0.8], [[alpha], [far]])
    mu, nu, leakage = decode(s, QubitEncoding(alpha))
    assert (mu, nu) == (0, 0.6)
    assert leakage == pytest.approx(0.64, rel=1e-15)


def test_decoding_where_alpha_squared_underflows_is_a_value_error():
    enc = QubitEncoding(1e-200)
    with pytest.raises(ValueError, match="singular"):
        decode(CoherentSuperposition([1.0], [[1e-200]]), enc)


def test_logical_readout_needs_each_mode_of_the_state_once():
    s = optics.tensor(encode(0.6, 0.8, _ENC_A), encode(1.0, 1.0j, _ENC_B))
    # a repeated mode reads mode 0 twice and mode 1 never; a mode past the
    # state's, or too few encodings, leaves a mode unread
    for encs in ([_ENC_A, _ENC_A], [_ENC_B, _ENC_B], [_ENC_A, QubitEncoding(2.0, 2)], [_ENC_A]):
        with pytest.raises(ValueError, match="each exactly once"):
            logical_coefficients(s, encs)
    with pytest.raises(ValueError, match="each exactly once"):
        decode_two(s, _ENC_A, _ENC_A)
    # the modes in either order
    assert decode_two(s, _ENC_B, _ENC_A)[1] < 1e-14


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
def test_encoding_needs_a_positive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be > 0"):
        QubitEncoding(alpha)


@pytest.mark.parametrize("mode", [-1, 2])
@pytest.mark.parametrize("gate", [
    lambda s, enc: teleport(s, enc),
    lambda s, enc: gate_z(s, enc),
    lambda s, enc: gate_rz(s, enc, 0.01),
    lambda s, enc: gate_rx(s, enc),
    lambda s, enc: entangling_gate(s, enc, _ENC_B, 0.01),
    lambda s, enc: gate_x(s, enc),
], ids=["teleport", "gate_z", "gate_rz", "gate_rx", "entangling_gate", "gate_x"])
def test_a_gate_on_a_mode_outside_the_register_is_an_index_error(gate, mode):
    s = optics.tensor(encode(0.6, 0.8, _ENC_A), encode(1.0, 1.0j, _ENC_B))
    with pytest.raises(IndexError, match=f"mode {mode} out of range for 2-mode state"):
        gate(s, QubitEncoding(2.0, mode))


def _logical_fidelity(x, y) -> float:
    """|<x|y>|^2 / (<x|x><y|y>): equality up to a global phase and scale."""
    x, y = np.asarray(x), np.asarray(y)
    return abs(np.vdot(x, y)) ** 2 / (np.vdot(x, x).real * np.vdot(y, y).real)


def test_sampled_gate_rx_corrects_every_branch():
    enc = QubitEncoding(2.0)
    mu, nu = 0.6 + 0.2j, 0.7 - 0.3j
    psi = encode(mu, nu, enc)
    phi = math.pi / 4
    target = np.array(
        [[np.exp(1j * phi), np.exp(-1j * phi)], [np.exp(-1j * phi), np.exp(1j * phi)]]
    ) @ np.array([mu, nu])
    seen, z_ran = set(), False
    for seed in range(200):
        out = gate_rx(psi, enc, rng=np.random.default_rng(seed))
        assert out.success
        seen.add(next(t[2] for t in out.trace if t[0] == "cat_projection"))
        z_ran |= out.repetitions > 1
        m, n, _ = decode(out.state, enc)
        assert _logical_fidelity([m, n], target) >= 1 - 10 * math.exp(-2 * enc.alpha**2)
        if len(seen) == 4:
            break
    assert seen == {str((pa, pb)) for pa in ("even", "odd") for pb in ("even", "odd")}
    assert z_ran


def test_sampled_rz_and_entangling_match_canonical_branch():
    enc, enc_b = QubitEncoding(2.0, 0), QubitEncoding(2.0, 1)
    psi = encode(0.6 + 0.2j, 0.7 - 0.3j, enc)
    two = optics.tensor(psi, encode(1.0, 1.0j, enc_b))
    theta = 0.02 / enc.alpha**2
    rz_ref = decode(gate_rz(psi, enc, theta).state, enc)[:2]
    zz_ref, _ = decode_two(entangling_gate(two, enc, enc_b, theta).state, enc, enc_b)
    rz_z = zz_z = 0
    for seed in range(20):
        out = gate_rz(psi, enc, theta, np.random.default_rng(seed))
        assert out.success
        rz_z += out.repetitions > 1
        assert _logical_fidelity(decode(out.state, enc)[:2], rz_ref) == pytest.approx(1, abs=1e-12)
        out = entangling_gate(two, enc, enc_b, theta, np.random.default_rng(seed))
        assert out.success
        zz_z += out.repetitions > 2
        x, _ = decode_two(out.state, enc, enc_b)
        assert _logical_fidelity(x, zz_ref) == pytest.approx(1, abs=1e-12)
    # the Z-residual branches (gate_z ran) are among the sampled runs
    assert rz_z > 0 and zz_z > 0


def test_gate_rx_on_input_far_from_the_cats_is_a_gate_failure():
    # every joint cat projection of |40> underflows to probability 0
    far = CoherentSuperposition(np.array([1.0]), np.array([[40.0]]))
    for rng in (None, np.random.default_rng(0)):
        with pytest.raises(GateFailure, match="all branches have zero probability"):
            gate_rx(far, QubitEncoding(1.0), rng=rng)
    # a drawn branch other than FAIL that carries no state fails the gate too
    table = {"I": measure.MeasurementRecord("bell_measurement", "I", 0.0),
             "FAIL": measure.MeasurementRecord("bell_measurement", "FAIL", 1.0)}
    with pytest.raises(GateFailure, match="branch I has zero probability"):
        gates._pick(table, None, "I")


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_every_returned_state_is_already_merged(leaked):
    enc_a, enc_b = QubitEncoding(1.5, 0), QubitEncoding(1.5, 1)
    s = optics.tensor(encode(0.6, 0.8, enc_a), encode(1.0, 1.0j, enc_b))
    if leaked:
        s = optics.displace(s, 0, 0.03 + 0.02j).normalize()
    outs = [teleport(s, enc_a, _ScriptedRng(b)) for b in range(5)]
    for seed in (None, *range(12)):
        def rng():
            return None if seed is None else np.random.default_rng(seed)
        outs += [
            teleport(s, enc_a, rng()),
            gate_z(s, enc_a, rng()),
            gate_rz(s, enc_a, 0.05, rng()),
            gate_rx(s, enc_a, rng=rng()),
            entangling_gate(s, enc_a, enc_b, 0.05, rng()),
        ]
    assert {o.success for o in outs} == {True, False}
    for out in outs:
        assert out.state.merge_terms() is out.state


class _ScriptedRng:
    """Stands in for a Generator: each `measure.sample` draw from it takes
    the next scripted index into the branch table."""

    def __init__(self, *picks):
        self.picks = iter(picks)


@pytest.fixture(autouse=True)
def _scripted_draws(monkeypatch):
    """`measure.sample` (which `gates._pick` calls through the module) takes
    a `_ScriptedRng`'s next index; a Generator draws as usual."""
    draw = measure.sample

    def sample(table, rng):
        if isinstance(rng, _ScriptedRng):
            return table[list(table)[next(rng.picks)]]
        return draw(table, rng)

    monkeypatch.setattr(measure, "sample", sample)


# indices into the Bell table (I, II, III, IV, FAIL) and the gate_rx table
# ((even, even), (odd, even), (even, odd), (odd, odd))
_I, _II, _III, _IV, _FAIL, _EVEN_ODD = 0, 1, 2, 3, 4, 2


@pytest.mark.parametrize("gate, picks, repetitions", [
    (lambda s, rng: gate_rz(s, QubitEncoding(1.0), 0.05, rng), (_II, _FAIL), 2),
    # the cat projection counts as one repetition, as on success
    (lambda s, rng: gate_rx(s, QubitEncoding(1.0), rng=rng), (_EVEN_ODD, _I, _FAIL), 3),
    (lambda s, rng: entangling_gate(s, QubitEncoding(1.0, 0), QubitEncoding(1.0, 1), 0.05, rng),
     (_II, _FAIL), 2),
    # an identity landing, then FAIL: gate_z returns its input, not the landing
    (lambda s, rng: gate_z(s, QubitEncoding(1.0), rng), (_I, _FAIL), 2),
], ids=["gate_rz", "gate_rx", "entangling_gate", "gate_z"])
def test_a_fail_inside_gate_z_counts_every_teleport_the_gate_ran(gate, picks, repetitions):
    s = optics.tensor(encode(0.6, 0.8, QubitEncoding(1.0)), encode(1.0, 1.0j, QubitEncoding(1.0, 1)))
    out = gate(s, _ScriptedRng(*picks))
    assert not out.success and out.applied == "FAIL" and out.state is s
    steps = [t for t in out.trace if t[0] in ("bell_measurement", "cat_projection")]
    assert steps[-1][2] == "FAIL"
    assert out.repetitions == len(steps) == repetitions
    assert out.probability == pytest.approx(math.prod(t[3] for t in steps), rel=1e-14)


def test_a_gate_rx_flip_branch_lands_like_a_teleport():
    enc = QubitEncoding(2.0)
    mu, nu = 0.6 + 0.2j, 0.7 - 0.3j
    # (odd, even): X correction, then a Z residual that gate_z lands on II
    out = gate_rx(encode(mu, nu, enc), enc, rng=_ScriptedRng(1, _II))
    assert out.success and out.applied == "Rx(1.5708)" and out.repetitions == 2
    assert [t[0] for t in out.trace] == [
        "beamsplitter", "cat_projection", "phase_shift", "bell_measurement"]
    assert [t[2] for t in out.trace[1::2]] == [str(("odd", "even")), "II"]
    phi = math.pi / 4
    target = np.array(
        [[np.exp(1j * phi), np.exp(-1j * phi)], [np.exp(-1j * phi), np.exp(1j * phi)]]
    ) @ np.array([mu, nu])
    m, n, _ = decode(out.state, enc)
    assert _logical_fidelity([m, n], target) >= 1 - 10 * math.exp(-2 * enc.alpha**2)


def _gate_z_one_teleport_each(s, enc, rng):
    """The repeat-until-success loop with a fresh teleport (and Bell table)
    per attempt, folded here: probabilities multiplied, repetitions added
    and traces joined; a FAIL returns the input.  The reference gate_z must
    reproduce."""
    probability, repetitions, trace, state = 1.0, 0, (), s
    while True:
        out = teleport(state, enc, rng)
        probability *= out.probability
        repetitions += out.repetitions
        trace += out.trace
        if not out.success or out.applied == "Z":
            state = out.state if out.success else s
            return GateOutcome(state, out.success, out.applied, probability, repetitions, trace)
        state = out.state


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_gate_z_matches_one_teleport_per_attempt(alpha, leaked):
    enc = QubitEncoding(alpha)
    s = encode(0.6 + 0.2j, 0.7 - 0.3j, enc)
    if leaked:
        s = optics.displace(s, 0, 0.03 + 0.02j).normalize()
    outcomes = set()
    for seed in range(50):
        ref = _gate_z_one_teleport_each(s, enc, np.random.default_rng(seed))
        out = gate_z(s, enc, np.random.default_rng(seed))
        assert (out.success, out.applied, out.repetitions) == (
            ref.success, ref.applied, ref.repetitions)
        assert [t[2] for t in out.trace] == [t[2] for t in ref.trace]
        assert out.probability == pytest.approx(ref.probability, rel=1e-12)
        assert fidelity(out.state, ref.state) >= 1 - 1e-12
        outcomes.update(t[2] for t in out.trace)
    # every Bell outcome was drawn, FAIL included, at alpha = 1
    assert outcomes >= {"I", "II", "III", "IV"} | ({"FAIL"} if alpha == 1.0 else set())


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(measure, name)
    monkeypatch.setattr(measure, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def test_gate_z_draws_every_attempt_from_one_table(monkeypatch):
    tables = _count_calls(monkeypatch, "_bell_rows")
    out = gate_z(encode(0.6, 0.8, ENC), ENC, _ScriptedRng(_I, 2, _I, _II))
    assert out.success and out.applied == "Z" and out.repetitions == 4
    assert [t[2] for t in out.trace if t[0] == "bell_measurement"] == ["I", "III", "I", "II"]
    assert sum(t[0] == "phase_shift" for t in out.trace) == 1
    assert len(tables) == 1
    # identity landings all the way to the cap: still one table, then a GateFailure
    with pytest.raises(GateFailure, match=f"within {gates.MAX_REPEATS} teleports"):
        gate_z(encode(0.6, 0.8, ENC), ENC, _ScriptedRng(*[_I] * gates.MAX_REPEATS))
    assert len(tables) == 2


@pytest.mark.parametrize("gate, z_landing, name", [
    (lambda s, rng: gate_rz(s, ENC, 0.01, rng), _II, "Rz(0.16)"),
    (lambda s, rng: gate_rx(s, ENC, rng=rng), _EVEN_ODD, "Rx(1.5708)"),
], ids=["gate_rz", "gate_rx"])
def test_the_z_fix_inside_a_gate_keeps_the_repeat_cap(gate, z_landing, name):
    s = encode(0.6, 0.8, ENC)
    # a Z landing, then identity landings only: the fix gives up after MAX_REPEATS teleports
    with pytest.raises(GateFailure, match=f"Z branch did not land within {gates.MAX_REPEATS} teleports"):
        gate(s, _ScriptedRng(z_landing, *[_I] * gates.MAX_REPEATS))
    # one identity landing fewer, then II: the fix's last teleport lands the Z
    out = gate(s, _ScriptedRng(z_landing, *[_I] * (gates.MAX_REPEATS - 1), _II))
    assert out.success and out.applied == name
    assert out.repetitions == gates.MAX_REPEATS + 1


@pytest.mark.parametrize("picks, second_tables", [((_II,), 0), ((_I, 2, _I, _II), 1)])
def test_gate_z_on_a_leaked_input_builds_at_most_two_tables(monkeypatch, picks, second_tables):
    tables = _count_calls(monkeypatch, "_bell_rows")
    s = optics.displace(encode(0.6, 0.8, ENC), 0, 0.03 + 0.02j).normalize()
    out = gate_z(s, ENC, _ScriptedRng(*picks))
    assert out.success and out.applied == "Z" and out.repetitions == len(picks)
    # the input's own table, then, if the first landing was not the Z, one
    # table of that landed logical state for every later attempt
    assert len(tables) == 1 + second_tables


# (CoherentSuperposition constructions, overlap matrices, Bell resources) of
# one seeded call of each gate.  The first two are upper bounds: a throw-away
# state copy (an identity permutation, say) raises the first count.  A table
# of input (x) resource builds no joint state and at most one overlap
# matrix, of the input's other modes, with no more rows than the input has
# terms: none for a single-mode input (the resource's kept mode is a pair,
# scored by its two eigen-forms).  The resources are exact, one per Bell
# table or Rx table; their own constructions are not counted in the first.
_ENC_A, _ENC_B = QubitEncoding(2.0, 0), QubitEncoding(2.0, 1)


@pytest.mark.parametrize("gate, constructions, grams, resources, terms", [
    (lambda one, two, rng: teleport(one, ENC, rng), 3, 0, 1, 2),
    (lambda one, two, rng: gate_z(one, ENC, rng), 6, 0, 1, 2),
    (lambda one, two, rng: gate_rz(one, ENC, 0.01, rng), 4, 0, 1, 2),
    (lambda one, two, rng: gate_rx(one, ENC, rng=rng), 5, 0, 2, 2),
    (lambda one, two, rng: entangling_gate(two, _ENC_A, _ENC_B, 0.005, rng), 13, 3, 3, 4),
], ids=["teleport", "gate_z", "gate_rz", "gate_rx", "entangling_gate"])
def test_per_gate_state_constructions_and_gram_forms(
    monkeypatch, gate, constructions, grams, resources, terms
):
    one = encode(0.6, 0.8, ENC)
    two = optics.tensor(encode(0.6, 0.8, _ENC_A), encode(0.8, 0.6j, _ENC_B))
    counts = {"constructions": 0, "grams": 0, "resources": 0, "rows": 0}
    post_init, overlap = states.CoherentSuperposition.__post_init__, states._overlap_matrix
    resource = optics.bell_resource

    def counted_post_init(self):
        counts["constructions"] += 1
        post_init(self)

    def counted_overlap(*args):
        counts["grams"] += 1
        counts["rows"] = max(counts["rows"], len(args[0]))
        return overlap(*args)

    def counted_resource(alpha):
        counts["resources"] += 1
        before = counts["constructions"]
        out = resource(alpha)
        counts["constructions"] = before
        return out

    monkeypatch.setattr(states.CoherentSuperposition, "__post_init__", counted_post_init)
    monkeypatch.setattr(states, "_overlap_matrix", counted_overlap)
    monkeypatch.setattr(optics, "bell_resource", counted_resource)
    assert gate(one, two, np.random.default_rng(1)).success
    assert counts["constructions"] <= constructions
    assert counts["grams"] <= grams
    assert counts["rows"] <= terms
    assert counts["resources"] == resources


# ---------------------------------------------------------------------------
# tables of input (x) resource from the input's other modes and the
# resource's pair, against the joint state

def _register(n, alpha, rng, leaked):
    """An n-qubit register on modes 0..n-1 (K = 2^n terms); a leaked one
    moves every amplitude off {+alpha, -alpha} by its own small shift."""
    s = encode(*rng.normal(size=2), QubitEncoding(alpha))
    for q in range(1, n):
        s = optics.tensor(s, encode(*(rng.normal(size=2) + 1j * rng.normal(size=2)),
                                    QubitEncoding(alpha, q)))
    if leaked:
        shift = rng.normal(scale=0.02, size=s.amps.shape) * (1 + 1j)
        s = CoherentSuperposition(s.coeffs, s.amps + shift).normalize()
    return s


def _assert_same_table(table, joint_table):
    """Equal outcomes and, to round-off, equal probabilities and branch
    states.  Both Gram forms exponentiate the same exponents, of size up to
    M alpha^2 < 30 here, summed in another order: the overlaps agree to
    ~1e-14 relative, the probabilities to ~1e-16 (seen: 2e-16) and the
    states' squared distance 2 - 2 Re<x|y> to its own round-off (seen:
    2e-15)."""
    assert list(table) == list(joint_table)
    for outcome, rec in table.items():
        ref = joint_table[outcome]
        assert abs(rec.probability - ref.probability) <= 1e-13, outcome
        assert (rec.state is None) == (ref.state is None), outcome
        if ref.state is not None:
            assert rec.state.modes == ref.state.modes
            distance2 = 2 - 2 * states.inner_product(rec.state, ref.state).real
            assert abs(distance2) <= 1e-13, outcome


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_factored_tables_match_the_tables_of_the_joint_state(monkeypatch, leaked):
    table = measure._table
    rng = np.random.default_rng(17)
    for n, alpha in ((1, 1.0), (2, 1.5), (4, 2.0), (6, 1.5)):
        s = _register(n, alpha, rng, leaked)
        for mode in sorted({0, n // 2, n - 1}):
            enc = QubitEncoding(alpha, mode)
            joint = optics.tensor(s, optics.bell_resource(alpha))
            rest = np.delete(joint.amps, [mode, n], axis=1)
            if leaked:
                # the same rows on the joint state's measured columns,
                # against the +/-alpha nearest the mode's largest amplitude
                top = s.amps[np.abs(s.amps[:, mode]).argmax(), mode]
                ref = alpha if abs(top - alpha) <= abs(top + alpha) else -alpha
                rows = measure._bell_rows(joint.amps[:, mode], joint.amps[:, n], ref)
                bell = table("bell_measurement", joint.coeffs, rest, rows)
            else:
                bell = measure.bell_outcomes(joint, mode, n)
            _assert_same_table(gates._bell_table(s, enc), bell)
            # gate_rx's table, against `_table` on the joint state's mixed columns
            built = []
            monkeypatch.setattr(measure, "_table", lambda *a: built.append(table(*a)) or built[-1])
            gate_rx(s, enc)
            monkeypatch.setattr(measure, "_table", table)
            a, b = optics.beamsplitter(joint, mode, n, np.pi / (8 * alpha**2)).amps[:, [mode, n]].T
            parity = {"even": +1, "odd": -1}
            wa = {k: measure._cat_weights(alpha, p, a) for k, p in parity.items()}
            wb = {k: measure._cat_weights(alpha, p, b) for k, p in parity.items()}
            rows = [((ka, kb), 1.0, wa[ka] * wb[kb], True) for kb in parity for ka in parity]
            _assert_same_table(built[0], table("cat_projection", joint.coeffs, rest, rows))


def _table_probabilities_50_digits(coeffs, rest, rows, pair):
    """Each row's factor times sum_jk conj(v_j) v_k <x_j|x_k>, v = w *
    coeffs, over the joint rest x (rest row j and pair row r for term 2j +
    r, as optics.tensor combines them), in 50-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    joint = np.concatenate([np.repeat(rest, 2, axis=0), np.tile(pair, (len(rest), 1))], axis=1)
    with mp.workdps(50):
        x = [[mp.mpc(a) for a in row] for row in joint]
        gram = [[mp.exp(mp.fsum(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + mp.conj(a) * b
                                for a, b in zip(xj, xk))) for xk in x] for xj in x]
        out = []
        for _, factor, w, _ in rows:
            v = [mp.mpc(c) * mp.mpc(complex(wk)) for c, wk in zip(coeffs, w)]
            form = mp.fsum(mp.conj(v[j]) * gram[j][k] * v[k]
                           for j in range(len(v)) for k in range(len(v)))
            out.append(float(mp.mpf(factor) * form.real))
        return out


@pytest.mark.parametrize("alpha", [1e-2, 1e-3, 1e-4])
def test_gate_tables_match_a_50_digit_sum_over_the_joint_rest(monkeypatch, alpha):
    # The resource's pair is scored by its two eigen-forms, each >= 0, with
    # 1 - o from expm1; the pair's plain form F00 + F11 + 2o Re F01 cancels
    # here, by up to 8e-10 relative at alpha = 1e-4.  An odd input (mu =
    # -nu) is left out: its FAIL and even/even rows are 0 but for round-off,
    # where the input's own terms cancel (a K-term form, not the pair).
    built = []
    table = measure._table
    monkeypatch.setattr(measure, "_table", lambda *a: built.append((a, table(*a))) or built[-1][1])
    enc = QubitEncoding(alpha)
    for mu, nu in ((1, 1), (0.6, 0.8j)):
        s = encode(mu, nu, enc)
        for gate in (gates._bell_table, gate_rx):
            built.clear()
            gate(s, enc)
            (kind, coeffs, rest, rows, pair), recs = built[0]
            refs = _table_probabilities_50_digits(coeffs, rest, rows, pair)
            for (outcome, *_), ref in zip(rows, refs):
                assert abs(recs[outcome].probability - ref) <= 4 * 2.0**-52 * ref, (kind, mu, nu, outcome)


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_no_gate_on_a_six_qubit_register_forms_an_overlap_matrix_past_its_terms(
    monkeypatch, leaked
):
    s = _register(6, 1.5, np.random.default_rng(3), leaked)
    # (rows, terms of the state whose table is being scored) per overlap matrix
    rows, terms = [], [0]
    overlap, with_resource = states._overlap_matrix, gates._with_resource
    monkeypatch.setattr(states, "_overlap_matrix",
                        lambda x, y: rows.append((len(x), terms[0])) or overlap(x, y))
    monkeypatch.setattr(gates, "_with_resource",
                        lambda x, enc: terms.__setitem__(0, x.nterms) or with_resource(x, enc))
    enc_a, enc_b = QubitEncoding(1.5, 2), QubitEncoding(1.5, 4)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        teleport(s, enc_a, rng)
        gate_rz(s, enc_a, 0.02, rng)
        gate_rx(s, enc_b, rng=rng)
        entangling_gate(s, enc_a, enc_b, 0.02, rng)
    assert rows and all(n <= k for n, k in rows)
    if not leaked:
        # every branch merges back to the register's 64 terms; a leaked
        # register's Rx branch keeps all 128 (s's other modes differ too)
        assert max(n for n, _ in rows) == s.nterms == 64
