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

from bell_columns import bell_rows
import referee
from recorder import ScriptedRng, record, scripted_draws  # noqa: F401 (a fixture)

pytestmark = pytest.mark.usefixtures("scripted_draws")

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
        out = teleport(s, ENC, ScriptedRng(branch))
        assert out.success and out.applied == residual
        m, n, _ = decode(out.state, ENC)
        expected = (0.8j / 0.6) * (-1 if residual == "Z" else 1)
        assert n / m == pytest.approx(expected, rel=1e-9)
    # branch probabilities over all five outcomes sum to one
    total = sum(teleport(s, ENC, ScriptedRng(b)).probability for b in range(5))
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
    p_fail = teleport(s, ENC, ScriptedRng(_FAIL)).probability
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
    at_zero = gates._bell_step(s, enc)
    for theta_alpha2 in (1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-4, 1e-2):
        theta = theta_alpha2 / alpha**2
        table = gates._bell_step(optics.displace(s, 0, 1j * alpha * theta), enc)
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


@pytest.mark.parametrize("alphas", [(2.0, 2.5), (2.5, 2.0)])
def test_entangling_gate_is_named_by_the_phase_it_applies(alphas):
    # two encodings of different alpha: the gate applies ZZ(theta a_a a_b),
    # not ZZ(theta a_a^2); the aligned-minus-mixed phase is 4 a_a a_b sin(theta/2)
    enc_a, enc_b = QubitEncoding(alphas[0], 0), QubitEncoding(alphas[1], 1)
    theta = 0.02 / (alphas[0] * alphas[1])
    s = optics.tensor(encode(1.0, 1.0, enc_a), encode(1.0, 1.0, enc_b))
    out = entangling_gate(s, enc_a, enc_b, theta)
    assert out.applied == "ZZ(0.02)"
    x, leak = decode_two(out.state, enc_a, enc_b)
    assert leak < 1e-10
    rel = np.angle(x[0] / x[1])
    assert abs(rel - 4 * alphas[0] * alphas[1] * math.sin(theta / 2)) < 1e-9


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
    out = teleport(s, ENC, ScriptedRng(_FAIL))
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
    ctx = referee.ctx()
    n = len(encs)
    basis = [[e.alpha if (i >> (n - 1 - q)) & 1 else -e.alpha for q, e in enumerate(encs)]
             for i in range(2**n)]
    terms = [[complex(a[e.mode]) for e in encs] for a in s.amps]
    b = [ctx.fsum(complex(c) * referee.overlap(bi, t) for c, t in zip(s.coeffs, terms))
         for bi in basis]
    return np.array([complex(v) for v in ctx.lu_solve(referee.gram(basis), b)])


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


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
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
    outs = [teleport(s, enc_a, ScriptedRng(b)) for b in range(5)]
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
    out = gate(s, ScriptedRng(*picks))
    assert not out.success and out.applied == "FAIL" and out.state is s
    steps = [t for t in out.trace if t[0] in ("bell_measurement", "cat_projection")]
    assert steps[-1][2] == "FAIL"
    assert out.repetitions == len(steps) == repetitions
    assert out.probability == pytest.approx(math.prod(t[3] for t in steps), rel=1e-14)


def test_a_gate_rx_flip_branch_lands_like_a_teleport():
    enc = QubitEncoding(2.0)
    mu, nu = 0.6 + 0.2j, 0.7 - 0.3j
    # (odd, even): X correction, then a Z residual that gate_z lands on II
    out = gate_rx(encode(mu, nu, enc), enc, rng=ScriptedRng(1, _II))
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


def test_gate_z_draws_every_attempt_from_one_table():
    with record("tables", "branch_states") as log:
        out = gate_z(encode(0.6, 0.8, ENC), ENC, ScriptedRng(_I, 2, _I, _II))
        assert out.success and out.applied == "Z" and out.repetitions == 4
        assert [t[2] for t in out.trace if t[0] == "bell_measurement"] == ["I", "III", "I", "II"]
        assert sum(t[0] == "phase_shift" for t in out.trace) == 1
        assert len(log.tables) == 1
        # only the Z landing builds a state: the identity landings' states
        # would be read by no one, as the next attempt reads the kept table
        assert len(log.branch_states) == 1
        # identity landings all the way to the cap: still one table, then a GateFailure
        with pytest.raises(GateFailure, match=f"within {gates.MAX_REPEATS} teleports"):
            gate_z(encode(0.6, 0.8, ENC), ENC, ScriptedRng(*[_I] * gates.MAX_REPEATS))
    assert len(log.tables) == 2


@pytest.mark.parametrize("gate, z_landing, name", [
    (lambda s, rng: gate_rz(s, ENC, 0.01, rng), _II, "Rz(0.16)"),
    (lambda s, rng: gate_rx(s, ENC, rng=rng), _EVEN_ODD, "Rx(1.5708)"),
], ids=["gate_rz", "gate_rx"])
def test_the_z_fix_inside_a_gate_keeps_the_repeat_cap(gate, z_landing, name):
    s = encode(0.6, 0.8, ENC)
    # a Z landing, then identity landings only: the fix gives up after MAX_REPEATS teleports
    with pytest.raises(GateFailure, match=f"Z branch did not land within {gates.MAX_REPEATS} teleports"):
        gate(s, ScriptedRng(z_landing, *[_I] * gates.MAX_REPEATS))
    # one identity landing fewer, then II: the fix's last teleport lands the Z
    out = gate(s, ScriptedRng(z_landing, *[_I] * (gates.MAX_REPEATS - 1), _II))
    assert out.success and out.applied == name
    assert out.repetitions == gates.MAX_REPEATS + 1


@pytest.mark.parametrize("picks, second_tables", [((_II,), 0), ((_I, 2, _I, _II), 1)])
def test_gate_z_on_a_leaked_input_builds_at_most_two_tables(picks, second_tables):
    s = optics.displace(encode(0.6, 0.8, ENC), 0, 0.03 + 0.02j).normalize()
    with record("tables") as log:
        out = gate_z(s, ENC, ScriptedRng(*picks))
    assert out.success and out.applied == "Z" and out.repetitions == len(picks)
    # the input's own table, then, if the first landing was not the Z, one
    # table of that landed logical state for every later attempt
    assert len(log.tables) == 1 + second_tables


@pytest.mark.parametrize("land", [
    lambda s: teleport(s, ENC, ScriptedRng(_III)),
    lambda s: teleport(s, ENC, ScriptedRng(_IV)),
    lambda s: gate_rx(s, ENC, rng=ScriptedRng(3)),
], ids=["teleport_III", "teleport_IV", "gate_rx_odd_odd"])
def test_gate_z_on_an_x_corrected_landing_builds_one_table(land):
    # the X correction negates the landed column exactly, so the output is
    # exactly on {+alpha, -alpha} and gate_z keeps its first table
    landed = land(encode(0.6, 0.8, ENC))
    assert any(t[0] == "phase_shift" for t in landed.trace)
    assert np.isin(landed.state.amps, (-ENC.alpha, ENC.alpha)).all()
    with record("tables") as log:
        out = gate_z(landed.state, ENC, ScriptedRng(_I, _III, _II))
    assert out.success and out.applied == "Z" and out.repetitions == 3
    assert len(log.tables) == 1


def _z(s, mode):
    """Z on the qubit in `mode` of a logical register, normalized: the sign
    of every term whose amplitude there is +alpha (logical 1) flipped."""
    signs = np.where(s.amps[:, mode].real > 0, -1, 1)
    return CoherentSuperposition(s.coeffs * signs, s.amps).normalize()


@pytest.mark.parametrize("gate", [teleport, lambda s, enc, rng: gate_rx(s, enc, rng=rng)],
                         ids=["teleport", "gate_rx"])
def test_a_gate_returns_its_drawn_records_landed_state(gate):
    # the record carries the landing, X-corrected for III/IV and an odd
    # input: the gate's output is that record's own state object, with no
    # second build and no correction after the draw
    enc = QubitEncoding(1.5, 1)
    s = _register(2, 1.5, np.random.default_rng(5), False)
    drawn = set()
    for seed in range(40):
        with record("tables") as log:
            out = gate(s, enc, np.random.default_rng(seed))
        if not out.success or out.repetitions > 1:
            continue  # a FAIL, or a Z fix's teleport landed last
        (outcome,) = [t[2] for t in out.trace if t[0] in ("bell_measurement", "cat_projection")]
        table = log.tables[0].result
        key = {str(k): k for k in table}[outcome]
        rec = table[key]
        drawn.add(key)
        assert out.state is rec.state
        if gate is teleport:
            # the identity or Z on the input, III and IV X-corrected
            expected = s if out.applied == "identity" else _z(s, 1)
            assert fidelity(out.state, expected) >= 1 - 1e-12, key
        else:
            # the 2K joint terms landed, an odd input's kept column negated
            coeffs, w, n2, _ = rec.build
            landed = _joint_pair_landing(coeffs, w, n2, measure._rest(s.amps, [1]), 1.5, 1,
                                         key in _X_CORRECTED)
            assert out.state.amps.tobytes() == landed.amps.tobytes(), key
            assert out.state.coeffs.tobytes() == landed.coeffs.tobytes(), key
    assert drawn & set(_X_CORRECTED) and drawn - set(_X_CORRECTED)


def test_a_record_drawn_again_builds_its_state_once():
    s = encode(0.6, 0.8, ENC)
    repeated = 0
    for seed in range(30):
        with record("branch_states", "tables") as log:
            out = gate_z(s, ENC, np.random.default_rng(seed))
        if out.success and out.repetitions > 1:
            # several draws from one kept table; only the Z landing is read
            repeated += 1
            assert len(log.tables) == 1
            assert len(log.branch_states) == 1
    assert repeated
    # one record landed twice: built on its first read, then reused
    table = gates._bell_step(s, ENC)
    start = GateOutcome(s, True, "identity", 1.0, 0)
    with record("branch_states") as log:
        first = gates._draw(start, ENC, table, None, "II")
        again = gates._draw(start, ENC, table, None, "II")
        assert again.state is first.state is table["II"].state
    assert len(log.branch_states) == 1


# (CoherentSuperposition constructions, overlap matrices, Bell resources) of
# one seeded call of each gate.  The first two are upper bounds, met here: a
# throw-away state (a mode permutation, an X pass, an attempt's landing that
# nothing reads) raises the first count.  A drawn branch lands in one build,
# plus one when its terms merge; gate_z's identity landings build nothing,
# and gate_rz's displacement is one more.  A table of input (x) resource
# builds no joint state and at most one overlap matrix, of the input's
# other modes, with no more rows than the input has terms: none for a
# single-mode input (the resource's kept mode is a pair, scored by its two
# eigen-forms).  The resources are exact, one closed-form read
# (`gates._resource`) per Bell table or Rx table, with no state built.
_ENC_A, _ENC_B = QubitEncoding(2.0, 0), QubitEncoding(2.0, 1)


@pytest.mark.parametrize("gate, constructions, grams, resources, terms", [
    (lambda one, two, rng: teleport(one, ENC, rng), 1, 0, 1, 2),
    (lambda one, two, rng: gate_z(one, ENC, rng), 1, 0, 1, 2),
    (lambda one, two, rng: gate_rz(one, ENC, 0.01, rng), 2, 0, 1, 2),
    (lambda one, two, rng: gate_rx(one, ENC, rng=rng), 3, 0, 2, 2),
    (lambda one, two, rng: entangling_gate(two, _ENC_A, _ENC_B, 0.005, rng), 4, 3, 3, 4),
], ids=["teleport", "gate_z", "gate_rz", "gate_rx", "entangling_gate"])
def test_per_gate_state_constructions_and_gram_forms(gate, constructions, grams, resources, terms):
    one = encode(0.6, 0.8, ENC)
    two = optics.tensor(encode(0.6, 0.8, _ENC_A), encode(0.8, 0.6j, _ENC_B))
    with record("states", "grams", "resources") as log:
        assert gate(one, two, np.random.default_rng(1)).success
    assert len(log.states) <= constructions
    assert len(log.grams) <= grams
    assert max((len(g.args[0]) for g in log.grams), default=0) <= terms
    assert len(log.resources) == resources


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


# the outcomes of a Bell table and of gate_rx's table that land X-corrected
_X_CORRECTED = ("III", "IV", ("odd", "even"), ("odd", "odd"))


def _assert_same_table(table, joint_table, s, enc):
    """Equal outcomes and, to round-off, equal probabilities and branch
    states, each kept branch of the table on the joint state s (x) resource
    landed as the gate lands it (`_joint_pair_landing`).  Both Gram forms
    exponentiate the same exponents, of size up to M alpha^2 < 30 here,
    summed in another order: the overlaps agree to ~1e-14 relative, the
    probabilities to ~1e-16 (seen: 2e-16) and the states' squared distance
    2 - 2 Re<x|y> to its own round-off (seen: 2e-15)."""
    assert list(table) == list(joint_table)
    rest = measure._rest(s.amps, [enc.mode])
    for outcome, rec in table.items():
        ref = joint_table[outcome]
        assert abs(rec.probability - ref.probability) <= 1e-13, outcome
        assert (rec.state is None) == (ref.state is None), outcome
        if ref.state is not None:
            coeffs, w, n2, _ = ref.build
            landed = _joint_pair_landing(coeffs, w, n2, rest, enc.alpha, enc.mode,
                                         outcome in _X_CORRECTED)
            assert rec.state.modes == landed.modes
            distance2 = 2 - 2 * states.inner_product(rec.state, landed).real
            assert abs(distance2) <= 1e-13, outcome


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_factored_tables_match_the_tables_of_the_joint_state(leaked):
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
                rows = bell_rows(joint.amps[:, mode], joint.amps[:, n], ref)
                bell = table("bell_measurement", joint.coeffs, rest, rows)
            else:
                bell = measure.bell_outcomes(joint, mode, n)
            _assert_same_table(gates._bell_step(s, enc), bell, s, enc)
            # gate_rx's table, against `_table` on the joint state's mixed columns
            with record("tables") as log:
                gate_rx(s, enc)
            a, b = optics.beamsplitter(joint, mode, n, np.pi / (8 * alpha**2)).amps[:, [mode, n]].T
            parity = ("even", "odd")
            wa = dict(zip(parity, measure._cat_weights(alpha, a)))
            wb = dict(zip(parity, measure._cat_weights(alpha, b)))
            rows = [((ka, kb), 1.0, wa[ka] * wb[kb], True) for kb in parity for ka in parity]
            joint_rx = table("cat_projection", joint.coeffs, rest, rows)
            _assert_same_table(log.tables[0].result, joint_rx, s, enc)


def _table_probabilities_50_digits(coeffs, rest, rows):
    """Each row's factor times sum_jk conj(v_j) v_k <x_j|x_k>, v = w *
    coeffs, over the remaining amplitude rows x, in 50-digit arithmetic."""
    ctx, gram = referee.ctx(), referee.gram(rest)
    return [float(referee.form([ctx.mpc(c) * wk for c, wk in zip(coeffs, w)], gram).real * factor)
            for _, factor, w, _ in rows]


@pytest.mark.parametrize("alpha", [1e-2, 1e-3, 1e-4])
def test_gate_tables_match_a_50_digit_sum_over_the_joint_rest(alpha):
    # The resource's pair is scored by its two eigen-forms, each >= 0, with
    # 1 - o from expm1; the pair's plain form F00 + F11 + 2o Re F01 cancels
    # here, by up to 8e-10 relative at alpha = 1e-4.  An odd input (mu =
    # -nu) is left out: its FAIL and even/even rows are 0 but for round-off,
    # where the input's own terms cancel (a K-term form, not the pair).
    # The reference sums over the joint state s (x) resource with the rows
    # of its measured columns: the Bell rows against the gate's reference,
    # and gate_rx's cat weights after its beam splitter.  Those row weights
    # are catsim's floats (`bell_rows`, `_cat_weights`), not 50-digit ones:
    # at these alpha the pair's forms cancel, and only with the same float
    # weights on both sides does the 4 eps bound measure the summation
    # alone; the weights' own rounding, magnified by the cancellation,
    # could exceed it.
    enc = QubitEncoding(alpha)
    parity = ("even", "odd")
    for mu, nu in ((1, 1), (0.6, 0.8j)):
        s = encode(mu, nu, enc)
        joint = optics.tensor(s, optics.bell_resource(alpha))
        top = s.amps[np.abs(s.amps[:, 0]).argmax(), 0]
        ref = alpha if abs(top - alpha) <= abs(top + alpha) else -alpha
        bell = bell_rows(joint.amps[:, 0], joint.amps[:, 1], ref)
        mixed = optics.beamsplitter(joint, 0, 1, np.pi / (8 * alpha**2))
        a, b = mixed.amps[:, :2].T
        wa = dict(zip(parity, measure._cat_weights(alpha, a)))
        wb = dict(zip(parity, measure._cat_weights(alpha, b)))
        rx = [((ka, kb), 1.0, wa[ka] * wb[kb], True) for kb in parity for ka in parity]
        for name, gate, rows, rest in (("bell", gates._bell_step, bell, joint.amps[:, 2:]),
                                       ("rx", gate_rx, rx, mixed.amps[:, 2:])):
            with record("tables") as log:
                gate(s, enc)
            refs = _table_probabilities_50_digits(joint.coeffs, rest, rows)
            for (outcome, *_), ref_p in zip(rows, refs):
                p = log.tables[0].result[outcome].probability
                assert abs(p - ref_p) <= 4 * 2.0**-52 * ref_p, (name, mu, nu, outcome)


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_no_gate_on_a_six_qubit_register_forms_an_overlap_matrix_past_its_terms(leaked):
    s = _register(6, 1.5, np.random.default_rng(3), leaked)
    enc_a, enc_b = QubitEncoding(1.5, 2), QubitEncoding(1.5, 4)
    with record("rests", "grams") as log:
        for seed in range(3):
            rng = np.random.default_rng(seed)
            teleport(s, enc_a, rng)
            gate_rz(s, enc_a, 0.02, rng)
            gate_rx(s, enc_b, rng=rng)
            entangling_gate(s, enc_a, enc_b, 0.02, rng)
    # (rows, terms of the state whose table is being scored) per overlap
    # matrix; every gate's table reads its input's other modes by `_rest`
    rows = [(len(g.args[0]), len(r.args[0])) for r, g in log.pairs("rests", "grams")]
    assert rows and all(n <= k for n, k in rows)
    if not leaked:
        # every branch merges back to the register's 64 terms; a leaked
        # register's Rx branch keeps all 128 (s's other modes differ too)
        assert max(n for n, _ in rows) == s.nterms == 64


def _joint_pair_bell_table(s, enc):
    """A teleport's Bell table scored on the 2K joint terms of s (x)
    resource, term 2j + r s's term j times resource term r (the order of
    `optics.tensor`): `measure._bell_rows` on the two measured columns, each
    row's squared norm from the resource pair's two eigen-forms F(v_0 +/-
    v_1) on s's other modes.  {outcome: (probability, weights, n2)}, with
    the joint coefficients and s's other modes."""
    c = np.full(2, 1 / states._pair_norm(2 * enc.alpha * enc.alpha, 1, 1), dtype=complex)
    x = np.array([enc.alpha, -enc.alpha], dtype=complex)
    coeffs = (s.coeffs[:, None] * c[None, :]).reshape(-1)
    a = s.amps[:, enc.mode]
    top = complex(a[np.abs(a).argmax()])
    ref = enc.alpha if abs(top - enc.alpha) <= abs(top + enc.alpha) else -enc.alpha
    rows = bell_rows(np.repeat(a, 2), np.tile(x, s.nterms), ref)
    rest = measure._rest(s.amps, [enc.mode])
    v = np.array([w for _, _, w, _ in rows]) * coeffs
    v0, v1 = v[..., 0::2], v[..., 1::2]
    u = np.stack([v0 + v1, v0 - v1])
    f = states._gram_forms(rest, u, rest, u).real if rest.shape[1] else np.abs(u.sum(axis=-1)) ** 2
    e = math.expm1(-2 * enc.alpha * enc.alpha)
    norms = (1 + 0.5 * e) * f[0] - 0.5 * e * f[1]
    table = {o: (float(factor * n2), w, n2) for (o, factor, w, _), n2 in zip(rows, norms)}
    return table, coeffs, rest


def _joint_pair_landing(coeffs, w, n2, rest, alpha, at, flip):
    """The branch of joint weights w landed from the 2K joint terms: term
    2j + r keeps rest row j and resource row r, (-1)^r alpha, in mode `at`,
    negated for an X correction, then merged."""
    live = w.nonzero()[0]
    pair = np.array([[alpha], [-alpha]], dtype=complex)
    rows = rest[live // 2]
    amps = np.concatenate([rows[:, :at], (-pair if flip else pair)[live % 2], rows[:, at:]], axis=1)
    return CoherentSuperposition(coeffs[live] * w[live] / np.sqrt(n2), amps).merge_terms()


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_bell_tables_on_the_inputs_terms_match_the_joint_pair_tables(leaked):
    # The resource's measured column is exactly +/-alpha, so each input term
    # meets one resource term per row and the 2K-term table factors into
    # three K-term forms.  A single-mode input sums its forms without BLAS
    # and must agree bit for bit; a Gram form through BLAS may round
    # otherwise with another stacking of the same vectors (4 eps).  A
    # landing, given the record's norm, keeps the same terms in the same
    # order, X-corrected exactly for III and IV, so its bytes are equal.
    rng = np.random.default_rng(41)
    for n, alpha in ((1, 1.0), (1, 2.0), (2, 1.5), (3, 2.0), (4, 1.5)):
        for _ in range(3):
            s = _register(n, alpha, rng, leaked)
            for mode in range(n):
                enc = QubitEncoding(alpha, mode)
                joint, coeffs, rest = _joint_pair_bell_table(s, enc)
                table = gates._bell_step(s, enc)
                assert list(table) == list(joint)
                for outcome, rec in table.items():
                    p, w, n2 = joint[outcome]
                    if n == 1:
                        assert rec.probability == p, (n, mode, outcome)
                    else:
                        assert abs(rec.probability - p) <= 4 * 2.0**-52 * p, (n, mode, outcome)
                    if rec.build is None:
                        continue
                    flip = outcome in _X_CORRECTED
                    ref = _joint_pair_landing(coeffs, w, rec.build[2], rest, alpha, mode, flip)
                    assert rec.state.coeffs.tobytes() == ref.coeffs.tobytes(), (n, mode, outcome)
                    assert rec.state.amps.tobytes() == ref.amps.tobytes(), (n, mode, outcome)


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
def test_no_bell_table_reads_the_joint_terms(leaked):
    # every Bell table of teleport, Z, Rz and the entangling gate is scored
    # and landed on its input's K terms: no pair form of more than K terms
    # (gate_rx's joint read), no 2K-row array in a record, no overlap
    # matrix past K x K, and every landing in the input's own modes
    s = _register(3, 1.5, np.random.default_rng(9), leaked)
    enc_a, enc_b = QubitEncoding(1.5, 0), QubitEncoding(1.5, 2)
    with record("rests", "forms", "tables", "grams") as log:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            teleport(s, enc_a, rng)
            gate_z(s, enc_b, rng)
            gate_rz(s, enc_a, 0.02, rng)
            entangling_gate(s, enc_a, enc_b, 0.02, rng)
    # each call paired with the terms of the state being scored, the rows
    # of the last `_rest` read before it
    forms = [(f.args[1].shape[-1], len(r.args[0])) for r, f in log.pairs("rests", "forms")]
    tables = [(len(r.args[0]), t.result) for r, t in log.pairs("rests", "tables")]
    grams = [(len(g.args[0]), len(r.args[0])) for r, g in log.pairs("rests", "grams")]
    assert tables and grams and forms
    assert all(n <= k for n, k in grams)
    assert all(n == k for n, k in forms)
    for k, recs in tables:
        for rec in recs.values():
            if rec.build is not None:
                coeffs, w, n2, amps = rec.build
                assert len(coeffs) == len(w) == k
                assert amps.shape == (k, s.modes)
