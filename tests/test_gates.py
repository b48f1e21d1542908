import math

import numpy as np
import pytest

from catsim import optics
from catsim.gates import (
    CNOT,
    GateFailure,
    QubitEncoding,
    cnot_dressing_search,
    decode,
    decode_two,
    encode,
    entangling_gate,
    gate_rx,
    gate_rz,
    gate_x,
    gate_z,
    logical_coefficients,
    process_fidelity,
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
    for branch, residual in (("I", "identity"), ("II", "Z"), ("III", "identity"), ("IV", "Z")):
        out = teleport(s, ENC, branch=branch)
        assert out.success and out.applied == residual
        m, n, _ = decode(out.state, ENC)
        expected = (0.8j / 0.6) * (-1 if residual == "Z" else 1)
        assert n / m == pytest.approx(expected, rel=1e-9)
    # branch probabilities over all five outcomes sum to one
    total = sum(
        teleport(s, ENC, branch=b).probability for b in ("I", "II", "III", "IV", "FAIL")
    )
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
    p_fail = teleport(s, ENC, branch="FAIL").probability
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
    fid, _ = cnot_dressing_search(gate)
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


def test_process_fidelity_trivial_cases():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    assert process_fidelity(lambda v: u @ v, u) == pytest.approx(1.0, abs=1e-12)
    # global phase and scale invariance
    assert process_fidelity(lambda v: 0.3j * (u @ v), u) == pytest.approx(1.0, abs=1e-12)
    assert process_fidelity(lambda v: v, u) == pytest.approx(0.0, abs=1e-12)
    assert CNOT.shape == (4, 4)


def test_gate_outcome_trace_records():
    out = gate_rz(encode(1.0, 1.0, ENC), ENC, 0.001)
    assert len(out.trace) >= 2
    kinds = [t[0] for t in out.trace]
    assert "displace" in kinds and "bell_measurement" in kinds


def test_teleport_fail_branch():
    s = encode(1.0, 1.0, ENC)
    out = teleport(s, ENC, branch="FAIL")
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
