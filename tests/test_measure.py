import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from catsim import fockoracle as fo
from catsim import gates, measure, metrology, optics, states
from catsim.audit import DIST_TOL
from catsim.measure import (
    MeasurementRecord,
    UnsupportedStateError,
    bell_outcomes,
    cat_projection,
    default_nmax,
    fock_amplitude,
    homodyne_condition,
    homodyne_pdf,
    homodyne_sample,
    parity_projection,
    photon_statistics,
    project_photon_number,
    sample,
    sample_counts,
)
from catsim.states import (
    CoherentSuperposition,
    ZeroNormError,
    bell_cat,
    cat,
    coherent,
    fidelity,
    vacuum,
)


def test_fock_amplitude_closed_form():
    a = 1.3 * np.exp(0.4j)
    for n in (0, 1, 5, 30):
        ref = np.exp(-0.5 * abs(a) ** 2) * a**n / math.sqrt(math.factorial(n))
        assert fock_amplitude(n, a) == pytest.approx(ref, rel=1e-12)
    assert fock_amplitude(0, 0.0) == 1.0
    assert fock_amplitude(3, 0.0) == 0.0


def test_photon_statistics_poisson():
    stats = photon_statistics(coherent(1.5), 0, 40)
    n = np.arange(41)
    log_factorial = np.array([math.lgamma(k + 1) for k in n])
    poisson = np.exp(-(1.5**2) + n * np.log(1.5**2) - log_factorial)
    assert np.max(np.abs(stats - poisson)) < 1e-12
    # statistics sum to ~1 at the default cutoff
    assert abs(np.sum(photon_statistics(cat(2.0, +1), 0)) - 1.0) < 1e-12


def test_even_cat_photon_parity():
    stats = photon_statistics(cat(2.0, +1), 0, 30)
    assert np.max(stats[1::2]) < 1e-16


def test_project_photon_number():
    rec = project_photon_number(coherent(1.0, 0.5), 0, 1)
    assert rec.probability == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert fidelity(rec.state, coherent(0.5)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ZeroNormError):
        project_photon_number(cat(1.0, +1), 0, 1)


def test_parity_projection_on_cat_superposition():
    # (even cat)|x> + (odd cat) structure: conditioning separates exactly
    a = 2.0
    s = CoherentSuperposition(
        np.array([0.8, 0.6]), np.array([[a], [-a]])
    ).normalize()
    recs = parity_projection(s, 0)
    total = sum(r.probability for r in recs.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    # even branches condition onto the even cat direction
    for name in ("zero", "even_nonzero"):
        st = recs[name].state
        assert st.modes == 0  # fully measured
    odd_weight = math.exp(-(a**2)) * math.sinh(a**2)
    coeff = (0.8 - 0.6) / math.sqrt(s.norm_squared())  # unnormalized odd component
    # probability of odd class = weight * |mu - nu|^2 (pre normalization)
    s_unnorm = CoherentSuperposition(np.array([0.8, 0.6]), np.array([[a], [-a]]))
    expected = odd_weight * abs(0.8 - 0.6) ** 2 / s_unnorm.norm_squared()
    assert recs["odd"].probability == pytest.approx(expected, rel=1e-12)


def test_parity_projection_requires_two_point_support():
    with pytest.raises(UnsupportedStateError):
        parity_projection(
            CoherentSuperposition(np.array([1.0, 1.0]), np.array([[1.0], [2.0]])), 0
        )


def test_cat_projection_matches_parity_classes():
    a = 2.0
    s = CoherentSuperposition(np.array([0.8, 0.6j]), np.array([[a], [-a]])).normalize()
    recs = parity_projection(s, 0)
    pe = cat_projection(s, 0, a, +1)
    po = cat_projection(s, 0, a, -1)
    assert pe.probability == pytest.approx(
        recs["zero"].probability + recs["even_nonzero"].probability, rel=1e-12
    )
    assert po.probability == pytest.approx(recs["odd"].probability, rel=1e-12)
    assert pe.probability + po.probability == pytest.approx(1.0, abs=1e-12)


def test_homodyne_pdf_coherent_gaussian():
    a = 1.2
    xs = np.linspace(-6, 8, 141)
    pdf = np.array([homodyne_pdf(coherent(a), 0, x) for x in xs])
    mean = math.sqrt(2) * a
    ref = np.exp(-((xs - mean) ** 2)) / math.sqrt(math.pi)  # variance 1/2
    assert np.max(np.abs(pdf - ref)) < 1e-12


def test_homodyne_pdf_normalizes():
    s = cat(2.0, +1)
    xs = np.linspace(-2.0 * math.sqrt(2) - 8.0, 2.0 * math.sqrt(2) + 8.0, 4001)
    pdf = np.array([homodyne_pdf(s, 0, x) for x in xs])
    integral = np.trapezoid(pdf, xs)
    assert integral == pytest.approx(1.0, abs=1e-10)


def test_homodyne_condition_and_sample():
    s = optics.tensor(cat(1.5, +1), coherent(0.3))
    rec = homodyne_condition(s, 0, 0.7)
    assert rec.state.modes == 1
    assert rec.probability == pytest.approx(homodyne_pdf(s, 0, 0.7), rel=1e-12)
    rng = np.random.default_rng(5)
    sampled = homodyne_sample(s, 0, rng)
    assert sampled.kind == "homodyne"
    assert sampled.state.modes == 1


def test_bell_outcomes_classify_bell_cats():
    for kind, name in zip(("i", "ii", "iii", "iv"), ("I", "II", "III", "IV")):
        recs = bell_outcomes(bell_cat(2.0, kind), 0, 1)
        total = sum(r.probability for r in recs.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert recs[name].probability + recs["FAIL"].probability == pytest.approx(
            1.0, abs=1e-10
        )
        for other in recs:
            if other not in (name, "FAIL"):
                assert recs[other].probability < 1e-14


def test_bell_fail_probability_decays():
    alphas = np.linspace(1.0, 3.0, 9)
    fails = [bell_outcomes(bell_cat(a, "i"), 0, 1)["FAIL"].probability for a in alphas]
    logs = np.log(fails)
    slope, intercept = np.polyfit(alphas**2, logs, 1)
    assert slope == pytest.approx(-2.0, abs=0.05)


@pytest.mark.parametrize("make_state", [
    lambda: coherent(1.0, 2.0),
    lambda: optics.tensor(cat(1.5, +1), cat(1.5 * np.exp(0.3j), -1)),
    lambda: optics.tensor(cat(1.5, +1), cat(3.0, +1)),
    lambda: optics.tensor(vacuum(), cat(1.5, +1)),
], ids=["coherent", "rotated", "doubled", "vacuum_a"])
def test_bell_outcomes_requires_logical_support(make_state):
    with pytest.raises(UnsupportedStateError):
        bell_outcomes(make_state(), 0, 1)


def test_bell_outcomes_on_two_vacuum_modes_always_fail():
    recs = bell_outcomes(vacuum(2), 0, 1)
    assert recs["FAIL"].probability == 1.0
    assert recs["FAIL"].state is None
    for name in ("I", "II", "III", "IV"):
        assert recs[name].probability == 0.0
        assert recs[name].state is None


def test_measurements_on_a_zero_term_state_read_all_zero():
    empty = CoherentSuperposition(np.zeros(0, complex), np.zeros((0, 2), complex))
    np.testing.assert_array_equal(photon_statistics(empty, 0, 5), np.zeros(6))
    for recs in (parity_projection(empty, 0), bell_outcomes(empty, 0, 1)):
        for rec in recs.values():
            assert rec.probability == 0.0
            assert rec.state is None


def test_bell_outcomes_scans_each_measured_column_once(monkeypatch):
    calls = []
    nearest = measure._nearest_signs
    monkeypatch.setattr(
        measure, "_nearest_signs", lambda amps, ref: calls.append(len(amps)) or nearest(amps, ref))
    s = optics.tensor(gates.encode(0.6, 0.8, gates.QubitEncoding(2.0)), optics.bell_resource(2.0))
    bell_outcomes(s, 0, 1)
    assert calls == [s.nterms, s.nterms]


def test_parity_classes_stay_finite_at_large_amplitude(monkeypatch):
    # 2|a|^2 = 722 and |a|^2 = 729 are past where cosh and sinh overflow
    assert bell_outcomes(bell_cat(19.0, "i"), 0, 1)["I"].probability == pytest.approx(
        1.0, abs=1e-12)
    assert parity_projection(cat(27.0, -1), 0)["odd"].probability == pytest.approx(
        1.0, abs=1e-12)
    enc = gates.QubitEncoding(19.0)
    s = gates.encode(0.6, 0.8, enc)
    # in place of an rng, the index of the Bell branch that `sample` picks
    monkeypatch.setattr(measure, "sample", lambda table, i: table[list(table)[i]])
    total = sum(gates.teleport(s, enc, i).probability for i in range(5))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_teleport_cleans_leaked_input(monkeypatch):
    # leaked qubit mode: small imaginary displacement off +/- a
    enc = gates.QubitEncoding(2.0)
    a = enc.alpha
    leaked = CoherentSuperposition(
        np.array([0.7, 0.3]), np.array([[a + 0.05j], [-a + 0.05j]])
    ).normalize()
    # in place of an rng, the index of the Bell branch that `sample` picks
    monkeypatch.setattr(measure, "sample", lambda table, i: table[list(table)[i]])
    for i, name in enumerate(("I", "II", "III", "IV")):
        out = gates.teleport(leaked, enc, i)
        assert out.trace[0][2] == name
        # the teleported output lives on {+a, -a}, up to the X correction's
        # rounding of e^{i pi}
        assert np.max(np.abs(np.abs(out.state.amps) - a)) < 1e-12


def test_bell_measurement_sampling_reproducible():
    s = bell_cat(2.0, "iii")
    r1 = sample(bell_outcomes(s, 0, 1), np.random.default_rng(9))
    r2 = sample(bell_outcomes(s, 0, 1), np.random.default_rng(9))
    assert r1.outcome == r2.outcome == "III"


def _probability_table(probs):
    return {i: MeasurementRecord("t", i, float(p), None) for i, p in enumerate(probs)}


def test_sample_is_one_rng_choice_in_dict_order():
    def table(probs):
        return {name: MeasurementRecord("t", name, p, None) for name, p in probs.items()}

    probs = {"a": 0.1, "b": 0.25, "c": 0.4, "d": 0.25}
    reordered = {k: probs[k] for k in ("d", "c", "a", "b")}
    for seed in range(50):
        for order in (probs, reordered):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            p = np.array(list(order.values()))
            expected = list(order)[ref.choice(len(order), p=p / p.sum())]
            assert sample(table(order), rng).outcome == expected
            # the draw consumes exactly what one rng.choice does
            assert rng.random() == ref.random()
    # random tables with zero rows, across 300 orders of magnitude
    tables = np.random.default_rng(21)
    for _ in range(1200):
        k = int(tables.integers(1, 10))
        p = tables.random(k) * 10.0 ** tables.integers(-300, 1, size=k)
        p[tables.random(k) < 0.3] = 0.0
        p[tables.integers(k)] = tables.random() + 1e-3
        seed = int(tables.integers(2**32))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert sample(_probability_table(p), rng).outcome == ref.choice(k, p=p / p.sum())
        assert rng.random() == ref.random()
    # a -1e-17 round-off probability is clipped to 0, never drawn, never an error
    rounded = table({"x": 0.5, "y": -1e-17, "z": 0.5})
    rng = np.random.default_rng(3)
    assert {sample(rounded, rng).outcome for _ in range(200)} == {"x", "z"}


def test_sample_at_the_ends_of_the_unit_interval():
    # u = 0 skips leading zero rows (catches side="left"); the largest
    # uniform below 1 lands on the last nonzero row, also where the cumsum
    # of the renormalized probabilities ends below it (catches a CDF not
    # divided by its last entry)
    table = _probability_table([0.0, 0.0] + [0.1] * 10 + [0.0])
    assert sample(table, SimpleNamespace(random=lambda: 0.0)).outcome == 2
    assert sample(table, SimpleNamespace(random=lambda: 1.0 - 2.0**-53)).outcome == 11


@pytest.mark.parametrize("probs", [[0.5, math.nan], [0.0, 0.0], [math.inf, 1.0], []],
                         ids=["nan", "all-zero", "inf", "empty"])
def test_sample_refuses_a_table_without_a_distribution(probs):
    for draw in (sample, lambda table, rng: sample_counts(table, rng, 10)):
        with pytest.raises(ValueError):
            draw(_probability_table(probs), np.random.default_rng(0))


def test_table_keeps_the_columns_np_delete_keeps():
    # catches a kept column taken or dropped in error, in order or count
    rng = np.random.default_rng(13)
    for m in range(1, 7):
        for _ in range(4):
            s = _random_state(rng)
            s = CoherentSuperposition(s.coeffs, rng.normal(size=(s.nterms, m)) + 0j)
            modes = [int(x) for x in rng.permutation(m)[: int(rng.integers(1, m + 1))]]
            rows = [("x", 1.0, np.ones(s.nterms), True)]
            (rec,) = measure._table("t", s.coeffs, measure._rest(s, modes), rows).values()
            rest = rec.build[3]
            expected = np.delete(s.amps, modes, axis=1)
            assert rest.shape == expected.shape and rest.tobytes() == expected.tobytes()


def test_default_nmax_rule():
    assert default_nmax(2.0) == math.ceil(4 + 20 + 20)


# ---------------------------------------------------------------------------
# branch tables against the Fock oracle: every branch probability and
# conditioned state of a table, from projectors in the truncated number basis


def _random_state(rng):
    """K <= 8 terms on M <= 3 modes, amplitudes |a| <= 2."""
    k, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    amps = rng.uniform(0, 2, size=(k, m)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(k, m)))
    return CoherentSuperposition(rng.normal(size=k) + 1j * rng.normal(size=k), amps).normalize()


def _random_qubit_like(rng, min_modes=1):
    """K <= 8 terms on M <= 3 modes, every amplitude in {+a, -a}, a <= 2."""
    a = rng.uniform(0.8, 2.0)
    k, m = int(rng.integers(1, 9)), int(rng.integers(min_modes, 4))
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps = a * rng.choice([-1.0, 1.0], size=(k, m))
    return CoherentSuperposition(coeffs, amps).merge_terms().normalize()


def _basis_rows(n_max, ns):
    return np.eye(n_max + 1)[list(ns)]


def _oracle_branch(v, projectors):
    """(probability, amplitudes) of the projector on `v` given per measured
    mode as orthonormal rows {mode: (r, d) array}; amplitudes[i] is the
    remaining-mode vector for the i-th combination of rows."""
    data = v
    # last mode first; each contraction puts its row axis in front
    for done, mode in enumerate(sorted(projectors, reverse=True)):
        data = np.tensordot(projectors[mode].conj(), data, axes=([1], [mode + done]))
    amps = data.reshape(-1, *data.shape[len(projectors):])
    return float(np.sum(np.abs(amps) ** 2)), amps


def _assert_matches_oracle(rec, v, projectors, n_max):
    p, amps = _oracle_branch(v, projectors)
    assert abs(rec.probability - p) < DIST_TOL, (rec.outcome, rec.probability, p)
    if rec.state is None:
        return
    assert abs(rec.state.norm_squared() - 1.0) < 1e-12
    # the part of the oracle's remaining-mode branch sum_i |amps_i><amps_i| / p
    # outside the conditioned state phi: 0 only if that is pure and equal
    phi = fo.to_fock(rec.state, n_max)
    phi = phi / math.sqrt(fo.fock_norm_squared(phi))
    off = sum(fo.fock_norm_squared(a - fo.fock_inner(phi, a) * phi) for a in amps)
    assert math.sqrt(off / p) < DIST_TOL, (rec.outcome, off)


def _parity_rows(n_max):
    return {
        "zero": _basis_rows(n_max, [0]),
        "even_nonzero": _basis_rows(n_max, range(2, n_max + 1, 2)),
        "odd": _basis_rows(n_max, range(1, n_max + 1, 2)),
    }


def test_parity_projection_table_matches_fock_oracle():
    rng = np.random.default_rng(21)
    for _ in range(12):
        s = _random_qubit_like(rng)
        mode = int(rng.integers(s.modes))
        n_max = default_nmax(np.max(np.abs(s.amps)))
        v = fo.to_fock(s, n_max)
        recs = parity_projection(s, mode)
        assert list(recs) == ["zero", "even_nonzero", "odd"]
        for name, rows in _parity_rows(n_max).items():
            _assert_matches_oracle(recs[name], v, {mode: rows}, n_max)


def test_cat_projection_matches_fock_oracle():
    rng = np.random.default_rng(22)
    for _ in range(12):
        s = _random_state(rng)
        mode = int(rng.integers(s.modes))
        ref = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        n_max = default_nmax(max(np.max(np.abs(s.amps)), abs(ref)))
        v = fo.to_fock(s, n_max)
        for parity in (+1, -1):
            rec = cat_projection(s, mode, ref, parity)
            bra = fo.to_fock(cat(ref, parity), n_max)[None, :]
            _assert_matches_oracle(rec, v, {mode: bra}, n_max)


def _random_bell_input(rng):
    """(s, mode_a, mode_b): K <= 8 terms on M = 2 or 3 modes, every amplitude
    in {+a, -a} for a complex a = |a| e^{i phi}, |a| <= 2.  The first term,
    which holds each column's largest entry (ties go to the first), carries
    -a on mode_a and +a on mode_b."""
    a = rng.uniform(0.8, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    k, m = int(rng.integers(1, 9)), int(rng.integers(2, 4))
    mode_a, mode_b = (int(x) for x in rng.choice(m, size=2, replace=False))
    signs = rng.choice([-1.0, 1.0], size=(k, m))
    signs[0, [mode_a, mode_b]] = -1.0, 1.0
    coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
    return CoherentSuperposition(coeffs, a * signs).normalize(), mode_a, mode_b


def test_bell_outcomes_table_matches_fock_oracle():
    rng = np.random.default_rng(23)
    for i in range(16):
        if i < 8:
            s = _random_qubit_like(rng, min_modes=2)
            mode_a, mode_b = (int(m) for m in rng.choice(s.modes, size=2, replace=False))
        else:
            s, mode_a, mode_b = _random_bell_input(rng)
        n_max = default_nmax(math.sqrt(2) * np.max(np.abs(s.amps)))
        # the measurement itself: +pi/2 on mode_b, B(-pi/4), then photon counting
        v = fo.fock_beamsplitter(
            fo.fock_phase(fo.to_fock(s, n_max), mode_b, np.pi / 2), mode_a, mode_b, -np.pi / 4
        )
        classes = _parity_rows(n_max)
        zero = classes["zero"]
        recs = bell_outcomes(s, mode_a, mode_b)
        assert list(recs) == ["I", "II", "III", "IV", "FAIL"]
        for name, (on_a, on_b) in {
            "I": (classes["even_nonzero"], zero),
            "II": (classes["odd"], zero),
            "III": (zero, classes["even_nonzero"]),
            "IV": (zero, classes["odd"]),
            "FAIL": (zero, zero),
        }.items():
            _assert_matches_oracle(recs[name], v, {mode_a: on_a, mode_b: on_b}, n_max)
        assert recs["FAIL"].state is None


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("theta_alpha2", [0.01, 0.05])
def test_leaked_bell_table_is_near_the_physical_measurement(alpha, theta_alpha2):
    # A teleport of an input displaced off {+a, -a} (gate_rz's), against the
    # oracle's physical Bell measurement of input (x) resource: +pi/2 on the
    # resource mode, B(-pi/4), then photon counting.  Rows I-IV are the
    # physical classes of Phi_id, the joint state Phi with every measured
    # amplitude moved to its nearest support point and its coefficient
    # weighted by that overlap; FAIL is Phi's own vacuum.  With Pi_C a
    # class's projector, |<Pi_C Phi>^2 - <Pi_C Phi_id>^2| <= ||Phi - Phi_id||
    # (sqrt(p_phys) + sqrt(p_id)), plus the oracle's truncation (DIST_TOL).
    enc = gates.QubitEncoding(alpha)
    theta = theta_alpha2 / alpha**2
    s = optics.displace(gates.encode(0.6 + 0.2j, 0.7 - 0.3j, enc), 0, 1j * alpha * theta)
    table = gates._bell_table(s, enc)
    phi = optics.tensor(s, optics.bell_resource(alpha))
    near = alpha * np.where(phi.amps[:, :2].real >= 0, 1.0, -1.0)
    w = np.prod(states.coherent_overlap(near, phi.amps[:, :2]), axis=1)
    moved = np.concatenate([near, phi.amps[:, 2:]], axis=1)
    diff = CoherentSuperposition(np.concatenate([phi.coeffs, -w * phi.coeffs]),
                                 np.concatenate([phi.amps, moved]))
    distance = math.sqrt(max(diff.norm_squared(), 0.0))
    n_max = default_nmax(math.sqrt(2) * np.max(np.abs(phi.amps)))
    v = fo.fock_beamsplitter(fo.fock_phase(fo.to_fock(phi, n_max), 1, np.pi / 2), 0, 1, -np.pi / 4)
    classes = _parity_rows(n_max)
    zero = classes["zero"]
    for name, (on_a, on_b) in {
        "I": (classes["even_nonzero"], zero),
        "II": (classes["odd"], zero),
        "III": (zero, classes["even_nonzero"]),
        "IV": (zero, classes["odd"]),
        "FAIL": (zero, zero),
    }.items():
        p, _ = _oracle_branch(v, {0: on_a, 1: on_b})
        q = table[name].probability
        gap = 0.0 if name == "FAIL" else distance * (math.sqrt(p) + math.sqrt(max(q, 0.0)))
        assert abs(q - p) <= gap + DIST_TOL, (name, q, p, gap)


def test_bell_rows_on_the_support_are_the_counting_classes():
    # on {+a, -a} every nearest-point overlap and the FAIL weight are
    # exactly 1, so the rows are the sign classes bit for bit; off it the
    # overlap is <r|x> to round-off
    rng = np.random.default_rng(24)
    for i in range(12):
        if i < 6:
            s = _random_qubit_like(rng, min_modes=2)
            mode_a, mode_b = 0, 1
        else:
            s, mode_a, mode_b = _random_bell_input(rng)
        a, b = s.amps[:, mode_a], s.amps[:, mode_b]
        ref = measure._reference(a)
        signs_a, signs_b = np.where(a == ref, 1.0, -1.0), np.where(b == ref, 1.0, -1.0)
        same = signs_a == signs_b
        z0, even_nz, odd = measure._parity_class_weights(2 * abs(ref) ** 2)
        expected = [("I", even_nz, same), ("II", odd, same * signs_a), ("III", even_nz, ~same),
                    ("IV", odd, ~same * signs_a), ("FAIL", z0, np.ones(len(a)))]
        rows = measure._bell_rows(a, b, ref)
        assert [(o, f) for o, f, _, _ in rows] == [(o, f) for o, f, _ in expected]
        for (outcome, _, w, _), (_, _, ref_w) in zip(rows, expected):
            assert np.array_equal(w, ref_w), outcome
        # off the support: the I row's weight is <r|x> <r'|y> against the
        # nearest points, and FAIL's the vacuum ratio <0|x><0|y> / <0|r>^2
        x, y = (c + rng.normal(scale=0.1, size=c.shape) * (1 + 1j) for c in (a, b))
        rows = measure._bell_rows(x, y, ref)
        overlap = (states.coherent_overlap(signs_a * ref, x)
                   * states.coherent_overlap(signs_b * ref, y))
        vac = np.exp(abs(ref) ** 2 - 0.5 * (np.abs(x) ** 2 + np.abs(y) ** 2))
        assert np.allclose(rows[0][2], same * overlap, rtol=1e-13, atol=0)
        assert np.allclose(rows[4][2], vac, rtol=1e-13, atol=0)


def _assert_teleport_table_is_counting(s, enc):
    """The Bell-cat measurement every teleport reads, `gates._bell_table`,
    against photon counting (`bell_outcomes`) on the joint state s (x)
    resource: the same outcomes, probabilities and branch states."""
    counting = bell_outcomes(optics.tensor(s, optics.bell_resource(enc.alpha)), enc.mode, s.modes)
    table = gates._bell_table(s, enc)
    assert list(table) == list(counting)
    for name in table:
        assert table[name].probability == pytest.approx(counting[name].probability, abs=1e-12)
        x, y = counting[name].state, table[name].state
        assert (x is None) == (y is None), name
        if x is not None:
            assert y.modes == x.modes
            assert abs(y.norm_squared() - 1.0) < 1e-12
            assert fidelity(x, y) == pytest.approx(1.0, abs=1e-12)


def test_bell_cat_outcomes_matches_counting_on_subspace():
    # inputs on {+a, -a}: the teleport's table is the counting classifier
    rng = np.random.default_rng(2)
    a = 2.0
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps = a * rng.choice([-1.0, 1.0], size=(4, 2))
    s = CoherentSuperposition(coeffs, amps).merge_terms().normalize()
    for mode in (0, 1):
        _assert_teleport_table_is_counting(s, gates.QubitEncoding(a, mode))


def test_bell_cat_outcomes_equal_bell_outcomes_on_logical_inputs():
    rng = np.random.default_rng(24)
    for _ in range(12):
        s = _random_qubit_like(rng)
        a = float(np.max(np.abs(s.amps)))
        for mode in range(s.modes):
            _assert_teleport_table_is_counting(s, gates.QubitEncoding(a, mode))


def _sequential_rx_table(mixed, mode, m, alpha):
    """The gate_rx branch table as two cat projections in sequence: the
    resource half (mode m), then the input mode of the conditioned state."""
    table = {}
    for pb in (+1, -1):
        rec_b = cat_projection(mixed, m, alpha, pb)
        if rec_b.state is None:
            continue
        for pa in (+1, -1):
            rec_a = cat_projection(rec_b.state, mode, alpha, pa)
            if rec_a.state is not None:
                key = (rec_a.outcome, rec_b.outcome)
                table[key] = (rec_b.probability * rec_a.probability, rec_a.state)
    return table


def test_gate_rx_table_matches_sequential_projections_and_fock_oracle(monkeypatch):
    built = []
    table = measure._table

    def recording(kind, coeffs, rest, rows, pair=None):
        out = table(kind, coeffs, rest, rows, pair)
        built.append((kind, coeffs, out))
        return out

    monkeypatch.setattr(measure, "_table", recording)
    rng = np.random.default_rng(25)
    for _ in range(8):
        alpha = rng.uniform(1.0, 2.0)
        k = int(rng.integers(1, 9))
        # single-mode input near the logical amplitudes, K <= 8 terms
        amps = alpha * rng.choice([-1.0, 1.0], size=(k, 1)) + rng.normal(scale=0.1, size=(k, 1))
        s = CoherentSuperposition(rng.normal(size=k) + 1j * rng.normal(size=k), amps).normalize()
        built.clear()
        gates.gate_rx(s, gates.QubitEncoding(alpha))
        (coeffs, recs), = [b[1:] for b in built if b[0] == "cat_projection"]
        # gate_rx builds neither the joint state nor its mixed columns:
        # rebuild the whole mixed state, input mode 0 and resource half 1
        joint = optics.tensor(s, optics.bell_resource(alpha))
        assert coeffs.tobytes() == joint.coeffs.tobytes()
        mode, m = 0, 1
        theta = np.pi / (4 * alpha**2)
        mixed = optics.beamsplitter(joint, mode, m, theta / 2)
        assert list(recs) == [("even", "even"), ("odd", "even"), ("even", "odd"), ("odd", "odd")]
        reference = _sequential_rx_table(mixed, mode, m, alpha)
        assert list(reference) == list(recs)
        n_max = default_nmax(np.max(np.abs(mixed.amps)))
        v = fo.to_fock(mixed, n_max)
        bra = {name: fo.to_fock(cat(alpha, p), n_max)[None, :]
               for name, p in (("even", +1), ("odd", -1))}
        for (pa, pb), rec in recs.items():
            p_ref, state_ref = reference[pa, pb]
            assert rec.probability == pytest.approx(p_ref, rel=1e-12)
            assert fidelity(rec.state, state_ref) == pytest.approx(1.0, abs=1e-12)
            _assert_matches_oracle(rec, v, {mode: bra[pa], m: bra[pb]}, n_max)


def _leaked_pair():
    """A two-mode input whose mode 0, the odd cat at 1.5 displaced by 0.02i,
    has leaked off {+1.5, -1.5}; mode 1 is the even cat at 1.5."""
    return optics.tensor(optics.displace(cat(1.5, -1), 0, 0.02j), cat(1.5, +1))


@pytest.mark.parametrize("measure_fn, make_args, count", [
    (bell_outcomes, lambda: (bell_cat(1.5, "ii"), 0, 1), 1),
    (gates._bell_table, lambda: (_leaked_pair(), gates.QubitEncoding(1.5)), 1),
    (parity_projection, lambda: (optics.tensor(cat(1.5, +1), coherent(0.5, 1.5)), 0), 1),
    (cat_projection, lambda: (optics.tensor(coherent(0.3), cat(1.5, -1)), 1, 1.5, -1), 1),
    (photon_statistics, lambda: (optics.tensor(cat(1.5, +1), coherent(0.5, 1.5)), 0), 1),
    (homodyne_pdf, lambda: (bell_cat(1.5, "iii"), 1, np.linspace(-4.0, 4.0, 33)), 1),
    (CoherentSuperposition.norm_squared, lambda: (bell_cat(1.5, "iv"),), 1),
    (states.inner_product,
     lambda: (bell_cat(1.5, "i"), optics.tensor(cat(1.5, +1), coherent(0.5))), 1),
    (metrology.qfi_displacement, lambda: (states.ghz_cat(2.0, 3),), 1),
    (metrology.mean_photon_number, lambda: (optics.tensor(cat(1.5, -1), coherent(0.5, 1j)),), 1),
    # two-term states are normalized in closed form, with no Gram matrix
    (cat, lambda: (1.5, -1), 0),
    (bell_cat, lambda: (1.5, "iv"), 0),
    (states.ghz_cat, lambda: (2.0, 3), 0),
    (gates.encode, lambda: (0.6, -0.8j, gates.QubitEncoding(1.5)), 0),
    (optics.bell_resource, lambda: (1.5,), 0),
], ids=["bell_outcomes", "bell_table", "parity_projection", "cat_projection",
        "photon_statistics", "homodyne_pdf", "norm_squared", "inner_product",
        "qfi_displacement", "mean_photon_number", "cat", "bell_cat", "ghz_cat", "encode",
        "bell_resource"])
def test_each_table_builds_one_gram_matrix(monkeypatch, measure_fn, make_args, count):
    args = make_args()
    calls = []
    overlap = states._overlap_matrix
    # only `states` binds the overlap kernel, so a second Gram matrix (say a
    # per-branch norm_squared()) or a by-name import elsewhere shows here
    monkeypatch.setattr(
        states, "_overlap_matrix", lambda x, y: calls.append(x.shape) or overlap(x, y)
    )
    measure_fn(*args)
    assert len(calls) == count


@pytest.mark.parametrize("alpha", [1e-7, 1e-5, 1e-3])
def test_cat_projection_of_a_cat_onto_its_own_parity_reads_1(alpha):
    # (1 - e^{-2 alpha^2}) cancels in the odd cat's norm and in its
    # weights <r|a> - <-r|a>; both are expm1 forms
    for parity in (+1, -1):
        rec = cat_projection(cat(alpha, parity), 0, alpha, parity)
        assert abs(rec.probability - 1.0) <= 1e-15, parity


def test_cat_weights_match_50_digits_and_never_overflow():
    mp = pytest.importorskip("mpmath")
    xs = np.array([-100.0, -16.5, -1.0, -3e-7, 0.0, 2e-7, 1e-3j, 0.7 + 0.4j, 16.0, 100.0])
    for alpha in (1e-7, 1e-3, 1.0, 16.0 * np.exp(0.2j)):
        for parity in (+1, -1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an exponential overflowing, or 0 * inf
                w = measure._cat_weights(alpha, parity, xs)
            with mp.workdps(50):
                r = mp.mpc(complex(alpha))

                def overlap(x, y):
                    return mp.exp(-abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + mp.conj(x) * y)

                norm = mp.sqrt(2 + 2 * parity * mp.exp(-2 * abs(r) ** 2))
                exact = np.array([complex((overlap(r, mp.mpc(complex(x)))
                                           + parity * overlap(-r, mp.mpc(complex(x)))) / norm)
                                  for x in xs])
            # relative, plus the rounding of the overlap's exponent, whose
            # terms are of size (|r| + |x|)^2: an error of that exponent
            # moves a weight by the same relative amount
            tol = 1e-15 + np.finfo(float).eps * (abs(alpha) + np.abs(xs)) ** 2
            assert np.all(np.abs(w - exact) <= tol * np.abs(exact)), (alpha, parity)


def test_sample_counts_is_one_multinomial_in_dict_order():
    def table(probs):
        return {name: MeasurementRecord("t", name, p, None) for name, p in probs.items()}

    probs = {"a": 0.1, "b": 0.25, "zero": 0.0, "c": 0.4, "rounded": -1e-17, "d": 0.25}
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = sample_counts(table(probs), rng, 5000)
        assert list(counts) == list(probs)
        assert sum(counts.values()) == 5000
        # a zero or round-off negative probability is never drawn
        assert counts["zero"] == counts["rounded"] == 0
        p = np.clip(list(probs.values()), 0.0, None)
        assert list(counts.values()) == ref.multinomial(5000, p / p.sum()).tolist()
        assert rng.random() == ref.random()
    assert sample_counts(table(probs), np.random.default_rng(0), 0) == dict.fromkeys(probs, 0)


# ---------------------------------------------------------------------------
# branch states are built on first read, from the same expression as an
# eager build of every kept branch


def _joint_rest(rest, pair):
    """The remaining amplitudes of every term of a table on `rest` and a
    resource `pair`: the rows combined as optics.tensor combines the terms
    of its two states."""
    if pair is None:
        return rest
    return np.concatenate([np.repeat(rest, len(pair), axis=0), np.tile(pair, (len(rest), 1))], axis=1)


def test_branch_norms_of_two_factors_match_the_joint_rest():
    # the pair's eigen-forms, with a first factor of 0, 1 and 3 modes,
    # against the one-factor form on the joint rows, to round-off (the
    # same exponents, summed otherwise)
    rng = np.random.default_rng(31)
    for first_modes in (0, 1, 3):
        k1 = int(rng.integers(1, 6))
        first = rng.normal(size=(k1, first_modes)) + 1j * rng.normal(size=(k1, first_modes))
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        pair = np.array([x, -x])
        k = 2 * k1
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        weights = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
        factored = measure._branch_norms(coeffs, first, weights, pair)
        joint = measure._branch_norms(coeffs, _joint_rest(first, pair), weights)
        assert factored.shape == joint.shape == (4,)
        assert np.allclose(factored, joint, rtol=1e-12, atol=0), first_modes


def _eager_states(kind, coeffs, rest, rows, pair=None):
    """{outcome: state} as a table that built every kept branch's state at
    once would give: the row's nonzero-weight terms, normalized, then merged."""
    joint = _joint_rest(rest, pair)
    norms = measure._branch_norms(coeffs, rest, np.array([w for _, _, w, _ in rows]), pair)
    out = {}
    for (outcome, factor, w, keep), n2 in zip(rows, norms):
        keep = keep and float(factor * n2) > measure.PROB_FLOOR
        live = np.flatnonzero(w)
        out[outcome] = CoherentSuperposition(
            coeffs[live] * w[live] / np.sqrt(n2), joint[live]).merge_terms() if keep else None
    return out


def _leaked_rx_input():
    rng = np.random.default_rng(4)
    amps = 1.6 * rng.choice([-1.0, 1.0], size=(5, 1)) + rng.normal(scale=0.1, size=(5, 1))
    return CoherentSuperposition(rng.normal(size=5) + 1j * rng.normal(size=5), amps).normalize()


@pytest.mark.parametrize("measure_fn, make_args", [
    (parity_projection, lambda: (optics.tensor(cat(1.5, +1), coherent(0.5, 1.5)), 0)),
    (cat_projection, lambda: (optics.tensor(coherent(0.3), cat(1.5, -1)), 1, 1.5, -1)),
    (bell_outcomes, lambda: (optics.tensor(gates.encode(0.6, 0.8, gates.QubitEncoding(2.0)),
                                           optics.bell_resource(2.0)), 0, 1)),
    (gates._bell_table, lambda: (_leaked_pair(), gates.QubitEncoding(1.5))),
    (project_photon_number, lambda: (optics.tensor(cat(1.2, +1), coherent(0.4, 1.0)), 1, 2)),
    (homodyne_condition, lambda: (optics.tensor(cat(1.5, -1), coherent(0.7)), 0, 0.4)),
    (gates.gate_rx, lambda: (_leaked_rx_input(), gates.QubitEncoding(1.6))),
], ids=["parity", "cat", "bell", "bell_cat", "photon_count", "homodyne", "gate_rx"])
def test_branch_states_built_on_first_read_match_eager_build(monkeypatch, measure_fn, make_args):
    built = []
    table = measure._table

    def recording(*args):
        out = table(*args)
        built.append((args, out))
        return out

    monkeypatch.setattr(measure, "_table", recording)
    measure_fn(*make_args())
    (args, recs), = built
    if measure_fn is gates.gate_rx:
        assert list(recs) == [("even", "even"), ("odd", "even"), ("even", "odd"), ("odd", "odd")]
    eager = _eager_states(*args)
    assert list(eager) == list(recs)
    for outcome, rec in recs.items():
        if eager[outcome] is None:
            assert rec.state is None
            continue
        first = rec.state
        assert first.amps.shape == eager[outcome].amps.shape
        assert first.coeffs.tobytes() == eager[outcome].coeffs.tobytes()
        assert first.amps.tobytes() == eager[outcome].amps.tobytes()
        # built once, then kept
        assert rec.state is first


def _five_qubit_register(leaked):
    """A 32-term register of five qubits at alpha = 1.5 on modes 0..4.  A
    leaked register moves each amplitude of modes 1..4 off {+a, -a} by its
    own small shift; mode 0 stays on the support."""
    enc = gates.QubitEncoding(1.5)
    rng = np.random.default_rng(7)
    s = gates.encode(0.6, 0.8, enc)
    for _ in range(4):
        qubit = gates.encode(*rng.normal(size=2), enc)
        if leaked:
            qubit = CoherentSuperposition(
                qubit.coeffs, qubit.amps + rng.normal(scale=0.05, size=(2, 2)) @ [[1], [1j]])
        s = optics.tensor(s, qubit)
    return s


def _with_resource(s):
    return optics.tensor(s, optics.bell_resource(1.5))


def _sorted_term_bytes(s):
    """(coefficient bytes, amplitude bytes) with the terms sorted by their
    amplitude rows, compared as floats.  Adding 0.0 writes a zero part of a
    coefficient as +0: a merge that adds a dead term's +0 to a live -0
    gives +0, a value equal to the -0 of the live term alone."""
    amps = np.ascontiguousarray(s.amps)
    order = np.lexsort(amps.view(float).T[::-1])
    return (s.coeffs[order] + 0.0).tobytes(), amps[order].tobytes()


@pytest.mark.parametrize("leaked", [False, True], ids=["strict", "leaked"])
@pytest.mark.parametrize("measure_fn, args", [
    (parity_projection, lambda s: (s, 0)),
    (cat_projection, lambda s: (s, 3, 1.5, -1)),
    (bell_outcomes, lambda s: (_with_resource(s), 0, 5)),
    (gates._bell_table, lambda s: (s, gates.QubitEncoding(1.5, mode=2))),
    (project_photon_number, lambda s: (s, 1, 2)),
    (homodyne_condition, lambda s: (s, 4, 0.4)),
    (gates.gate_rx, lambda s: (s, gates.QubitEncoding(1.5, mode=2))),
], ids=["parity", "cat", "bell", "bell_cat", "photon_count", "homodyne", "gate_rx"])
def test_branch_state_from_supported_terms_is_the_full_branch(monkeypatch, measure_fn, args, leaked):
    tables = []
    table = measure._table
    monkeypatch.setattr(measure, "_table", lambda *a: tables.append(table(*a)) or tables[-1])
    measure_fn(*args(_five_qubit_register(leaked)))
    kept = [rec for recs in tables for rec in recs.values() if rec.build is not None]
    assert kept
    for rec in kept:
        coeffs, w, n2, rest, pair = rec.build
        # every term of the joint state, the zero-weight ones too, as
        # branch states were built before
        full = CoherentSuperposition(coeffs * w / np.sqrt(n2), _joint_rest(rest, pair)).merge_terms()
        assert rec.state.nterms == full.nterms
        assert _sorted_term_bytes(rec.state) == _sorted_term_bytes(full)


@pytest.mark.parametrize("seed", [None, 11], ids=["canonical", "sampled"])
def test_no_dead_term_reaches_merge_terms(monkeypatch, seed):
    merged, building = [], []
    merge, branch_state = CoherentSuperposition.merge_terms, measure._branch_state

    def recording_merge(self):
        if building:
            merged.append(self)
        return merge(self)

    def recording_branch_state(*args):
        building.append(True)
        try:
            return branch_state(*args)
        finally:
            building.pop()

    monkeypatch.setattr(CoherentSuperposition, "merge_terms", recording_merge)
    monkeypatch.setattr(measure, "_branch_state", recording_branch_state)
    s = _five_qubit_register(False)
    rng = None if seed is None else np.random.default_rng(seed)
    enc_a, enc_b = gates.QubitEncoding(1.5, mode=1), gates.QubitEncoding(1.5, mode=3)
    assert gates.teleport(s, enc_a, rng).success
    assert gates.gate_z(s, enc_b, rng).success
    assert gates.entangling_gate(s, enc_a, enc_b, 0.1, rng).success
    assert len(merged) >= 4
    for branch in merged:
        assert branch.nterms <= s.nterms == 32
        assert np.count_nonzero(branch.coeffs == 0) == 0


def test_fail_and_floored_branches_read_none(monkeypatch):
    monkeypatch.setattr(measure, "_branch_state", lambda *a: pytest.fail("state built"))
    recs = bell_outcomes(bell_cat(2.0, "ii"), 0, 1)
    assert recs["II"].probability == pytest.approx(1.0)
    for name in ("I", "III", "IV", "FAIL"):
        assert recs[name].probability <= measure.PROB_FLOOR
        assert recs[name].state is None
    fail = bell_outcomes(bell_cat(2.0, "i"), 0, 1)["FAIL"]
    assert fail.probability > 1e-4 and fail.state is None


def test_bell_outcomes_constructs_no_state_until_a_branch_is_read(monkeypatch):
    s = optics.tensor(gates.encode(0.6, 0.8, gates.QubitEncoding(2.0)), optics.bell_resource(2.0))
    built = []
    post_init = CoherentSuperposition.__post_init__
    monkeypatch.setattr(
        CoherentSuperposition, "__post_init__", lambda self: built.append(self) or post_init(self))
    recs = bell_outcomes(s, 0, 1)
    # the beam splitter and phase shift act on the measured columns only
    assert built == []
    assert recs["I"].state is not None
    assert len(built) >= 1


def test_sampled_teleport_builds_one_branch_state(monkeypatch):
    branch_state = measure._branch_state
    builds = []
    monkeypatch.setattr(
        measure, "_branch_state", lambda *a: builds.append(a) or branch_state(*a))
    enc = gates.QubitEncoding(2.0)
    register = gates.encode(0.6, 0.8, enc)
    for _ in range(3):
        register = optics.tensor(register, gates.encode(1.0, 1.0, enc))
    rng = np.random.default_rng(5)
    outcomes = set()
    for mode in (0, 2, 3, 1, 0, 2):
        builds.clear()
        out = gates.teleport(register, gates.QubitEncoding(2.0, mode=mode), rng)
        outcomes.add(out.applied)
        assert len(builds) == (1 if out.success else 0)
    assert {"identity", "Z"} <= outcomes


def test_records_compare_and_print_without_building_a_state(monkeypatch):
    monkeypatch.setattr(measure, "_branch_state", lambda *a: pytest.fail("state built"))
    first, again = (parity_projection(bell_cat(1.5, "i"), 0) for _ in range(2))
    assert first == again
    assert first["zero"] == again["zero"] and first["zero"] != again["odd"]
    assert repr(first["zero"]) == (
        f"MeasurementRecord(kind='parity', outcome='zero', probability={first['zero'].probability!r})")
