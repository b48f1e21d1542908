import math

import numpy as np
import pytest
from scipy.special import gammaln

from catsim import optics
from catsim.measure import (
    MeasurementRecord,
    UnsupportedStateError,
    bell_cat_outcomes,
    bell_outcomes,
    cat_projection,
    default_nmax,
    fock_amplitude,
    homodyne_condition,
    homodyne_grid,
    homodyne_pdf,
    homodyne_sample,
    parity_projection,
    photon_statistics,
    project_photon_number,
    sample,
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
    poisson = np.exp(-(1.5**2) + n * np.log(1.5**2) - gammaln(n + 1))
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
    xs = homodyne_grid(s, 0, 4001)
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


def test_record_row_format():
    rec = project_photon_number(coherent(1.0), 0, 0)
    row = rec.to_row()
    kind, outcome, prob = row.split("\t")
    assert kind == "photon_count" and outcome == "0"
    assert float(prob) == rec.probability
    assert len(prob) >= 17


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


def test_bell_outcomes_requires_logical_support():
    bad = coherent(1.0, 2.0)
    with pytest.raises(UnsupportedStateError):
        bell_outcomes(bad, 0, 1)


def test_bell_cat_outcomes_matches_counting_on_subspace():
    rng = np.random.default_rng(2)
    a = 2.0
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps = a * rng.choice([-1.0, 1.0], size=(4, 2))
    s = CoherentSuperposition(coeffs, amps).merge_terms().normalize()
    counting = bell_outcomes(s, 0, 1)
    ideal = bell_cat_outcomes(s, 0, 1, a)
    for name in ("I", "II", "III", "IV"):
        if counting[name].state is None:
            assert ideal[name].probability < 1e-10
            continue
        assert ideal[name].state.modes == 0
        # zero-mode conditioned states: compare scalar amplitudes
        zc = np.sum(counting[name].state.coeffs)
        zi = np.sum(ideal[name].state.coeffs)
        assert abs(abs(zc) - abs(zi)) < 1e-9


def test_bell_cat_outcomes_cleans_leaked_input():
    # leaked qubit mode: small imaginary displacement off +/- a
    a = 2.0
    leaked = CoherentSuperposition(
        np.array([0.7, 0.3]), np.array([[a + 0.05j], [-a + 0.05j]])
    ).normalize()
    joint = optics.tensor(leaked, optics.bell_resource(a))
    recs = bell_cat_outcomes(joint, 0, 1, a)
    for name in ("I", "II", "III", "IV"):
        st = recs[name].state
        # conditioned output lives exactly on {+a, -a}
        assert np.max(np.abs(np.abs(st.amps) - a)) < 1e-12


def test_bell_measurement_sampling_reproducible():
    s = bell_cat(2.0, "iii")
    r1 = sample(bell_outcomes(s, 0, 1), np.random.default_rng(9))
    r2 = sample(bell_outcomes(s, 0, 1), np.random.default_rng(9))
    assert r1.outcome == r2.outcome == "III"


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
    # a -1e-17 round-off probability is clipped to 0, never drawn, never an error
    rounded = table({"x": 0.5, "y": -1e-17, "z": 0.5})
    rng = np.random.default_rng(3)
    assert {sample(rounded, rng).outcome for _ in range(200)} == {"x", "z"}


def test_default_nmax_rule():
    assert default_nmax(2.0) == math.ceil(4 + 20 + 20)
