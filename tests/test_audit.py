import math
from types import SimpleNamespace

import numpy as np
import pytest

from catsim import audit, fockoracle, measure, optics
from catsim.cli import EXIT_OK, main
from catsim.states import CoherentSuperposition


def test_displacement_off_by_one_part_in_a_million_fails_only_its_row(monkeypatch):
    # 1 - fidelity reads such a beta error squared, about 3e-11; the distance
    # reads it once, about 5e-6
    displace = optics.displace
    monkeypatch.setattr(
        optics, "displace", lambda s, mode, beta: displace(s, mode, beta * (1 + 1e-6))
    )
    rows = audit.run_audit(0, cases_per_check=5)
    failed = [r.name for r in rows if not r.passed]
    assert failed == ["displace"]
    (row,) = [r for r in rows if r.name == "displace"]
    assert row.max_error > 1e3 * row.tolerance


def test_displacement_off_by_a_part_in_ten_billion_fails_only_its_row(monkeypatch):
    # the distance reads such a beta error once, about 3e-10: between
    # DIST_TOL and ten times it, so a tenfold looser tolerance passes it
    displace = optics.displace
    monkeypatch.setattr(
        optics, "displace", lambda s, mode, beta: displace(s, mode, beta * (1 + 1e-10))
    )
    rows = audit.run_audit(0, cases_per_check=5)
    assert [r.name for r in rows if not r.passed] == ["displace"]
    (row,) = [r for r in rows if r.name == "displace"]
    assert audit.DIST_TOL < row.max_error < 10 * audit.DIST_TOL


def _nudge_another_mode(offset):
    def mutate(phase_shift):
        def mutant(s, mode, theta):
            out = phase_shift(s, mode, theta)
            amps = out.amps.copy()
            amps[:, (mode + offset) % s.modes] += 1e-6  # untouched, except where M <= offset
            return CoherentSuperposition(out.coeffs, amps)
        return mutant
    return mutate


def _moved(state, step):
    """`state` with its amplitudes moved by step times 1, 2, ... mode by
    mode, alike in every term."""
    return CoherentSuperposition(state.coeffs, state.amps + step * np.arange(1, state.modes + 1))


def _move_the_output(step):
    return lambda element: lambda *args: _moved(element(*args), step)


def _move_the_input(move):
    return lambda measurement: lambda s, *args: measurement(move(s), *args)


def _move_the_conditioned_state(step):
    def mutate(project):
        def mutant(s, mode, n):
            rec = project(s, mode, n)
            return SimpleNamespace(probability=rec.probability, state=_moved(rec.state, step))
        return mutant
    return mutate


@pytest.mark.parametrize("owner, attr, mutate, row", [
    (optics, "phase_shift", lambda f: lambda s, mode, theta: f(s, mode, theta + 1e-6), "phase_shift"),
    (optics, "beamsplitter", lambda f: lambda s, a, b, theta: f(s, a, b, theta * (1 + 1e-6)),
     "beamsplitter"),
    (measure, "project_photon_number", _move_the_conditioned_state(1e-6), "photon_conditioning"),
    # collecting like terms by their untouched amplitudes cannot hide a change to one of them
    (optics, "phase_shift", _nudge_another_mode(1), "phase_shift"),
    (optics, "phase_shift", _nudge_another_mode(2), "phase_shift"),
], ids=["phase", "beamsplitter", "conditioned_state", "untouched_mode_1", "untouched_mode_2"])
def test_an_element_off_by_one_part_in_a_million_fails_only_its_row(monkeypatch, owner, attr, mutate, row):
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    rows = audit.run_audit(0, cases_per_check=5)
    failed = [r.name for r in rows if not r.passed]
    assert failed == [row]
    (found,) = [r for r in rows if r.name == row]
    assert found.max_error > 1e3 * found.tolerance


def _distance(x, y):
    return math.sqrt(fockoracle.fock_norm_squared(x - y))


# The rows as two whole tensors, ||to_fock(out) - op(to_fock(s))||: the
# reference that the like-term assembly must reproduce, drawing the same
# parameters from the same generator.

def _two_tensor_phase_shift(rng, s):
    theta = rng.uniform(-np.pi, np.pi)
    mode = int(rng.integers(s.modes))
    n = audit._nmax(audit._amp_scale(s))
    ref = fockoracle.fock_phase(fockoracle.to_fock(s, n), mode, theta)
    return _distance(fockoracle.to_fock(optics.phase_shift(s, mode, theta), n), ref)


def _two_tensor_displace(rng, s):
    beta = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    mode = int(rng.integers(s.modes))
    n = audit._nmax(audit._amp_scale(s), beta)
    ref = fockoracle.fock_displace(fockoracle.to_fock(s, n), mode, beta)
    return _distance(fockoracle.to_fock(optics.displace(s, mode, beta), n), ref)


def _two_tensor_beamsplitter(rng, s):
    if s.modes < 2:
        s = optics.append_modes(s, [rng.uniform(0, 1.5)])
    theta = rng.uniform(-np.pi, np.pi)
    a, b = (int(m) for m in rng.choice(s.modes, size=2, replace=False))
    n = audit._nmax(np.sqrt(2) * audit._amp_scale(s))
    ref = fockoracle.fock_beamsplitter(fockoracle.to_fock(s, n), a, b, theta)
    return _distance(fockoracle.to_fock(optics.beamsplitter(s, a, b, theta), n), ref)


def _two_tensor_photon_conditioning(rng, s):
    mode = int(rng.integers(s.modes))
    n = audit._nmax(audit._amp_scale(s))
    pick = int(np.argmax(measure.photon_statistics(s, mode, n)))
    rec = measure.project_photon_number(s, mode, pick)
    rest = np.take(fockoracle.to_fock(s, n), pick, axis=mode)
    p = fockoracle.fock_norm_squared(rest)
    err = abs(rec.probability - p)
    if rec.state.modes > 0:
        err = max(err, _distance(fockoracle.to_fock(rec.state, n), rest / math.sqrt(p)))
    return err


def _two_tensor_conversion_norm(rng, s):
    return abs(fockoracle.fock_norm_squared(fockoracle.to_fock(s, audit._nmax(audit._amp_scale(s)))) - 1.0)


def _two_tensor_inner_product(rng, s):
    t = audit._random_state(rng, audit._amp_scale(s) or 1.0, modes_max=1, terms_max=4)
    if t.modes != s.modes:
        extra = np.tile(t.amps[:, :1], (1, s.modes - t.modes))
        t = CoherentSuperposition(t.coeffs, np.concatenate([t.amps, extra], axis=1))
    n = audit._nmax(max(audit._amp_scale(s), audit._amp_scale(t)))
    oracle = fockoracle.fock_inner(fockoracle.to_fock(s, n), fockoracle.to_fock(t, n))
    return abs(audit.inner_product(s, t) - oracle)


def _two_tensor_photon_statistics(rng, s):
    mode = int(rng.integers(s.modes))
    n = audit._nmax(audit._amp_scale(s))
    oracle = fockoracle.fock_measure_number(fockoracle.to_fock(s, n), mode)
    return float(np.max(np.abs(measure.photon_statistics(s, mode, n) - oracle)))


def _two_tensor_homodyne_pdf(rng, s):
    mode = int(rng.integers(s.modes))
    n = audit._nmax(audit._amp_scale(s))
    edge = audit._amp_scale(s) * np.sqrt(2) + 5
    xs = np.linspace(-edge, edge, 41)
    oracle = fockoracle.fock_quadrature_pdf(fockoracle.to_fock(s, n), mode, xs)
    return float(np.max(np.abs(measure.homodyne_pdf(s, mode, xs) - oracle)))


def _two_tensor_parity_projection(rng, s):
    s = audit._random_qubit_like(rng, 3.0)
    mode = int(rng.integers(s.modes))
    recs = measure.parity_projection(s, mode)
    oracle = fockoracle.fock_measure_number(fockoracle.to_fock(s, audit._nmax(audit._amp_scale(s))), mode)
    return max(
        abs(recs["zero"].probability - oracle[0]),
        abs(recs["even_nonzero"].probability - np.sum(oracle[2::2])),
        abs(recs["odd"].probability - np.sum(oracle[1::2])),
    )


TWO_TENSOR_ROWS = {
    "conversion_norm": _two_tensor_conversion_norm,
    "inner_product": _two_tensor_inner_product,
    "photon_statistics": _two_tensor_photon_statistics,
    "homodyne_pdf": _two_tensor_homodyne_pdf,
    "parity_projection": _two_tensor_parity_projection,
    "phase_shift": _two_tensor_phase_shift,
    "displace": _two_tensor_displace,
    "beamsplitter": _two_tensor_beamsplitter,
    "photon_conditioning": _two_tensor_photon_conditioning,
}


def _states_with_like_terms():
    """Seeded states at M = 1..3 and K = 1..8 whose modes each draw from two
    amplitudes, so terms often share their untouched amplitudes, and one
    whose -0.0 and 0.0 amplitudes are the same row."""
    rng = np.random.default_rng(12)
    for m in (1, 2, 3):
        for k in range(1, 9):
            pool = rng.uniform(0, 2, (2, m)) * np.exp(2j * np.pi * rng.uniform(size=(2, m)))
            amps = pool[rng.integers(2, size=(k, m)), np.arange(m)]
            yield CoherentSuperposition(rng.normal(size=k) + 1j * rng.normal(size=k), amps).normalize()
    zero = complex(-0.0, 0.0)
    yield CoherentSuperposition([0.6, 0.8j, -0.3], [[zero, 1.0], [0.0, 1.0], [0.5, zero]]).normalize()


# each element with its output moved, so that every row reads about 1e-3; a
# measurement reads a moved state (a parity projection a scaled one, which
# keeps every mode's amplitudes at +-a)
MOVED_ELEMENTS = {
    "inner_product": (audit, "inner_product", _move_the_input(lambda s: _moved(s, 1e-3 + 1e-3j))),
    "photon_statistics": (measure, "photon_statistics", _move_the_input(lambda s: _moved(s, 1e-3 + 1e-3j))),
    "homodyne_pdf": (measure, "homodyne_pdf", _move_the_input(lambda s: _moved(s, 1e-3 + 1e-3j))),
    "parity_projection": (measure, "parity_projection",
                          _move_the_input(lambda s: CoherentSuperposition(s.coeffs, s.amps * (1 + 1e-3)))),
    "phase_shift": (optics, "phase_shift", _move_the_output(1e-3 + 1e-3j)),
    "displace": (optics, "displace", _move_the_output(1e-3 + 1e-3j)),
    "beamsplitter": (optics, "beamsplitter", _move_the_output(1e-3 + 1e-3j)),
    "photon_conditioning": (measure, "project_photon_number", _move_the_conditioned_state(1e-3 + 1e-3j)),
}


@pytest.mark.parametrize("moved", [False, True], ids=["exact", "moved"])
@pytest.mark.parametrize("row", sorted(TWO_TENSOR_ROWS))
def test_like_term_rows_match_the_two_tensor_reference(monkeypatch, row, moved):
    # moved, the rows check the assembly of catsim's and the oracle's groups
    # far above round-off, where a misplaced untouched column would show
    states = list(_states_with_like_terms())
    if moved and row == "conversion_norm":  # its one catsim input is the normalized state
        states = [_moved(s, 1e-3 + 1e-3j) for s in states]
    elif moved:
        owner, attr, mutate = MOVED_ELEMENTS[row]
        monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    check = dict(audit.AUDIT_CHECKS)[row]
    for i, s in enumerate(states):
        got = check(np.random.default_rng(i), s, 3.0)
        ref = TWO_TENSOR_ROWS[row](np.random.default_rng(i), s)
        assert abs(got - ref) < 1e-14, (row, i, got, ref)


@pytest.fixture
def assembled(monkeypatch):
    """Each `_assemble` call, in call order: the number of groups G, the
    number U of modes it sums over (those of its Fock columns), and the
    shape of its result, whose axes are the first of those modes, the
    block's, then the others."""
    calls, assemble = [], fockoracle._assemble

    def recorded(blocks, cols):
        out = assemble(blocks, cols)
        calls.append(SimpleNamespace(groups=len(blocks), summed=cols.shape[1], shape=np.shape(out)))
        return out

    monkeypatch.setattr(fockoracle, "_assemble", recorded)
    return calls


def _ndims(assembled):
    return [len(call.shape) for call in assembled]


@pytest.mark.parametrize("row", ["phase_shift", "displace", "beamsplitter"])
def test_an_element_row_assembles_one_tensor_on_all_modes(assembled, row):
    check = dict(audit.AUDIT_CHECKS)[row]
    for i, s in enumerate(_states_with_like_terms()):
        assembled.clear()
        check(np.random.default_rng(i), s, 3.0)
        assert _ndims(assembled) == [max(s.modes, 2) if row == "beamsplitter" else s.modes], (i, assembled)


def test_conditioning_assembles_only_the_remaining_modes(assembled):
    check = dict(audit.AUDIT_CHECKS)["photon_conditioning"]
    for i, s in enumerate(_states_with_like_terms()):
        assembled.clear()
        check(np.random.default_rng(i), s, 3.0)
        assert 1 <= len(assembled) <= 2 and set(_ndims(assembled)) == {s.modes - 1}, (i, assembled)


def test_to_fock_assembles_once(assembled):
    for s in _states_with_like_terms():
        assembled.clear()
        fockoracle.to_fock(s, 6)
        assert _ndims(assembled) == [s.modes]


@pytest.mark.parametrize("row", [name for name, _ in audit.AUDIT_CHECKS if name != "bell_completeness"])
def test_no_row_holds_a_mode_it_only_sums_over_on_more_than_g_levels(assembled, row):
    # each state's cutoff is at least 21 levels, above the at most 16 groups
    # of a tensor; the inner product's two tensors share the basis of all
    # their groups
    check = dict(audit.AUDIT_CHECKS)[row]
    for i, s in enumerate(_states_with_like_terms()):
        assembled.clear()
        check(np.random.default_rng(i), s, 3.0)
        assert assembled, (row, i)
        shared = sum(call.groups for call in assembled)
        for call in assembled:
            groups = shared if row == "inner_product" else call.groups
            summed = [0] + list(range(len(call.shape) - call.summed + 1, len(call.shape)))
            assert all(call.shape[axis] <= groups for axis in summed[: call.summed]), (row, i, call)


def test_oracle_audit_passes_at_the_alpha_cap(capsys):
    assert main(["oracle-audit", "--alpha-max", "4", "--cases", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("check\tcases\tmax_error\ttolerance\tpassed")
    table = [line.split("\t") for line in lines[header + 1:]]
    # one row per (name, check) pair, each judged against DIST_TOL
    assert [row[0] for row in table] == [name for name, _ in audit.AUDIT_CHECKS]
    assert all(tol == "1e-10" and passed == "true" for _, _, _, tol, passed in table)


def test_oracle_caches_decompose_each_key_once_at_the_alpha_cap(monkeypatch):
    cutoffs = {"beamsplitter": set(), "displace": set()}
    beamsplitter, displace = fockoracle.fock_beamsplitter, fockoracle.fock_displace

    def recorded_beamsplitter(v, mode_a, mode_b, theta):
        cutoffs["beamsplitter"].add(v.shape[mode_a])
        return beamsplitter(v, mode_a, mode_b, theta)

    def recorded_displace(v, mode, beta):
        cutoffs["displace"].add(v.shape[mode])
        return displace(v, mode, beta)

    monkeypatch.setattr(fockoracle, "fock_beamsplitter", recorded_beamsplitter)
    monkeypatch.setattr(fockoracle, "fock_displace", recorded_displace)
    blocks, bases = fockoracle._block_eigh, fockoracle._quadrature_eigh
    blocks.cache_clear()
    bases.cache_clear()
    audit.run_audit(0, 5, 4.0)
    # the count bounds are the keys of the CLI's largest cutoffs: the blocks
    # N = 1..109 of the beam splitter's 110 levels, and one basis for each
    # displacement cutoff of at most 107 levels
    assert blocks.cache_parameters()["maxsize"] == audit._nmax(np.sqrt(2) * 4.0) == 109
    assert bases.cache_parameters()["maxsize"] == audit._nmax(4.0, 1.5) + 1 == 107
    # every cutoff d reads the whole blocks N = 1..d-1, shared by all, so the
    # cache holds one entry per block of the largest cutoff, and none was
    # decomposed twice
    d_max = max(cutoffs["beamsplitter"])
    assert 100 < d_max <= 110
    info = blocks.cache_info()
    assert info.misses == info.currsize == d_max - 1
    info = bases.cache_info()
    assert max(cutoffs["displace"]) <= 107
    assert info.misses == info.currsize == len(cutoffs["displace"])


def test_qubit_rows_draw_amplitudes_within_alpha_max(monkeypatch):
    drawn = []
    qubit_like = audit._random_qubit_like

    def recorded(rng, alpha_max):
        drawn.append(qubit_like(rng, alpha_max))
        return drawn[-1]

    monkeypatch.setattr(audit, "_random_qubit_like", recorded)
    audit.run_audit(0, 5, alpha_max=1.0)
    assert len(drawn) == 10
    assert max(float(np.max(np.abs(s.amps))) for s in drawn) <= 1.0
    with pytest.raises(ValueError):
        audit.run_audit(0, 5, alpha_max=0.5)


@pytest.mark.parametrize("modes_max", [0, -1])
def test_run_audit_refuses_fewer_than_one_mode(modes_max):
    # refused by name before any state is drawn, like cases_per_check and
    # alpha_max, not by the random draw of a mode count
    with pytest.raises(ValueError, match="modes_max must be >= 1"):
        audit.run_audit(0, 1, 3.0, modes_max)
