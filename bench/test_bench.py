"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np
import pytest

import run

catsim = run.import_catsim()

import compare  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def _first_ops(workload: str, seed: int, n_blocks: int = 1) -> list:
    stream = workloads.blocks(workload, seed)
    return [op for _ in range(n_blocks) for op in next(stream)]


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@contextlib.contextmanager
def _traced():
    t = tracer_mod.Tracer()
    t.install(catsim)
    t.active = True
    try:
        yield t
    finally:
        t.active = False
        t.uninstall()


# ---------------------------------------------------------------------------
# op generation

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    def fingerprint(seed):
        return [(op.kind, op.params) for op in _first_ops(workload, seed, 2)]

    assert _same(fingerprint(11), fingerprint(11))
    assert not _same(fingerprint(11), fingerprint(12))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_replay_identical_inputs(workload):
    def fingerprint():
        return [(op.kind, op.params) for block in workloads.round_blocks(workload, 4) for op in block]

    first = fingerprint()
    assert len(first) >= run.MIN_OPS
    assert _same(first, fingerprint())


def test_clear_caches_empties_functools_caches(monkeypatch):
    import functools

    from catsim import optics

    cached = functools.lru_cache(maxsize=None)(lambda alpha: alpha)
    monkeypatch.setattr(optics, "cached_probe", cached, raising=False)
    cached(1.0)
    workloads.clear_caches()
    assert cached.cache_info().currsize == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_has_the_same_mix(workload):
    def mix(block):
        return sorted(op.kind for op in block)

    blocks = workloads.blocks(workload, 3)
    first = mix(next(blocks))
    assert all(mix(next(blocks)) == first for _ in range(3))


# ---------------------------------------------------------------------------
# output checks

def test_checks_pass_on_program_outputs():
    for workload in ("qubit-shots", "metrology-scan", "oracle-audit"):
        _, failures = run.run_ops(_first_ops(workload, 5))
        assert failures == []
    _, failures = run.run_ops(workloads.warmup_ops("wide-register"))
    assert failures == []


def test_checks_reject_a_wrong_gate_report():
    ops = [op for op in _first_ops("qubit-shots", 5) if op.kind == "teleport"]
    op = ops[0]
    s, out = op.run()
    assert op.check((s, out)) is None
    lie = "Z" if out.applied == "identity" else "identity"
    assert op.check((s, dataclasses.replace(out, applied=lie))) is not None


def test_checks_reject_a_wrong_photon_distribution():
    op = next(op for op in _first_ops("metrology-scan", 5) if op.kind == "photon_statistics")
    probs = op.run()
    assert op.check(probs) is None
    assert op.check(np.roll(probs, 1)) is not None


def test_reference_register_follows_gates():
    psi = workloads._register([(1, 0), (0, 1)])  # |01>
    psi = workloads.follow(psi, "X", (0,))
    assert np.allclose(psi.ravel(), [0, 0, 0, 1])
    zz = workloads.follow(workloads._register([(1, 1), (1, 1)]), "ZZ(0.1)", (1, 0), 0.1)
    phases = np.angle(zz.ravel())
    assert np.allclose(phases, [0.1, -0.1, -0.1, 0.1])
    with pytest.raises(ValueError):
        workloads.follow(psi, "Rz(0.2)", (0,), 0.1)


# ---------------------------------------------------------------------------
# tracing does not change results

CLI_ARGS = [
    ["ramsey", "--n-max", "5"],
    ["ruler", "--alpha", "6", "--points", "101"],
    ["bell-stats", "--alpha-steps", "2"],
    ["gate-check", "--alpha-steps", "1"],
    ["weak-force", "--sweep-n", "--n-max", "3", "--seed", "4"],
    ["oracle-audit", "--cases", "1", "--seed", "2"],
]


def test_cli_stdout_identical_with_tracing():
    plain = [workloads.run_cli(argv) for argv in CLI_ARGS]
    with _traced() as t:
        traced = [workloads.run_cli(argv) for argv in CLI_ARGS]
    assert traced == plain
    assert t.per_layer(1.0)["cli.main.calls"] == len(CLI_ARGS)
    assert t.by_name()["cli.run_ruler"]["calls"] == 1


@pytest.mark.parametrize("workload", ["qubit-shots", "metrology-scan", "oracle-audit"])
def test_wrapped_calls_return_same_results(workload):
    plain = [op.run() for op in _first_ops(workload, 8)]
    with _traced() as t:
        traced = [op.run() for op in _first_ops(workload, 8)]
    assert len(t.span_start) > 0
    for a, b in zip(plain, traced):
        assert _same(a, b)


def test_wrapped_circuit_returns_same_results():
    plain = [op.run() for op in workloads.warmup_ops("wide-register")]
    with _traced():
        traced = [op.run() for op in workloads.warmup_ops("wide-register")]
    for a, b in zip(plain, traced):
        assert _same(a, b)


def test_install_wraps_every_binding_and_uninstall_restores():
    from catsim import gates, measure, optics, states

    original = states.coherent_overlap
    with _traced():
        wrapped = states.coherent_overlap
        assert wrapped is not original
        assert optics.coherent_overlap is wrapped
        assert measure.coherent_overlap is wrapped
        assert gates.coherent_overlap is wrapped
        assert catsim.coherent_overlap is wrapped
        assert states.CoherentSuperposition.merge_terms.__wrapped__ is not None
    for mod in (states, optics, measure, gates, catsim):
        assert mod.coherent_overlap is original
    assert not hasattr(states.CoherentSuperposition.merge_terms, "__wrapped__")


def test_paused_tracer_records_nothing():
    with _traced() as t:
        with t.paused():
            catsim.cat(2.0).normalize()
    assert len(t.span_start) == 0 and not t.counts


def test_traced_counts_repeat_exactly():
    def counts():
        with _traced() as t:
            run.run_ops(_first_ops("qubit-shots", 9, 3), t)
        layer = t.per_layer(1.0)
        return {k: v for k, v in layer.items() if not k.endswith("self_s")}

    assert counts() == counts()


# ---------------------------------------------------------------------------
# reference scaling

def test_latencies_scale_by_the_reference_around_them(monkeypatch):
    refs = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(run, "reference_ms", lambda: next(refs))
    monkeypatch.setattr(run, "run_ops", lambda ops: ([0.06], []))
    scaled, raw, failures, refs = run.run_scaled([None] * 3)
    # a reference is timed after ops 0-1 (0.12 s >= REFERENCE_EVERY_S) and at the end
    assert raw == [0.06] * 3 and failures == [] and refs == [1.0, 3.0, 2.0]
    assert scaled == pytest.approx([0.03, 0.03, 0.024])


# ---------------------------------------------------------------------------
# self-time arithmetic

def _synthetic_tracer():
    """root a [0, 10] with children b [1, 4] and c [5, 9]; c has child d [6, 7]."""
    t = tracer_mod.Tracer()
    ids = {n: t.name_id(n) for n in ("bench.op.x", "states.b", "measure.c", "states.d")}
    for name, parent, start, end in [
        ("bench.op.x", -1, 0.0, 10.0),
        ("states.b", 0, 1.0, 4.0),
        ("measure.c", 0, 5.0, 9.0),
        ("states.d", 2, 6.0, 7.0),
    ]:
        t.span_name.append(ids[name])
        t.span_parent.append(parent)
        t.span_op.append(0)
        t.span_start.append(start)
        t.span_end.append(end)
    return t


def test_self_time_is_span_minus_direct_children():
    a = _synthetic_tracer().arrays()
    assert tracer_mod.self_times(a["parent"], a["start"], a["end"]).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_aggregates_over_synthetic_tree():
    t = _synthetic_tracer()
    by_name = t.by_name()
    assert by_name["states.b"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0}
    assert by_name["measure.c"] == {"calls": 1, "self_s": 3.0, "total_s": 4.0}
    # states is entered twice at the outermost level: b (3 s) and d inside c (1 s)
    assert t.layer_shares() == {"measure": 0.4, "states": 0.4}


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the harness

def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer_mod.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# ---------------------------------------------------------------------------
# compare

@pytest.mark.parametrize("change, bound, expected", [
    ([x * 0.8 for x in range(100, 110)], 0.1, "improved"),
    ([x * 1.2 for x in range(100, 110)], 0.1, "worse"),
    ([x * 1.05 for x in range(100, 110)], 0.1, "unchanged"),
    ([x * 1.05 for x in range(100, 110)], 0.01, "worse"),
    ([x * 0.8 for x in range(100, 110)], None, "improved"),
    ([x * 1.2 for x in range(100, 110)], None, "worse"),
])
def test_compare_verdicts_lower_is_better(change, bound, expected):
    pairs = list(zip(range(100, 110), change))
    assert compare.verdict(pairs, "lower", bound)[0] == expected


def test_compare_wide_spread_is_unresolved():
    parent = [100, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    change = [p * 1.02 for p in reversed(parent)]
    assert compare.verdict(list(zip(parent, change)), "higher", 0.1)[0] == "unresolved"


def test_compare_too_few_pairs_is_not_a_gain():
    pairs = [(100.0, 50.0)] * 9
    assert compare.verdict(pairs, "lower", 0.1)[0] == "unchanged"
