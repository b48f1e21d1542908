"""In-memory span tracer for the catsim benchmark.

`Tracer.install` wraps the public functions of every catsim module, at each
module namespace that binds them, plus the `CoherentSuperposition` methods.
Each wrapped call records a span (name, start, end, parent, op) into flat
arrays; a few functions additionally feed counters (term counts, branch
records, oracle amplitudes).  Nothing under `src/` is modified on disk:
the wrappers live only in the benchmark process and `uninstall` restores the
original attributes.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans sum to the root spans' total.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

MODULES = ("states", "optics", "measure", "gates", "metrology", "fockoracle", "audit", "cli")

STATE_METHODS = ("__init__", "norm_squared", "normalize", "merge_terms", "scaled", "check_mode")

# Scalar kernels called once per term or per grid point: counted, not spanned,
# so their time stays in the loop that calls them and the span arrays stay small.
# span name -> counter name
COUNT_ONLY = {
    "states.coherent_overlap": "states.coherent_overlap.calls",
    "measure.fock_amplitude": "measure.fock_amplitude.calls",
    "states.CoherentSuperposition.check_mode": "states.check_mode.calls",
}

GATE_SPANS = {"gates.teleport", "gates.gate_z", "gates.gate_rz", "gates.gate_rx", "gates.entangling_gate"}

# measure functions whose returned records are branch records
BRANCH_BUILDERS = {
    "measure.bell_outcomes",
    "measure.bell_cat_outcomes",
    "measure.cat_projection",
    "measure.parity_projection",
}

# branch records each gate call consumes: teleport keeps one Bell record,
# gate_rx keeps one cat-projection record per measured mode
BRANCH_CONSUMERS = {"gates.teleport": 1, "gates.gate_rx": 2}

OP_PREFIX = "bench.op."

_S = "states.CoherentSuperposition."
# metric prefix -> span names whose calls and self times it sums
GROUPS = {
    "states.construct": [_S + "__init__"],
    "states.gram": ["states.gram_matrix", "states.inner_product"],
    "states.merge": [_S + "merge_terms"],
    "states.normalize": [_S + "normalize", _S + "norm_squared"],
    "optics.bell_resource": ["optics.bell_resource"],
    "optics.tensor": ["optics.tensor"],
    "optics.linear": [
        "optics.beamsplitter", "optics.phase_shift", "optics.displace",
        "optics.displace_physical", "optics.permute_modes", "optics.append_modes",
        "optics.nport_split", "optics.nport_merge",
    ],
    "measure.bell_outcomes": ["measure.bell_outcomes"],
    "measure.bell_cat_outcomes": ["measure.bell_cat_outcomes"],
    "measure.cat_projection": ["measure.cat_projection"],
    "measure.photon_statistics": ["measure.photon_statistics"],
    "measure.homodyne": [
        "measure.homodyne_pdf", "measure.homodyne_condition",
        "measure.homodyne_sample", "measure.homodyne_grid",
    ],
    "gates.teleport": ["gates.teleport"],
    "gates.gate_rz": ["gates.gate_rz"],
    "gates.gate_rx": ["gates.gate_rx"],
    "gates.entangling_gate": ["gates.entangling_gate"],
    "gates.decode": ["gates.decode", "gates.decode_two", "gates.logical_coefficients"],
    "metrology.ruler_probability": ["metrology.ruler_probability"],
    "metrology.quantum_ruler": ["metrology.quantum_ruler"],
    "metrology.weak_force": [
        "metrology.weak_force_experiment", "metrology.weak_force_readout_probability",
        "metrology.sensitivity_bound", "metrology.displacement_information",
        "metrology.qfi_displacement",
    ],
    "fockoracle.to_fock": ["fockoracle.to_fock"],
    "fockoracle.fock_beamsplitter": ["fockoracle.fock_beamsplitter"],
    "fockoracle.fock_displace": ["fockoracle.fock_displace"],
    "fockoracle.fock_quadrature_pdf": ["fockoracle.fock_quadrature_pdf"],
    "audit.run_audit": ["audit.run_audit"],
    # parse plus emit: the experiment runners are spans of their own
    "cli.main": [
        "cli.main", "cli.build_parser", "cli.resolve_config",
        "cli.parse_config_file", "cli.emit",
    ],
}

# groups whose `.calls` counts one span name rather than all of the group's
CALLS_FROM = {"measure.homodyne": ["measure.homodyne_pdf"], "cli.main": ["cli.main"]}

# (metric name, unit); every name here is reported by a traced run
PER_LAYER = [
    ("states.construct.calls", "count"),
    ("states.construct.self_s", "s"),
    ("states.gram.calls", "count"),
    ("states.gram.self_s", "s"),
    ("states.gram.max_terms", "count"),
    ("states.merge.calls", "count"),
    ("states.merge.self_s", "s"),
    ("states.merge.terms_in", "count"),
    ("states.merge.terms_out", "count"),
    ("states.normalize.self_s", "s"),
    ("states.coherent_overlap.calls", "count"),
    ("optics.bell_resource.calls", "count"),
    ("optics.bell_resource.self_s", "s"),
    ("optics.tensor.calls", "count"),
    ("optics.tensor.self_s", "s"),
    ("optics.tensor.max_terms", "count"),
    ("optics.linear.self_s", "s"),
    ("measure.bell_outcomes.calls", "count"),
    ("measure.bell_outcomes.self_s", "s"),
    ("measure.bell_cat_outcomes.calls", "count"),
    ("measure.bell_cat_outcomes.self_s", "s"),
    ("measure.cat_projection.calls", "count"),
    ("measure.cat_projection.self_s", "s"),
    ("measure.photon_statistics.self_s", "s"),
    ("measure.homodyne.calls", "count"),
    ("measure.homodyne.self_s", "s"),
    ("measure.fock_amplitude.calls", "count"),
    ("measure.branch_use_ratio", "ratio"),
    ("gates.teleport.calls", "count"),
    ("gates.teleport.self_s", "s"),
    ("gates.gate_z.attempts", "count"),
    ("gates.fail_outcomes", "count"),
    ("gates.gate_rz.self_s", "s"),
    ("gates.gate_rx.self_s", "s"),
    ("gates.entangling_gate.self_s", "s"),
    ("gates.decode.self_s", "s"),
    ("metrology.ruler_probability.calls", "count"),
    ("metrology.quantum_ruler.self_s", "s"),
    ("metrology.weak_force.self_s", "s"),
    ("fockoracle.to_fock.calls", "count"),
    ("fockoracle.to_fock.self_s", "s"),
    ("fockoracle.amplitudes_computed", "count"),
    ("fockoracle.fock_beamsplitter.self_s", "s"),
    ("fockoracle.fock_displace.self_s", "s"),
    ("fockoracle.fock_quadrature_pdf.self_s", "s"),
    ("audit.run_audit.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children
    (parent index -1 marks a root span)."""
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def _max(counter: Counter, key: str, value: int) -> None:
    counter[key] = max(counter[key], int(value))


def _hook_gram(tracer, args, result):
    _max(tracer.counts, "states.gram.max_terms", max(getattr(a, "nterms", 0) for a in args))


def _hook_merge(tracer, args, result):
    tracer.counts["states.merge.terms_in"] += args[0].nterms
    tracer.counts["states.merge.terms_out"] += result.nterms


def _hook_tensor(tracer, args, result):
    _max(tracer.counts, "optics.tensor.max_terms", result.nterms)


def _hook_branches(tracer, args, result):
    if tracer.inside_gate():
        tracer.counts["measure.branch_records_built"] += len(result) if isinstance(result, dict) else 1


def _hook_teleport(tracer, args, result):
    if not result.success:
        tracer.counts["gates.fail_outcomes"] += 1


def _hook_to_fock(tracer, args, result):
    s, n_max = args[0], args[1]
    tracer.counts["fockoracle.amplitudes_computed"] += s.nterms * (n_max + 1) ** s.modes


HOOKS = {
    "states.gram_matrix": _hook_gram,
    "states.inner_product": _hook_gram,
    _S + "merge_terms": _hook_merge,
    "optics.tensor": _hook_tensor,
    "gates.teleport": _hook_teleport,
    "fockoracle.to_fock": _hook_to_fock,
    **{name: _hook_branches for name in BRANCH_BUILDERS},
}


class Tracer:
    """Records spans and counts for calls into catsim while active."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.active = False
        self.op_index = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._gate_ids: set[int] = set()

    # ------------------------------------------------------------------ spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            if name in GATE_SPANS:
                self._gate_ids.add(nid)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self.op_index)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, index: int, kind: str):
        """Root span of one benchmark op; its spans share the op index."""
        self.op_index = index
        idx = self.open(self.name_id(OP_PREFIX + kind))
        try:
            yield
        finally:
            self.close(idx)

    def inside_gate(self) -> bool:
        return any(self.span_name[i] in self._gate_ids for i in self._stack[1:])

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) are neither spanned nor counted."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # --------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)
        if name in COUNT_ONLY:
            counter = COUNT_ONLY[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        nid = self.name_id(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return spanned

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap catsim's public functions wherever a catsim module binds
        them, the CoherentSuperposition methods and the CLI's experiment
        runners.  The same original function gets the same wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package.__name__ + "."):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[id(obj)])
        cls = modules[1].CoherentSuperposition
        for attr in STATE_METHODS:
            self._patch(cls, attr, self._wrap(_S + attr, vars(cls)[attr]))
        # the CLI dispatches through a registry captured at import time
        registry = getattr(modules[-1], "_EXPERIMENTS", {})
        for key, (run, schema) in list(registry.items()):
            if id(run) in wrappers:
                self._patch_item(registry, key, (wrappers[id(run)], schema))

    def _patch_item(self, mapping: dict, key, new) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=float).copy(),
            "end": np.frombuffer(self.span_end, dtype=float).copy(),
        }

    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, total and self seconds per span name."""
        a = self.arrays()
        selfs = self_times(a["parent"], a["start"], a["end"])
        dur = a["end"] - a["start"]
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_sum = np.bincount(a["name"], weights=selfs, minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_sum[i]), "total_s": float(total[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def layer_shares(self) -> dict[str, float]:
        """Share of the ops' time spent inside each catsim module: the
        durations of that module's outermost spans over the root spans'."""
        a = self.arrays()
        layers = sorted({n.split(".")[0] for n in self.names} - {OP_PREFIX.split(".")[0]})
        bit = {layer: 1 << i for i, layer in enumerate(layers)}
        span_bit = [bit.get(n.split(".")[0], 0) for n in self.names]
        names, parents = a["name"].tolist(), a["parent"].tolist()
        dur = (a["end"] - a["start"]).tolist()
        enclosing = [0] * len(names)  # layers of each span's ancestors
        busy = dict.fromkeys(layers, 0.0)
        total = 0.0
        for i, (nid, p) in enumerate(zip(names, parents)):
            if p < 0:
                total += dur[i]
                continue
            enclosing[i] = enclosing[p] | span_bit[names[p]]
            b = span_bit[nid]
            if b and not enclosing[i] & b:
                busy[layers[b.bit_length() - 1]] += dur[i]
        return {layer: busy[layer] / total for layer in layers} if total else {}

    def gate_z_attempts(self) -> int:
        a = self.arrays()
        tid, zid = self._ids.get("gates.teleport"), self._ids.get("gates.gate_z")
        if tid is None or zid is None:
            return 0
        tele = a["name"] == tid
        parents = a["parent"][tele]
        return int(np.sum(a["name"][parents[parents >= 0]] == zid))

    def per_layer(self, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric, zero where the layer was not reached."""
        spans = self.by_name()
        out: dict[str, float] = {}
        for prefix, names in GROUPS.items():
            out[prefix + ".calls"] = sum(
                spans.get(n, {}).get("calls", 0) for n in CALLS_FROM.get(prefix, names))
            out[prefix + ".self_s"] = sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
        for name, _ in PER_LAYER:
            if name in self.counts:
                out[name] = self.counts[name]
        consumed = sum(spans.get(n, {}).get("calls", 0) * k for n, k in BRANCH_CONSUMERS.items())
        built = self.counts["measure.branch_records_built"]
        out["measure.branch_use_ratio"] = consumed / built if built else 0.0
        out["gates.gate_z.attempts"] = self.gate_z_attempts()
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out.get(name, 0) for name, _ in PER_LAYER}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
