"""catsim benchmark: one closed-loop client running a named workload.

    python3 bench/run.py --workload qubit-shots --seed 1 --seconds 18 --trace 0

Run from the repository root.  The program under test is imported from
`src/` of the same checkout.  With `--trace 0` the run replays the
workload's fixed op list for `--seconds` and reports the end-to-end metrics;
with `--trace 1` it runs the op list twice, untraced and traced, and reports
per-layer metrics.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Each run
also appends a record with its environment to bench/results/results.jsonl;
a traced run saves its spans to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# BLAS/OpenMP pool size; set before NumPy is imported, here and in set-up probes
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

MIN_OPS = 100
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# Timings are scaled to the host speed at which one pass of the reference
# kernel takes REFERENCE_MS; the kernel is timed between ops at least every
# REFERENCE_EVERY_S of op time.
REFERENCE_MS = 1.0
REFERENCE_LOOPS = 72
REFERENCE_EVERY_S = 0.1

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_catsim():
    """Import catsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "catsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no catsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import catsim

    if Path(catsim.__file__).resolve().parent != SRC / "catsim":
        raise SystemExit(f"error: imported catsim from {catsim.__file__}")
    return catsim


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, versions: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
    }


def run_ops(ops, tracer=None, first_index: int = 0):
    """Closed loop: each op starts after the previous one returned and was
    checked.  Returns (latencies in s, failure reasons)."""
    latencies, failures = [], []
    for i, op in enumerate(ops, first_index):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.op(i, op.kind):
                    out = op.run()
            latencies.append(time.perf_counter() - t0)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        try:
            if tracer is None:
                reason = op.check(out)
            else:
                with tracer.paused():
                    reason = op.check(out)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{op.kind}: {reason}")
    return latencies, failures


def reference_ms() -> float:
    """Best of three passes of a fixed NumPy-and-interpreter kernel that
    shares no code with catsim.  Its time tracks the speed the shared host
    gives this process at the moment."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 16) + 1j * np.linspace(1.0, 0.0, 16)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(REFERENCE_LOOPS):
            m = np.exp(np.outer(a.conj(), a) * 0.01)
            acc += float((a.conj() @ m @ a).real)
        best = min(best, time.perf_counter() - t0)
    return 1000.0 * best


def run_scaled(ops):
    """run_ops with the reference kernel timed around every stretch of at
    least REFERENCE_EVERY_S of op time.  Returns (latencies scaled to
    REFERENCE_MS by the mean reference time around their stretch, raw
    latencies, failure reasons, reference times in ms)."""
    raw, failures, marks, since = [], [], [(0, reference_ms())], 0.0
    for op in ops:
        lat, fail = run_ops([op])
        raw += lat
        failures += fail
        since += lat[0]
        if since >= REFERENCE_EVERY_S:
            marks.append((len(raw), reference_ms()))
            since = 0.0
    if marks[-1][0] != len(raw):
        marks.append((len(raw), reference_ms()))
    scaled = []
    for (start, r0), (end, r1) in zip(marks, marks[1:]):
        scale = REFERENCE_MS / (0.5 * (r0 + r1))
        scaled += [t * scale for t in raw[start:end]]
    return scaled, raw, failures, [r for _, r in marks]


def setup_probe(workload: str) -> float:
    """In a fresh interpreter: seconds to import catsim plus the warm-up ops."""
    t0 = time.perf_counter()
    import_catsim()
    t_import = time.perf_counter() - t0
    import workloads

    ops = workloads.warmup_ops(workload)
    t1 = time.perf_counter()
    _, failures = run_ops(ops)
    t_warm = time.perf_counter() - t1
    if failures:
        raise SystemExit("warm-up failed: " + "; ".join(failures))
    return t_import + t_warm


def measure_setup(workload: str) -> list[float]:
    """Raw set-up seconds of SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(latencies: list[float], setup_s: float, peak_rss_mb: float) -> dict:
    ms = [1000.0 * t for t in latencies]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": percentile(ms, 50),
        "op_p90_ms": percentile(ms, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def timed_run(workloads, workload: str, seed: int, seconds: float):
    """Replay the workload's fixed op list in rounds, each of fresh ops with
    the same inputs, until `seconds` have passed (at least three rounds).
    Returns each op's median scaled and median raw latency over the rounds,
    the failures, the op kinds, each round's raw op seconds and the median
    reference time in ms."""
    scaled, raw, failures, round_s, refs = [], [], [], [], []
    t0 = time.perf_counter()
    while len(round_s) < 3 or time.perf_counter() - t0 < seconds:
        workloads.clear_caches()
        ops = [op for block in workloads.round_blocks(workload, seed) for op in block]
        s, r, fail, ref = run_scaled(ops)
        scaled.append(s)
        raw.append(r)
        failures += fail
        round_s.append(sum(r))
        refs += ref
    kinds = [op.kind for op in ops]
    per_op = [statistics.median(ts) for ts in zip(*scaled)]
    per_op_raw = [statistics.median(ts) for ts in zip(*raw)]
    return per_op, per_op_raw, failures, kinds, round_s, statistics.median(refs)


def traced_run(workloads, tracer_mod, catsim, workload: str, seed: int):
    """The round's op list run block by block twice, untraced and traced, in
    alternating order so both passes meet the same warm state."""
    tracer = tracer_mod.Tracer()
    plain, traced, failures = [], [], []

    def run_traced(block, first_index):
        tracer.install(catsim)
        tracer.active = True
        try:
            return run_ops(block, tracer, first_index)
        finally:
            tracer.active = False
            tracer.uninstall()

    pairs = zip(workloads.round_blocks(workload, seed), workloads.round_blocks(workload, seed))
    for b, (plain_block, traced_block) in enumerate(pairs):
        for traced_pass in ((False, True) if b % 2 == 0 else (True, False)):
            if traced_pass:
                lat, fail = run_traced(traced_block, len(traced))
                traced += lat
            else:
                lat, fail = run_ops(plain_block)
                plain += lat
            failures += fail
    return tracer, plain + traced, failures, sum(plain) / sum(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads()
    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0

    catsim = import_catsim()
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(args.workload, args.seed, workloads.versions())
    print("# env " + json.dumps(env, sort_keys=True))

    setup_times = measure_setup(args.workload) if args.trace == 0 else []
    warm_ops = workloads.warmup_ops(args.workload)
    _, warm_fail = run_ops(warm_ops)

    raw_values: dict = {}
    if args.trace:
        tracer, latencies, failures, ratio = traced_run(
            workloads, tracer_mod, catsim, args.workload, args.seed)
        attempted = len(latencies) + len(warm_ops)
        values = tracer.per_layer(ratio)
        units = dict(tracer_mod.PER_LAYER)
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"trace-{args.workload}-s{args.seed}.npz")
        for layer, share in tracer.layer_shares().items():
            print(f"# layer {layer} share_of_op_time={share:.4f}")
        for name, row in sorted(tracer.by_name().items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# span {name} calls={row['calls']} self_s={row['self_s']:.6f} "
                  f"total_s={row['total_s']:.6f}")
    else:
        latencies, raw_latencies, failures, kinds, round_s, ref_ms = timed_run(
            workloads, args.workload, args.seed, args.seconds)
        attempted = len(round_s) * len(latencies) + len(warm_ops)
        by_kind: dict[str, list[float]] = {}
        for kind, t in zip(kinds, latencies):
            by_kind.setdefault(kind, []).append(1000.0 * t)
        for kind, ms in sorted(by_kind.items()):
            print(f"# op {kind} n={len(ms)} p50_ms={statistics.median(ms):.4f} "
                  f"mean_ms={statistics.fmean(ms):.4f}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # set-up time is not scaled: import time did not follow the reference
        # kernel's swings, and scaling it only added spread
        setup_s = statistics.median(setup_times)
        values = timing_metrics(latencies, setup_s, peak_rss_mb)
        raw_values = timing_metrics(raw_latencies, setup_s, peak_rss_mb)
        units = dict(END_TO_END)
        print(f"# samples ops={len(latencies)} rounds={len(round_s)} setup_probes={len(setup_times)}")
        print(f"# round_op_seconds_raw {[round(t, 4) for t in round_s]}")
        print("# raw " + " ".join(f"{k}={v:.6g}" for k, v in raw_values.items())
              + f" median_reference_ms={ref_ms:.4f}")

    failures = warm_fail + failures
    for reason in failures[:20]:
        print(f"# FAILED {reason}")
    error_rate = len(failures) / attempted
    print(f"# error_rate {error_rate:.6g} ratio ({len(failures)} of {attempted} ops)")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "results.jsonl", "a", encoding="utf-8") as fh:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "env": env, "error_rate": error_rate,
                  "raw_metrics": raw_values, **result}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
