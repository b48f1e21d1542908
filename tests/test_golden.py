"""The golden corpus: committed outputs of all six experiments and of a
seeded gate sweep, each checked against a fresh run by one rule.

Each entry of ENTRIES is one file, `tests/golden/<name>.tsv`.  Its first
two lines are a header: `## catsim <argv>` (or the sweep's title) and
`## platform: <record>`, the platform that wrote the file (`_platform`:
OS, Python and NumPy versions, the OpenBLAS build and the kernel it runs,
and NumPy's SIMD level).  The rest of the file is the entry's output:
- a CLI argv that exits 0: its stdout.  Ruler prints 2001 rows, so its
  file holds the table's header, every 100th row and one `## ` line with
  the row count and the SHA-256 of all its rows (`_digest`);
- a CLI argv that fails, one per exit code (2 config, 3 budget, 4
  property check, 5 output): `exit <code>` and its one stderr line, with
  no stdout (weak-force prints its rows before its failed check).  The
  output error writes to `/dev/full`, so it is skipped where that device
  is missing;
- the gate sweep (`sweep`): one sampled gate call per row on a logical
  register of 1-3 qubits at alpha in ALPHAS, for each seed in SEEDS:
  teleport, Z, Rz and Rx on one qubit, and the entangling gate on two.
  A row holds the gate's outcome path (its measured outcomes in order),
  `success`, `applied` and `repetitions`, and its probability and the
  decoded logical coefficients of its output state as hex floats.

The rule.  An entry whose bounds are None compares as bytes everywhere:
bell-stats, ramsey, ruler and the exit entries print one set of bytes
under every OpenBLAS kernel, thread count and NumPy SIMD level tried
(`test_cli.test_bell_stats_bytes_do_not_depend_on_the_blas_kernel` keeps
this for bell-stats).  The other entries print cells that a Gram form
summed through BLAS, an `eigh` or a SIMD ufunc such as `arctan2` rounds
otherwise on another CPU (ROADMAP item 12).  Such an entry compares as
bytes when its file's platform record equals the host's.  Elsewhere each
cell of a column named in its bounds passes when every number in it is
within bounds[column](the stored numbers) of the stored one, and every
other cell compares exactly.  Each bound is stated, with its reason, next
to its entry.  A failure names the file, line, column and both values of
every cell that broke the rule.

Rewrite the corpus with

    PYTHONPATH=src python tests/test_golden.py --update

It prints every cell that moved in every entry and rewrites only the
files that are new or whose output moved, so a run on another host
leaves an unchanged file, platform line included, as it is.  A change
that moves a golden file names every moved cell.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import itertools
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from catsim import cli, gates, optics

GOLDEN = Path(__file__).with_name("golden")
ALPHAS = (1.5, 2.0, 3.0)
QUBITS = (1, 2, 3)
SEEDS = range(20)
COLUMNS = ("alpha", "qubits", "seed", "gate", "modes", "theta", "success", "applied",
           "repetitions", "path", "probability", "coefficients")
SWEEP_TITLE = "catsim gate sweep: one sampled gate call per row (tests/test_golden.py)"


def _rel(r: float):
    """A bound of r times the cell's largest stored magnitude."""
    return lambda ref: r * max(map(abs, ref))


def _abs(a: float):
    """An absolute bound a."""
    return lambda ref: a


def _calls(alpha: float, n: int, seed: int):
    """(gate, modes, theta, call) for every gate on a seeded n-qubit
    register at alpha; `call(rng)` runs the gate on the register."""
    rng = np.random.default_rng([seed, n, ALPHAS.index(alpha)])
    encs = [gates.QubitEncoding(alpha, q) for q in range(n)]
    s = None
    for enc in encs:
        qubit = gates.encode(*(rng.normal(size=2) + 1j * rng.normal(size=2)), enc)
        s = qubit if s is None else optics.tensor(s, qubit)
    q = seed % n
    enc = encs[q]
    rz = float(rng.uniform(0.005, 0.05)) / alpha  # theta^2 alpha^2 <= 0.0025
    zz = float(rng.uniform(0.005, 0.05)) / alpha**2
    calls = [
        ("teleport", f"{q}", "", lambda r: gates.teleport(s, enc, r)),
        ("gate_z", f"{q}", "", lambda r: gates.gate_z(s, enc, r)),
        ("gate_rz", f"{q}", repr(rz), lambda r: gates.gate_rz(s, enc, rz, r)),
        ("gate_rx", f"{q}", "", lambda r: gates.gate_rx(s, enc, None, r)),
    ]
    if n > 1:
        b = (q + 1) % n
        calls.append(("entangling_gate", f"{q},{b}", repr(zz),
                      lambda r: gates.entangling_gate(s, enc, encs[b], zz, r)))
    return encs, calls


def sweep() -> str:
    """The gate sweep's output: the COLUMNS line, then one row per call."""
    rows = ["\t".join(COLUMNS)]
    for alpha, n, seed in itertools.product(ALPHAS, QUBITS, SEEDS):
        encs, calls = _calls(alpha, n, seed)
        for name, modes, theta, call in calls:
            out = call(np.random.default_rng(seed))
            coeffs, _ = gates.logical_coefficients(out.state, encs)
            path = " ".join(t[2].replace(" ", "") for t in out.trace if t[2] != "-")
            rows.append("\t".join((
                repr(alpha), str(n), str(seed), name, modes, theta, str(out.success), out.applied,
                str(out.repetitions), path, float(out.probability).hex(),
                " ".join(float(v).hex() for v in coeffs.view(float)))))
    return "\n".join(rows) + "\n"


# gate-check: angles in radians and fidelities in [0, 1], rounded at ~1e-16
# absolute; other SIMD levels move rz_phase, rz_phase_err and rx_fidelity by
# up to 3.3e-16, and the check's own allowance is 1e-6
GATE_CHECK = dict.fromkeys(
    ("rz_phase", "rz_phase_err", "zz_step_phase_err", "rx_fidelity", "x_fidelity"), _abs(1e-13))
# weak-force: moments of the arctan2 estimates over the count grid; other
# SIMD levels move estimate_var and saturation by up to 4.1e-16 relative
WEAK_FORCE = dict.fromkeys(("estimate_mean", "estimate_var", "saturation"), _rel(1e-12))
# oracle-audit: max_error is itself a round-off measurement, ~1e-15, moved by
# up to 8.9e-16 under other OpenBLAS kernels and SIMD levels; 1e-13 is a
# thousand times below its tolerance, audit.DIST_TOL = 1e-10
AUDIT = {"max_error": _abs(1e-13)}
ENTRIES = {  # name: (argv or output function, bounds or None)
    # a Gram form sums through BLAS: 1e-12 relative to the probability, and
    # each part of a coefficient within 5e-13 of the row's largest part, so
    # each coefficient within 5e-13 sqrt(2) < 1e-12 of the largest modulus
    "gate_sweep": (sweep, {"probability": _rel(1e-12), "coefficients": _rel(5e-13)}),
    "cli/bell-stats": ("bell-stats", None),
    "cli/bell-stats-trials-1000": ("bell-stats --trials 1000", None),
    "cli/bell-stats-alpha-0.5-6-40": ("bell-stats --alpha-min 0.5 --alpha-max 6 --alpha-steps 40", None),
    "cli/ramsey": ("ramsey", None),
    "cli/ruler": ("ruler", None),
    "cli/gate-check": ("gate-check", GATE_CHECK),
    "cli/gate-check-theta-alpha2-1e-9": ("gate-check --theta-alpha2 1e-9 --alpha-steps 2", GATE_CHECK),
    "cli/weak-force": ("weak-force", WEAK_FORCE),
    "cli/weak-force-sweep-n": ("weak-force --sweep-n", WEAK_FORCE),
    "cli/oracle-audit": ("oracle-audit", AUDIT),
    "cli/oracle-audit-seed-7-cases-40": ("oracle-audit --seed 7 --cases 40", AUDIT),
    "cli/oracle-audit-alpha-max-4": ("oracle-audit --alpha-max 4", AUDIT),
    "cli/bell-stats-alpha-min-minus-1": ("bell-stats --alpha-min -1", None),
    "cli/bell-stats-alpha-steps-1001": ("bell-stats --alpha-steps 1001", None),
    "cli/weak-force-epsilon-1e-9": ("weak-force --epsilon 1e-9", None),
    "cli/ramsey-output-dev-full": ("ramsey --output /dev/full", None),
}
DIGESTED = {"cli/ruler": 100}  # entry: the stride of the rows kept


def _core() -> str:
    """The kernel a DYNAMIC_ARCH OpenBLAS chose at load time (the BLAS
    configuration names only the build's target), or 'unknown'."""
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return "unknown"


def _platform() -> str:
    """The platform record of a corpus file's header."""
    deps = np.show_config(mode="dicts")
    blas = deps["Build Dependencies"]["blas"]
    simd = deps.get("SIMD Extensions", {}).get("found", [])
    return (f"{platform.system()} {platform.machine()}, Python {platform.python_version()}, "
            f"NumPy {np.__version__}, BLAS {blas['name']} "
            f"{blas.get('openblas configuration', blas['version'])}, core {_core()}, "
            f"SIMD {' '.join(simd)}")


def _digest(out: str, stride: int) -> str:
    """The table's header lines, every stride-th row from the first and
    one `## ` line with the row count and the SHA-256 of all rows."""
    lines = out.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = lines[start:]
    sha = hashlib.sha256("".join(rows).encode()).hexdigest()
    return "".join(lines[:start] + rows[::stride]) + f"## {len(rows)} rows, sha256 {sha}\n"


def run(name: str) -> str:
    """Entry `name`'s output in its stored form, without the header."""
    src = ENTRIES[name][0]
    if callable(src):
        return src()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(src.split())
    if code != cli.EXIT_OK:
        return f"exit {code}\n{err.getvalue()}"
    return _digest(out.getvalue(), DIGESTED[name]) if name in DIGESTED else out.getvalue()


def _runnable(name: str) -> bool:
    return "/dev/full" not in str(ENTRIES[name][0]) or Path("/dev/full").exists()


def _within(x: str, y: str, bound) -> bool:
    """Whether every number of cell y lies within bound(x's numbers) of x's."""
    try:
        ref, got = ([float.fromhex(t) if "x" in t else float(t) for t in c.split()] for c in (x, y))
        return len(ref) == len(got) and max(abs(p - q) for p, q in zip(ref, got)) <= bound(ref)
    except ValueError:
        return False


def _moved(where: str, old: str, new: str, bounds: dict) -> list[str]:
    """One line per cell of output `new` that differs from `old` beyond
    its column's bound in `bounds` (any difference in a column not named
    there): file line, column and both values.  The column names are the
    first stored line that is not a `#` line."""
    moved, names = [], []
    lines = itertools.zip_longest(old.splitlines(), new.splitlines(), fillvalue="")
    for n, (a, b) in enumerate(lines, 3):
        a, b = a.split("\t"), b.split("\t")
        names = names or ([] if a[0].startswith("#") else a)
        for col, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue="<none>")):
            name = names[col] if col < len(names) else ""
            if x != y and not (name in bounds and _within(x, y, bounds[name])):
                moved.append(f"{where}: line {n}, column {col + 1} ({name}): {x} -> {y}")
    return moved


def _check(where: str, stored: str, new: str, bounds: dict | None, host: str) -> list[str]:
    """The cells of output `new` that break its entry's rule against the
    stored file: bytes, unless the entry has bounds and the file's platform
    record is not `host`."""
    _, record, old = stored.split("\n", 2)
    if bounds is not None and record != f"## platform: {host}":
        return _moved(where, old, new, bounds)
    return [] if new == old else _moved(where, old, new, {}) or [f"{where}: line endings differ"]


@pytest.mark.parametrize("name", ENTRIES)
def test_output_matches_the_golden_corpus(name):
    if not _runnable(name):
        pytest.skip("no /dev/full device")
    stored = (GOLDEN / f"{name}.tsv").read_bytes().decode()
    moved = _check(f"{name}.tsv", stored, run(name), ENTRIES[name][1], _platform())
    assert not moved, "\n".join(moved)


def test_the_rule_pins_bits_on_the_writing_platform_and_bounds_them_elsewhere():
    body = "# t\np\tq\n0x1.0000000000000p+0\t1\n"
    stored, bounds = "## t\n## platform: P\n" + body, {"p": _rel(1e-12)}
    ulp, far, q = (body.replace(a, b) for a, b in (
        ("0000p", "0001p"), ("0000000000p", "0001000000p"), ("\t1", "\t2")))
    assert _check("t", stored, ulp, bounds, "P") == [
        "t: line 5, column 1 (p): 0x1.0000000000000p+0 -> 0x1.0000000000001p+0"]
    assert _check("t", stored, ulp, bounds, "Q") == []
    assert all(_check("t", stored, new, bounds, host) for new in (far, q) for host in "PQ")
    assert _check("t", stored, ulp, None, "Q")


def _update() -> None:
    host = _platform()
    for name, (src, _) in filter(lambda item: _runnable(item[0]), ENTRIES.items()):
        path, new = GOLDEN / f"{name}.tsv", run(name)
        old = path.read_bytes().decode().split("\n", 2)[2] if path.exists() else None
        for line in _moved(f"{name}.tsv", old, new, {}) if old is not None else [f"{name}.tsv: new"]:
            print(line)
        if new != old:
            title = SWEEP_TITLE if callable(src) else f"catsim {src}"
            path.write_bytes(f"## {title}\n## platform: {host}\n{new}".encode())


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update  (rewrites {GOLDEN}/**/*.tsv)")
    _update()
