"""A seeded sweep of every teleported gate against a committed golden file.

Each row of `tests/golden/gate_sweep.tsv` is one sampled gate call on a
logical register of 1-3 qubits at alpha in ALPHAS, for each seed in SEEDS:
teleport, Z, Rz and Rx on one qubit, and the entangling gate on two.  The
row records the gate's outcome path (its measured outcomes in order),
`success`, `applied` and `repetitions`, which compare exactly, and its
probability and the decoded logical coefficients of its output state, as hex
floats.  Those two compare within REL = 1e-12 relative: to the probability,
and to the row's largest coefficient magnitude.  A Gram form sums through
BLAS, and another BLAS kernel (or SIMD dispatch) rounds it otherwise, so a
bitwise comparison would only hold on the machine that wrote the file; the
header records that machine's platform, in the one record the CLI corpus
writes too (`test_cli_corpus._platform`: NumPy version, BLAS configuration
and SIMD level).

Rewrite the file with

    PYTHONPATH=src python tests/test_gate_sweep.py --update
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from catsim import gates, optics
from test_cli_corpus import _platform

GOLDEN = Path(__file__).with_name("golden") / "gate_sweep.tsv"
ALPHAS = (1.5, 2.0, 3.0)
QUBITS = (1, 2, 3)
SEEDS = range(20)
REL = 1e-12
COLUMNS = ("alpha", "qubits", "seed", "gate", "modes", "theta", "success", "applied",
           "repetitions", "path", "probability", "coefficients")
EXACT = COLUMNS[:10]


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


def sweep() -> list[tuple[str, ...]]:
    """Every row of the sweep, as strings in COLUMNS order."""
    rows = []
    for alpha in ALPHAS:
        for n in QUBITS:
            for seed in SEEDS:
                encs, calls = _calls(alpha, n, seed)
                for name, modes, theta, call in calls:
                    out = call(np.random.default_rng(seed))
                    coeffs, _ = gates.logical_coefficients(out.state, encs)
                    path = " ".join(t[2].replace(" ", "") for t in out.trace if t[2] != "-")
                    rows.append((
                        repr(alpha), str(n), str(seed), name, modes, theta, str(out.success),
                        out.applied, str(out.repetitions), path, float(out.probability).hex(),
                        " ".join(float(v).hex() for v in coeffs.view(float)),
                    ))
    return rows


def _write(path: Path) -> None:
    lines = [
        "# catsim gate sweep: one sampled gate call per row (tests/test_gate_sweep.py)",
        f"# platform: {_platform()}",
        "\t".join(COLUMNS),
    ] + ["\t".join(row) for row in sweep()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _read(path: Path) -> list[tuple[str, ...]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert tuple(lines[0].split("\t")) == COLUMNS
    return [tuple(line.split("\t")) for line in lines[1:]]


def test_gates_reproduce_the_golden_sweep():
    golden = _read(GOLDEN)
    rows = sweep()
    assert len(rows) == len(golden)
    for row, ref in zip(rows, golden):
        where = dict(zip(EXACT, ref))
        assert row[:10] == ref[:10], where
        p, p_ref = float.fromhex(row[10]), float.fromhex(ref[10])
        assert abs(p - p_ref) <= REL * abs(p_ref), where
        x = np.array([float.fromhex(v) for v in row[11].split()]).view(complex)
        x_ref = np.array([float.fromhex(v) for v in ref[11].split()]).view(complex)
        assert np.abs(x - x_ref).max() <= REL * np.abs(x_ref).max(), where


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update  (rewrites {GOLDEN.name})")
    _write(GOLDEN)
