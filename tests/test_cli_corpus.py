"""The stdout of a fixed list of CLI argvs against a committed corpus.

Each entry of ARGVS is one `catsim` run whose stdout is stored in
`tests/golden/cli/<name>.tsv`, behind a block of `## ` lines that name the
argv and record the platform that wrote the file (NumPy version, BLAS
configuration and SIMD level).  The test strips that block and compares the
rest as bytes.  Ruler prints 2001 rows, so its file holds the table's
header, every 100th row and the SHA-256 of all its rows (`_digest`).

Only bell-stats, ruler and ramsey are in the corpus: each printed one set
of bytes under every OpenBLAS kernel, thread count and NumPy SIMD level
tried.  gate-check, weak-force and oracle-audit move bytes under some of
those, so a byte comparison there would hold only on the machine that wrote
the file.

Each entry of EXITS is one run that ends in an error, one per exit code
(2 config, 3 budget, 4 property check, 5 output): its file holds
`exit <code>` and the run's one stderr line, and no stdout (weak-force's
rows, printed before its failed check, are not SIMD-stable; the others
print none).  The output error writes to `/dev/full`, so it is skipped
where that device is missing.

Rewrite the corpus, and print every cell that moved, with

    PYTHONPATH=src python tests/test_cli_corpus.py --update
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from catsim import cli

CORPUS = Path(__file__).with_name("golden") / "cli"
ARGVS = {
    "bell-stats": ["bell-stats"],
    "bell-stats-trials-1000": ["bell-stats", "--trials", "1000"],
    "bell-stats-alpha-0.5-6-40": [
        "bell-stats", "--alpha-min", "0.5", "--alpha-max", "6", "--alpha-steps", "40"],
    "ramsey": ["ramsey"],
    "ruler": ["ruler"],
}
DIGESTED = {"ruler": 100}  # entry: the stride of the rows kept
EXITS = {  # entry: (argv, exit code)
    "bell-stats-alpha-min-minus-1": (["bell-stats", "--alpha-min", "-1"], cli.EXIT_CONFIG),
    "bell-stats-alpha-steps-1001": (["bell-stats", "--alpha-steps", "1001"], cli.EXIT_BUDGET),
    "weak-force-epsilon-1e-9": (["weak-force", "--epsilon", "1e-9"], cli.EXIT_PROPERTY),
    "ramsey-output-dev-full": (["ramsey", "--output", "/dev/full"], cli.EXIT_OUTPUT),
}


def _platform() -> str:
    deps = np.show_config(mode="dicts")
    blas = deps["Build Dependencies"]["blas"]
    simd = deps.get("SIMD Extensions", {}).get("found", [])
    return (f"{platform.system()} {platform.machine()}, Python {platform.python_version()}, "
            f"NumPy {np.__version__}, BLAS {blas['name']} "
            f"{blas.get('openblas configuration', blas['version'])}, SIMD {' '.join(simd)}")


def _digest(out: str, stride: int) -> str:
    """The table's header lines, every stride-th row from the first and
    one `## ` line with the row count and the SHA-256 of all rows."""
    lines = out.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    rows = lines[start:]
    sha = hashlib.sha256("".join(rows).encode()).hexdigest()
    return "".join(lines[:start] + rows[::stride]) + f"## {len(rows)} rows, sha256 {sha}\n"


def run(name: str) -> str:
    """The stored form of entry `name`'s stdout, without the `## ` header."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(ARGVS[name])
    assert code == cli.EXIT_OK, (name, code)
    out = buf.getvalue()
    return _digest(out, DIGESTED[name]) if name in DIGESTED else out


def run_error(name: str) -> str:
    """The stored form of error entry `name`: its exit code and stderr."""
    argv, code = EXITS[name]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        got = cli.main(argv)
    assert got == code, (name, got)
    return f"exit {got}\n{err.getvalue()}"


def _runnable(name: str) -> bool:
    return "/dev/full" not in EXITS[name][0] or Path("/dev/full").exists()


def _body(text: str) -> str:
    """A corpus file without its leading `## ` header block."""
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("## "))
    return "".join(lines[start:])


def _cell_diff(name: str, old: str, new: str) -> list[str]:
    """One line per cell that differs between two stored outputs: file,
    line number, column and both values."""
    diff = []
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for n in range(max(len(old_lines), len(new_lines))):
        a = old_lines[n].split("\t") if n < len(old_lines) else []
        b = new_lines[n].split("\t") if n < len(new_lines) else []
        for col in range(max(len(a), len(b))):
            x = a[col] if col < len(a) else "<none>"
            y = b[col] if col < len(b) else "<none>"
            if x != y:
                diff.append(f"{name}.tsv: output line {n + 1}, column {col + 1}: {x} -> {y}")
    return diff


def test_cli_stdout_matches_the_corpus_byte_for_byte():
    moved = []
    for name in ARGVS:
        stored = _body((CORPUS / f"{name}.tsv").read_bytes().decode())
        now = run(name)
        if now.encode() != stored.encode():
            moved += _cell_diff(name, stored, now) or [f"{name}.tsv: line endings differ"]
    assert not moved, "\n".join(moved)


@pytest.mark.parametrize("name", EXITS)
def test_cli_errors_match_the_corpus(name):
    if not _runnable(name):
        pytest.skip("no /dev/full device")
    stored = _body((CORPUS / f"{name}.tsv").read_bytes().decode())
    now = run_error(name)
    assert len(now.splitlines()) == 2, now
    assert now == stored


def _update() -> None:
    CORPUS.mkdir(parents=True, exist_ok=True)
    entries = {name: (argv, run) for name, argv in ARGVS.items()}
    entries.update({name: (EXITS[name][0], run_error) for name in EXITS if _runnable(name)})
    for name, (argv, runner) in entries.items():
        path = CORPUS / f"{name}.tsv"
        new = runner(name)
        if path.exists():
            for line in _cell_diff(name, _body(path.read_bytes().decode()), new):
                print(line)
        header = f"## catsim {' '.join(argv)}\n## platform: {_platform()}\n"
        path.write_bytes((header + new).encode())


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update  (rewrites {CORPUS}/*.tsv)")
    _update()
