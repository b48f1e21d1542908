"""Seeded op streams for the catsim benchmark, with their output checks.

A workload is an endless stream of blocks; a block is a list of ops drawn
from a fixed mix, in a seeded order, with seeded parameters.  Every block
of a workload holds the same op kinds and input sizes, so runs of different
seeds do the same kind of work and differ only in parameters and sampled
outcomes.

An op's `run` calls catsim and returns its output; `check` inspects that
output and returns None when it is correct, else a one-line reason.  The
checks follow the outcome the program reports (a gate's `applied`, a
sampled homodyne point), so they hold however the program consumes its
random draws.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

import catsim
from catsim import audit, cli, gates, measure, optics, states

WORKLOADS = ("qubit-shots", "wide-register", "metrology-scan", "oracle-audit")

# infidelity allowed on a decoded register: round-off, plus the cat-basis
# Rx error bound that `catsim gate-check` itself enforces, per Rx applied
EXACT_TOL = 1e-9
RX_TOL_FACTOR = 10.0

RULER_POINTS = 101
HOMODYNE_POINTS = 512

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


@dataclass
class Op:
    kind: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


# ---------------------------------------------------------------------------
# reference register: an independent NumPy statevector over logical qubits,
# qubit 0 first, logical 0 = |-alpha>

def _rx_matrix(angle: float) -> np.ndarray:
    a, b = np.exp(0.5j * angle), np.exp(-0.5j * angle)
    return np.array([[a, b], [b, a]]) / math.sqrt(2)


def _on_qubit(psi: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(mat, psi, axes=([1], [q])), 0, q)


def _zz(psi: np.ndarray, angle: float, qa: int, qb: int) -> np.ndarray:
    same, diff = np.exp(1j * angle), np.exp(-1j * angle)
    phases = np.array([[same, diff], [diff, same]])
    shape = [1] * psi.ndim
    shape[qa], shape[qb] = 2, 2
    if qa > qb:
        phases = phases.T
    return psi * phases.reshape(shape)


def follow(psi: np.ndarray, applied: str, qubits: tuple[int, ...], angle: float = 0.0) -> np.ndarray:
    """Apply to the reference register the logical operation a gate reports
    in `applied`; `angle` is the rotation the op requested."""
    if applied in ("FAIL", "identity"):
        return psi
    if applied == "Z":
        return _on_qubit(psi, PAULI_Z, qubits[0])
    if applied == "X":
        return _on_qubit(psi, PAULI_X, qubits[0])
    name, _, rest = applied.partition("(")
    reported = float(rest.rstrip(")"))
    if not math.isclose(reported, angle, rel_tol=1e-5, abs_tol=1e-9):
        raise ValueError(f"gate reports {applied}, requested angle {angle:.9g}")
    if name == "Rz":
        return _on_qubit(psi, np.diag([1.0, np.exp(1j * angle)]), qubits[0])
    if name == "Rx":
        return _on_qubit(psi, _rx_matrix(angle), qubits[0])
    if name == "ZZ":
        return _zz(psi, angle, qubits[0], qubits[1])
    raise ValueError(f"unknown applied operation {applied!r}")


def infidelity(ref: np.ndarray, got: np.ndarray) -> float:
    ref, got = np.ravel(ref), np.ravel(got)
    overlap = abs(np.vdot(ref, got)) ** 2
    return 1.0 - overlap / (np.vdot(ref, ref).real * np.vdot(got, got).real)


def _register(amps: list[tuple[complex, complex]]) -> np.ndarray:
    psi = np.ones((), dtype=complex)
    for mu, nu in amps:
        psi = np.multiply.outer(psi, np.array([mu, nu], dtype=complex))
    return psi


def _random_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    z = rng.normal(size=4)
    return complex(z[0], z[1]), complex(z[2], z[3])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def _rx_tol(alpha: float) -> float:
    return RX_TOL_FACTOR * math.exp(-2 * alpha**2)


def _check_register(psi: np.ndarray, got: np.ndarray, tol: float) -> Optional[str]:
    err = infidelity(psi, got)
    if not err <= tol:
        return f"decoded register infidelity {err:.3g} > {tol:.3g}"
    return None


# ---------------------------------------------------------------------------
# qubit-shots: one sampled gate on a freshly encoded qubit (or pair)

QUBIT_MIX = ("teleport",) * 4 + ("gate_z", "gate_rz", "gate_rx", "entangling_gate") * 2

_TELEPORT_BRANCHES = {"identity": ("I", "III"), "Z": ("II", "IV"), "FAIL": ("FAIL",)}


def _teleport_table_error(s, alpha: float, out) -> Optional[str]:
    """The exact Bell table of this teleport sums to one and holds the
    reported outcome's probability under a branch matching `applied`."""
    joint = optics.tensor(s, optics.bell_resource(alpha))
    table = measure.bell_outcomes(joint, 0, 1)
    total = sum(rec.probability for rec in table.values())
    if abs(total - 1.0) > 1e-10:
        return f"Bell branch probabilities sum to {total!r}"
    names = _TELEPORT_BRANCHES.get(out.applied, ())
    if not any(math.isclose(table[n].probability, out.probability, rel_tol=1e-9) for n in names):
        return f"teleport probability {out.probability!r} matches no {out.applied} branch"
    return None


def _qubit_shot(kind: str, rng: np.random.Generator) -> Op:
    alpha = float(rng.uniform(1.5, 3.0))
    gate_seed = _seed(rng)
    if kind == "entangling_gate":
        enc_a, enc_b = gates.QubitEncoding(alpha, 0), gates.QubitEncoding(alpha, 1)
        amps = [_random_amplitudes(rng), _random_amplitudes(rng)]
        angle = float(rng.uniform(0.01, 0.1))

        def run():
            s = optics.tensor(gates.encode(*amps[0], enc_a), gates.encode(*amps[1], enc_b))
            return gates.entangling_gate(
                s, enc_a, enc_b, angle / alpha**2, np.random.default_rng(gate_seed))

        def check(out):
            psi = follow(_register(amps), out.applied, (0, 1), angle)
            x, _ = gates.decode_two(out.state, enc_a, enc_b)
            return _check_register(psi, x, EXACT_TOL)

        return Op(kind, dict(alpha=alpha, amps=amps, angle=angle, seed=gate_seed), run, check)

    enc = gates.QubitEncoding(alpha)
    amps = [_random_amplitudes(rng)]
    angle, tol = 0.0, EXACT_TOL
    if kind == "gate_rz":
        angle = float(rng.uniform(0.01, 0.2))
    elif kind == "gate_rx":
        angle, tol = math.pi / 2, EXACT_TOL + _rx_tol(alpha)

    def run():
        s = gates.encode(*amps[0], enc)
        gate_rng = np.random.default_rng(gate_seed)
        if kind == "gate_rz":
            return s, gates.gate_rz(s, enc, angle / (4 * alpha**2), gate_rng)
        if kind == "gate_rx":
            return s, gates.gate_rx(s, enc, None, gate_rng)
        if kind == "gate_z":
            return s, gates.gate_z(s, enc, gate_rng)
        return s, gates.teleport(s, enc, gate_rng)

    def check(result):
        s, out = result
        if kind == "teleport":
            err = _teleport_table_error(s, alpha, out)
            if err:
                return err
        psi = follow(_register(amps), out.applied, (0,), angle)
        mu, nu, _ = gates.decode(out.state, enc)
        return _check_register(psi, np.array([mu, nu]), tol)

    return Op(kind, dict(alpha=alpha, amps=amps, angle=angle, seed=gate_seed), run, check)


def _qubit_block(rng: np.random.Generator) -> list[Op]:
    return [_qubit_shot(kind, rng) for kind in rng.permutation(QUBIT_MIX)]


# ---------------------------------------------------------------------------
# wide-register: random circuits on 3..6 encoded qubits, each ending in a
# timed logical readout.  Only the teleport op samples its outcome; the
# other gates take the canonical branch (rng=None), so an op's cost is set by
# the register size and not by repeat-until-success draws, which qubit-shots
# covers.

REGISTER_SIZES = (3, 4, 5, 6)
CIRCUIT_GATES = ("gate_x", "gate_rz", "gate_rx", "entangling_gate", "teleport")


def _circuit(rng: np.random.Generator, n: int) -> list[Op]:
    alpha = float(rng.uniform(2.0, 3.0))
    encs = [gates.QubitEncoding(alpha, q) for q in range(n)]
    amps = [_random_amplitudes(rng) for _ in range(n)]
    ctx: dict = {"state": None, "psi": None, "tol": EXACT_TOL}

    def prepare():
        s = gates.encode(*amps[0], encs[0])
        for q in range(1, n):
            s = optics.tensor(s, gates.encode(*amps[q], encs[q]))
        ctx["state"] = s
        return s

    def check_prepare(s):
        ctx["psi"] = _register(amps)
        if s.modes != n or s.nterms != 2**n:
            return f"register has {s.nterms} terms on {s.modes} modes"
        return None

    ops = [Op(f"prepare{n}", dict(alpha=alpha, amps=amps), prepare, check_prepare)]
    for kind in rng.permutation(CIRCUIT_GATES):
        ops.append(_circuit_gate(kind, rng, encs, ctx))

    def readout():
        return gates.logical_coefficients(ctx["state"], encs)

    def check_readout(result):
        x, _ = result
        return _check_register(ctx["psi"], x, ctx["tol"])

    ops.append(Op(f"readout{n}", dict(alpha=alpha), readout, check_readout))
    return ops


def _circuit_gate(kind: str, rng: np.random.Generator, encs, ctx: dict) -> Op:
    n, alpha = len(encs), encs[0].alpha
    qa, qb = (int(q) for q in rng.choice(n, size=2, replace=False))
    teleport_seed = _seed(rng)
    angle = 0.0
    if kind == "gate_rz":
        angle = float(rng.uniform(0.01, 0.2))
    elif kind == "gate_rx":
        angle = math.pi / 2
    elif kind == "entangling_gate":
        angle = float(rng.uniform(0.01, 0.1))

    def run():
        s = ctx["state"]
        if kind == "gate_x":
            ctx["state"] = gates.gate_x(s, encs[qa])
            return "X"
        if kind == "gate_rz":
            out = gates.gate_rz(s, encs[qa], angle / (4 * alpha**2))
        elif kind == "gate_rx":
            out = gates.gate_rx(s, encs[qa])
        elif kind == "entangling_gate":
            out = gates.entangling_gate(s, encs[qa], encs[qb], angle / alpha**2)
        else:
            out = gates.teleport(s, encs[qa], np.random.default_rng(teleport_seed))
        ctx["state"] = out.state
        return out.applied

    def check(applied):
        ctx["psi"] = follow(ctx["psi"], applied, (qa, qb), angle)
        if applied.startswith("Rx"):
            ctx["tol"] += _rx_tol(alpha)
        if ctx["state"].modes != n:
            return f"{kind} left {ctx['state'].modes} modes, expected {n}"
        return None

    params = dict(alpha=alpha, qubits=(qa, qb), angle=angle, seed=teleport_seed)
    return Op(f"{kind}{n}", params, run, check)


def _register_block(rng: np.random.Generator) -> list[Op]:
    ops: list[Op] = []
    for n in rng.permutation(REGISTER_SIZES):
        ops.extend(_circuit(rng, int(n)))
    return ops


# ---------------------------------------------------------------------------
# metrology-scan: in-process CLI runs plus homodyne and photon-counting calls
# on cats (K = 2); sizes keep ruler and homodyne ops near the CLI runs' cost

METROLOGY_MIX = (
    "ruler", "weak-force", "ramsey", "gate-check", "bell-stats",
    "homodyne", "photon_statistics", "photon_statistics",
)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _table(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split("\t") for ln in lines[1:]]


def _cli_op(kind: str, argv: list[str], extra: Callable[[list[list[str]]], Optional[str]]) -> Op:
    def check(result):
        rc, text = result
        if rc != 0:
            return f"catsim {' '.join(argv)} exited {rc}"
        return extra(_table(text))

    return Op(kind, dict(argv=argv), lambda: run_cli(argv), check)


def _ruler_op(rng: np.random.Generator) -> Op:
    alpha = float(rng.uniform(4.0, 10.0))
    wavelength = float(rng.uniform(1e-6, 1e-5))
    argv = ["ruler", "--alpha", repr(alpha), "--lambda", repr(wavelength),
            "--points", str(RULER_POINTS)]
    step = 3.4 * math.pi / alpha / (RULER_POINTS - 1) * wavelength / (2 * math.pi)

    def spacing(rows):
        got = float(rows[0][-1])
        want = wavelength / (2 * alpha)
        if not abs(got - want) <= step:
            return f"ruler spacing {got:.6g} vs {want:.6g} (grid step {step:.3g})"
        return None

    return _cli_op("ruler", argv, spacing)


def _cat_density(alpha: float, parity: int, x: float) -> float:
    """|<x|cat>|^2 for a real-amplitude even/odd cat, from the closed form."""
    def wave(a):
        return math.pi ** -0.25 * math.exp(-0.5 * x * x + math.sqrt(2) * x * a - a * a)
    norm2 = 2 + 2 * parity * math.exp(-2 * alpha * alpha)
    return (wave(alpha) + parity * wave(-alpha)) ** 2 / norm2


def _cat_counts(alpha: float, parity: int, n_max: int) -> np.ndarray:
    """Photon-number distribution of a real even/odd cat, closed form."""
    n = np.arange(n_max + 1)
    lgam = np.array([math.lgamma(k + 1) for k in n])
    poisson = np.exp(-alpha * alpha + 2 * n * math.log(alpha) - lgam)
    keep = (n % 2 == 0) if parity > 0 else (n % 2 == 1)
    return np.where(keep, 2 * poisson / (1 + parity * math.exp(-2 * alpha * alpha)), 0.0)


def _metrology_op(kind: str, rng: np.random.Generator) -> Op:
    if kind == "ruler":
        return _ruler_op(rng)
    if kind == "weak-force":
        n_max = int(rng.integers(3, 5))
        argv = ["weak-force", "--sweep-n", "--n-max", str(n_max),
                "--alpha", repr(float(rng.uniform(1.5, 3.0))),
                "--seed", str(int(rng.integers(2**31)))]
        return _cli_op(kind, argv, lambda rows: None if len(rows) == n_max
                       else f"weak-force printed {len(rows)} rows, expected {n_max}")
    if kind == "ramsey":
        argv = ["ramsey", "--n-max", str(int(rng.integers(4, 11))),
                "--theta", repr(float(rng.uniform(0.1, 0.5)))]
        return _cli_op(kind, argv, lambda rows: None)
    if kind == "gate-check":
        argv = ["gate-check", "--alpha-min", repr(float(rng.uniform(1.5, 3.0))),
                "--alpha-steps", "1",
                "--theta-alpha2", repr(float(rng.uniform(0.005, 0.02)))]
        return _cli_op(kind, argv, lambda rows: None)
    if kind == "bell-stats":
        argv = ["bell-stats", "--alpha-min", repr(float(rng.uniform(1.0, 1.5))),
                "--alpha-max", repr(float(rng.uniform(2.5, 3.0))), "--alpha-steps", "3"]
        return _cli_op(kind, argv, lambda rows: None)

    alpha = float(rng.uniform(1.0, 3.0))
    parity = int(rng.choice([-1, 1]))
    params = dict(alpha=alpha, parity=parity)
    if kind == "homodyne":
        params["seed"] = sample_seed = _seed(rng)

        def run():
            return measure.homodyne_sample(states.cat(alpha, parity), 0,
                                           np.random.default_rng(sample_seed), HOMODYNE_POINTS)

        def check(rec):
            want = _cat_density(alpha, parity, rec.outcome)
            if not abs(rec.probability - want) <= 1e-10:
                return f"homodyne density {rec.probability!r} at x={rec.outcome!r}, closed form {want!r}"
            return None

        return Op(kind, params, run, check)

    def run_counts():
        return measure.photon_statistics(states.cat(alpha, parity), 0)

    def check_counts(probs):
        total = float(np.sum(probs))
        if abs(total - 1.0) > 1e-10:
            return f"photon-number probabilities sum to {total!r}"
        err = float(np.max(np.abs(probs - _cat_counts(alpha, parity, len(probs) - 1))))
        if err > 1e-10:
            return f"photon statistics differ from the closed form by {err:.3g}"
        return None

    return Op(kind, params, run_counts, check_counts)


def _metrology_block(rng: np.random.Generator) -> list[Op]:
    return [_metrology_op(kind, rng) for kind in rng.permutation(METROLOGY_MIX)]


# ---------------------------------------------------------------------------
# oracle-audit: one case per registered check per op, fresh audit seed.
# alpha <= 2 keeps an op near 60 ms, so a round holds 100 of them; the Fock
# oracle still takes about 70% of the time.

AUDIT_ALPHA_MAX = 2.0
AUDIT_MODES_MAX = 3

def _audit_block(rng: np.random.Generator) -> list[Op]:
    seed = int(rng.integers(2**31))

    def check(rows):
        failed = [r.name for r in rows if not r.passed]
        if len(rows) != len(audit.AUDIT_CHECKS) or failed:
            return f"audit seed {seed}: failed checks {failed} of {len(rows)}"
        return None

    def run():
        return audit.run_audit(seed, 1, AUDIT_ALPHA_MAX, AUDIT_MODES_MAX)

    return [Op("run_audit", dict(seed=seed), run, check)]


_BLOCKS = {
    "qubit-shots": _qubit_block,
    "wide-register": _register_block,
    "metrology-scan": _metrology_block,
    "oracle-audit": _audit_block,
}

# Blocks in one round: at least 100 ops, sized so a run holds several
# rounds.  Seed-to-seed variation of a round's mix falls with its op count.
ROUND_BLOCKS = {"qubit-shots": 50, "wide-register": 4, "metrology-scan": 18, "oracle-audit": 100}


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless seeded stream of op blocks for `workload`."""
    make = _BLOCKS[workload]
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    while True:
        yield make(rng)


def round_blocks(workload: str, seed: int) -> list[list[Op]]:
    """The fixed op list of one round, as blocks; every call builds fresh ops
    (circuits carry state), with identical inputs for the same seed."""
    stream = blocks(workload, seed)
    return [next(stream) for _ in range(ROUND_BLOCKS[workload])]


def clear_caches() -> None:
    """Empty every functools cache in catsim, so a replayed round cannot hit
    entries its previous round left behind."""
    for name, mod in list(sys.modules.items()):
        if name == "catsim" or name.startswith("catsim."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def warmup_ops(workload: str) -> list[Op]:
    """Untimed ops run before measuring: one small block with a fixed seed,
    so lazy imports and first-call costs are paid outside the timed loop."""
    rng = np.random.default_rng(np.random.SeedSequence([2**32 - 1, WORKLOADS.index(workload)]))
    if workload == "wide-register":
        return _circuit(rng, 3)
    return _BLOCKS[workload](rng)


def versions() -> dict[str, str]:
    import scipy

    return {"catsim": catsim.__version__, "numpy": np.__version__, "scipy": scipy.__version__}
