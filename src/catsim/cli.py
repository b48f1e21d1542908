"""Seeded command-line experiment runner.

Every experiment emits tab-separated tables with a '#'-prefixed header
block echoing the full configuration, the seed and the package version,
so an identical configuration and seed reproduce the output byte for
byte.  Floats are printed with 17 significant digits.

Exit codes: 0 success, 2 configuration error (an unparsable argument, a
non-finite or out-of-range field, checked with the budgets before any work,
or a cross-field check),
3 numerical-budget error (a field over its cap), 4 property-check failure
(the first failing row and check are named on stderr), 5 output error (the
table could not be written: a closed pipe, as in `catsim ruler | head -1`,
or a full device), on one `output error:` line.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import math
import os
import re
import sys
from typing import NamedTuple, Optional

import numpy as np

from . import __version__, audit, gates, measure, metrology, optics, states

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_PROPERTY = 4
EXIT_OUTPUT = 5
AUTO = "auto"  # a field default the experiment derives from the other fields


class ConfigError(ValueError):
    pass


class BudgetError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse errors are one-line config errors, and
    which reads a negative number in any float spelling (-1e6, -.5, -2.)
    after a flag as that flag's value, not as an unknown flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


class Field(NamedTuple):
    """One config field.  A non-finite float, a value not `> gt` or not
    `>= ge` is a configuration error; a value above `cap` a budget error.
    A field whose default is AUTO also takes the value AUTO, unchecked."""
    kind: type
    default: object
    gt: Optional[float] = None
    ge: Optional[float] = None
    cap: Optional[float] = None


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too
        return "%.17g" % value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_config_file(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; keys normalized to underscores."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = value
    return out


def _require(ok: bool, reason: str) -> None:
    """Range check on a configuration value (NaN compares false, so fails)."""
    if not ok:
        raise ConfigError(reason)


def _coerce(key: str, raw: str, field: Field):
    if raw == AUTO == field.default:
        return AUTO
    try:
        if field.kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes"):
                return True
            if low in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        return field.kind(raw)
    except ValueError as exc:
        raise ConfigError(
            f"config field {key!r}: cannot parse {raw!r} as {field.kind.__name__}") from exc


def resolve_config(args: argparse.Namespace, schema: dict[str, Field]) -> dict:
    """Merge defaults < config file < explicit command-line flags, then check
    every merged value against its field: all range errors before any budget error."""
    cfg = {key: field.default for key, field in schema.items()}
    if args.config:
        for key, raw in parse_config_file(args.config).items():
            if key not in schema:
                raise ConfigError(f"unknown config field {key!r}")
            cfg[key] = _coerce(key, raw, schema[key])
    for key, field in schema.items():
        flag_value = getattr(args, key, None)
        if isinstance(flag_value, str):
            flag_value = _coerce(key, flag_value, field)
        if flag_value is not None:
            cfg[key] = flag_value
    checked = [(key, field, cfg[key]) for key, field in schema.items() if cfg[key] != AUTO]
    for key, field, value in checked:
        _require(field.kind is not float or math.isfinite(value), f"{key} = {value} must be finite")
        _require(field.gt is None or value > field.gt, f"{key} = {value} must be > {field.gt}")
        _require(field.ge is None or value >= field.ge, f"{key} = {value} must be >= {field.ge}")
    for key, field, value in checked:
        if field.cap is not None and value > field.cap:
            raise BudgetError(f"{args.experiment} budget: {key} = {value} exceeds {field.cap}")
    return cfg


def emit(
    out,
    experiment: str,
    seed: int,
    cfg: dict,
    columns: list[str],
    rows: list[list],
) -> None:
    out.write(f"# catsim {__version__}\n")
    out.write(f"# experiment {experiment}\n")
    out.write(f"# seed {seed}\n")
    for key in sorted(cfg):
        out.write(f"# {key} = {_fmt(cfg[key])}\n")
    out.write("\t".join(columns) + "\n")
    for row in rows:
        out.write("\t".join(map(_fmt, row)) + "\n")


def _alpha_grid(cfg: dict) -> list[float]:
    return list(np.linspace(cfg["alpha_min"], cfg["alpha_max"], cfg["alpha_steps"]))


# ---------------------------------------------------------------------------
# experiments

def run_bell_stats(cfg: dict, seed: int) -> tuple[list[str], list[list], list[tuple[int, str]]]:
    """The Bell-cat measurement on the four Bell cats at each alpha of the
    grid: the probability that cat k reads its own outcome, the largest
    |sum of its table - 1| over the four cats, the FAIL probability of a
    teleport of |+> and, with trials, the sampled frequencies of that
    teleport's identity, Z and FAIL landings.

    The four cats of one alpha are scored as one stack
    (`measure._bell_scores`): their 8 terms concatenated, with a
    block-diagonal (4, 8) coefficient stack, in one `measure._forms` call.
    The cats leave no mode unmeasured, so each form is |sum v|^2 and no
    overlap matrix is built.  Each probability is the scorer's class factor
    times norm, the product `measure.bell_outcomes` reads, and each cat's
    five rows are summed in table order.  A zero coefficient adds an exact
    0 to every sum: each printed byte is the one the four separate tables
    give."""
    columns = [
        "alpha", "p_correct_i", "p_correct_ii", "p_correct_iii", "p_correct_iv",
        "p_fail_teleport", "completeness_error",
    ]
    if cfg["trials"] > 0:
        columns += ["freq_identity", "freq_z", "freq_fail"]
    rows, failed = [], []
    for index, alpha in enumerate(_alpha_grid(cfg)):
        row = [alpha]
        worst_completeness = 0.0
        coeffs = np.zeros((4, 8), dtype=complex)
        amps = []
        for k, kind in enumerate(("i", "ii", "iii", "iv")):
            try:
                state = states.bell_cat(alpha, kind)
            except states.ZeroNormError as exc:
                raise ConfigError(f"alpha = {alpha}: Bell cat {kind} has zero norm") from exc
            coeffs[k, 2 * k:2 * k + 2] = state.coeffs
            amps.append(state.amps)
        probs = measure._bell_scores(coeffs, np.concatenate(amps), 0, 1)[3].tolist()
        for k, cat_probs in enumerate(probs):
            worst_completeness = max(worst_completeness, abs(sum(cat_probs) - 1.0))
            row.append(cat_probs[k])  # cat k reads outcome k: I, II, III, IV
        # the Bell table every teleport of `plus` draws from
        enc = gates.QubitEncoding(alpha)
        table = gates._bell_step(gates.encode(1.0, 1.0, enc), enc)
        row += [table["FAIL"].probability, worst_completeness]
        if worst_completeness > 1e-10:
            failed.append((index, "completeness_error > 1e-10"))
        if cfg["trials"] > 0:
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            n = measure.sample_counts(table, rng, cfg["trials"])
            # I and III land the identity, II and IV land Z
            row += [(n["I"] + n["III"]) / cfg["trials"],
                    (n["II"] + n["IV"]) / cfg["trials"],
                    n["FAIL"] / cfg["trials"]]
        rows.append(row)
    return columns, rows, failed


def run_gate_check(cfg: dict, seed: int) -> tuple[list[str], list[list], list[tuple[int, str]]]:
    columns = [
        "alpha", "theta", "rz_phase", "rz_phase_err",
        "zz_step_phase_err", "rx_fidelity", "x_fidelity",
    ]
    rows, failed = [], []
    mu, nu = 0.6 + 0.2j, 0.7 - 0.3j
    x = 2 * (mu.conjugate() * nu).real / (abs(mu) ** 2 + abs(nu) ** 2)  # <X> of the input
    for index, alpha in enumerate(_alpha_grid(cfg)):
        enc = gates.QubitEncoding(alpha)
        # theta^2 alpha^2 = theta_alpha2^2 / alpha^2, compared without dividing
        _require(abs(cfg["theta_alpha2"]) <= math.sqrt(gates.MAX_THETA2_ALPHA2) * alpha,
                 f"alpha = {alpha}: theta^2 alpha^2 = theta_alpha2^2 / alpha^2 exceeds "
                 f"{gates.MAX_THETA2_ALPHA2}, outside the gates' near-deterministic regime")
        _require(alpha**2 > 0, f"alpha = {alpha}: alpha^2 underflows to 0")
        theta = cfg["theta_alpha2"] / alpha**2
        try:  # the teleported gates and the decoding fail at tiny alpha
            psi = gates.encode(mu, nu, enc)
            # Rz decoded relative phase
            out = gates.gate_rz(psi, enc, theta)
            m2, n2, _ = gates.decode(out.state, enc)
            rz_phase = float(np.angle((n2 / m2) / (nu / mu)))
            rz_err = abs(math.remainder(rz_phase - 4 * theta * alpha**2, 2 * math.pi))
            # entangling step phase on (|--> + |-+>)/norm
            enc_b = gates.QubitEncoding(alpha, mode=1)
            two = optics.tensor(gates.encode(1, 1, enc), gates.encode(1, 1, enc))
            zz = gates.entangling_gate(two, enc, enc_b, theta)
            x4, _ = gates.decode_two(zz.state, enc, enc_b)
            phases = np.angle(x4 / x4[0])
            expected = np.array([0.0, -2 * theta * alpha**2, -2 * theta * alpha**2, 0.0])
            zz_err = float(np.max(np.abs(phases - expected)))
            # Rx(pi/2) fidelity |<t|v>|^2 / (|t|^2 |v|^2) against its target
            # t = (w mu + conj(w) nu, conj(w) mu + w nu) / sqrt(2), w = e^{i pi/4}
            rx = gates.gate_rx(psi, enc)
            mr, nr, _ = gates.decode(rx.state, enc)
            w = cmath.exp(1j * math.pi / 4)
            t0, t1 = w * mu + w.conjugate() * nu, w.conjugate() * mu + w * nu
            rx_fid = abs(t0.conjugate() * mr + t1.conjugate() * nr) ** 2 / (
                (abs(t0) ** 2 + abs(t1) ** 2) * (abs(mr) ** 2 + abs(nr) ** 2))
            # X gate round trip
            xx = gates.gate_x(gates.gate_x(psi, enc), enc)
            x_fid = states.fidelity(xx, psi)
        except (gates.GateFailure, ValueError) as exc:
            raise ConfigError(f"alpha = {alpha}, theta = {theta}: {exc}") from exc
        # References: what the gates apply exactly once |+a> and |-a> are
        # orthogonal.  A beam splitter B(phi) sends |s_a a, s_b a> to
        # a (s_a cos phi + i s_b sin phi), a (s_b cos phi + i s_a sin phi), and
        # projecting each mode back onto its nearest +/-a multiplies the term
        # by e^{-a^2 (1 - cos phi)} e^{i s_a s_b a^2 sin phi}.
        # - zz (phi = theta/2): the mixed components turn by -4 a^2 sin(theta/2),
        #   not the linearized -2 theta a^2, so zz_err is 4 a^2 |theta/2 - sin(theta/2)|.
        # - rx (phi = p = pi/(8 a^2)): the decoded map is e^{if} I + e^{-if} X with
        #   f = 2 a^2 sin p against the target's pi/4 = 2 a^2 p, i.e. diag(cos f,
        #   i sin f) on the X eigenbasis.  An input with <X> = x has 1 - F =
        #   (1 - x^2) sin^2 d / (1 + x sin 2d), d = 2 a^2 (p - sin p); the
        #   reference is its bound over the sign of x.
        # - rz: 4 theta a^2 is exact, and the decoded phase lies in (-pi, pi], so
        #   rz_err is taken modulo 2 pi.
        # The fixed 1e-6 and 10 e^{-2 a^2} cover the non-orthogonality, not derived.
        zz_ref = 4 * alpha**2 * abs(theta / 2 - math.sin(theta / 2))
        p = math.pi / (8 * alpha**2)
        d = 2 * alpha**2 * (p - math.sin(p))
        rx_ref = (1 - x * x) * math.sin(d) ** 2 / (1 - abs(x) * math.sin(2 * d))
        checks = {
            "rz_phase_err > 1e-6": rz_err > 1e-6,
            "zz_step_phase_err > 4 alpha^2 |theta/2 - sin(theta/2)| + 1e-6": zz_err > zz_ref + 1e-6,
            "1 - rx_fidelity > (1 - x^2) sin^2 d / (1 - |x| sin 2d) + 10 exp(-2 alpha^2)":
                1 - rx_fid > rx_ref + 10 * math.exp(-2 * alpha**2),
        }
        failed += [(index, check) for check, bad in checks.items() if bad]
        rows.append([alpha, theta, rz_phase, rz_err, zz_err, rx_fid, x_fid])
    return columns, rows, failed


def run_weak_force(cfg: dict, seed: int) -> tuple[list[str], list[list], list[tuple[int, str]]]:
    columns = [
        "alpha", "n_modes", "n_tot", "qfi", "epsilon_min", "epsilon", "snr",
        "trials", "estimate_mean", "estimate_var", "crb_var", "saturation",
    ]
    rows, failed = [], []
    n_values = [n for n in range(1, cfg["n_max"] + 1)] if cfg["sweep_n"] else [cfg["n"]]
    for index, n in enumerate(n_values):
        alpha = cfg["alpha"]
        eps = cfg["epsilon"]
        if eps == AUTO:  # mid-fringe operating point, p = 1/2 once e^{-2 alpha^2} is negligible
            eps = math.pi / (8 * math.sqrt(n) * alpha)
        try:
            if cfg["trials"] > 0:
                rep = metrology.weak_force_experiment(alpha, n, eps, cfg["trials"])
            else:
                rep = metrology.sensitivity_bound(alpha, n)
        except ValueError as exc:
            raise ConfigError(f"alpha = {alpha}, epsilon = {eps}, n = {n}: {exc}") from exc
        rows.append([
            alpha, n, rep.n_tot, rep.qfi, rep.epsilon_min, eps,
            metrology.classical_snr(eps), cfg["trials"],
            rep.estimate_mean, rep.estimate_var, rep.crb_var, rep.saturation,
        ])
        # near a fringe extremum the estimator is pinned, and biased
        if rep.pinned:
            failed.append((index, "estimator pinned: one count holds the window's mass"))
    return columns, rows, failed


def run_ruler(cfg: dict, seed: int) -> tuple[list[str], list[list], list[tuple[int, str]]]:
    try:
        scan = metrology.quantum_ruler(cfg["alpha"], cfg["wavelength"], points=cfg["points"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    columns = ["theta", "length_m", "probability", "spacing_theta", "spacing_length_m"]
    rows = [
        [float(t), float(l), float(p), scan.spacing_theta, scan.spacing_length]
        for t, l, p in zip(scan.theta, scan.length, scan.probability)
    ]
    return columns, rows, []


def run_ramsey(cfg: dict, seed: int) -> tuple[list[str], list[list], list[tuple[int, str]]]:
    columns = [
        "n", "theta", "p_product", "p_entangled",
        "fisher_product", "fisher_entangled", "fisher_ratio",
    ]
    rows, failed = [], []
    theta = cfg["theta"]
    _require(math.isfinite(cfg["n_max"] * theta),
             f"theta = {theta}: the entangled phase n_max * theta overflows")
    for n in range(1, cfg["n_max"] + 1):
        pp = metrology.ramsey_probability(theta, n, False)
        pe = metrology.ramsey_probability(theta, n, True)
        _require(0 < pp < 1 and 0 < pe < 1,
                 f"theta = {theta} is a fringe extremum at n = {n}: Fisher information undefined")
        fp = metrology.ramsey_fisher(theta, n, entangled=False)
        fe = metrology.ramsey_fisher(theta, n, entangled=True)
        ratio = fe / fp
        if abs(ratio - n) > 1e-6 * n:
            failed.append((n - 1, "|fisher_ratio - n| > 1e-6 n"))
        rows.append([n, theta, pp, pe, fp, fe, ratio])
    return columns, rows, failed


def run_oracle_audit(cfg: dict, seed: int) -> tuple[list[str], list[list], list[tuple[int, str]]]:
    rows_out = audit.run_audit(
        seed, cases_per_check=cfg["cases"], alpha_max=cfg["alpha_max"]
    )
    columns = ["check", "cases", "max_error", "tolerance", "passed"]
    failed = [(i, f"{r.name} max_error > tolerance")
              for i, r in enumerate(rows_out) if not r.passed]
    rows = [[r.name, r.cases, r.max_error, r.tolerance, r.passed] for r in rows_out]
    return columns, rows, failed


# ---------------------------------------------------------------------------
# wiring

_EXPERIMENTS = {
    "bell-stats": (
        run_bell_stats,
        {
            "alpha_min": Field(float, 1.0, gt=0, cap=6),
            "alpha_max": Field(float, 3.0, gt=0, cap=6),
            "alpha_steps": Field(int, 5, ge=1, cap=1000),
            "trials": Field(int, 0, ge=0, cap=10_000_000),
        },
    ),
    "gate-check": (
        run_gate_check,
        {
            "alpha_min": Field(float, 1.5, gt=0, cap=6),
            "alpha_max": Field(float, 3.0, gt=0, cap=6),
            "alpha_steps": Field(int, 4, ge=1, cap=1000),
            "theta_alpha2": Field(float, 0.01),
        },
    ),
    "weak-force": (
        run_weak_force,
        {
            "alpha": Field(float, 2.0, gt=0),
            "n": Field(int, 1, ge=1, cap=64),
            "n_max": Field(int, 4, ge=1, cap=64),
            "sweep_n": Field(bool, False),
            "epsilon": Field(float, AUTO, ge=0),
            "trials": Field(int, 10_000, ge=0, cap=10_000_000),
        },
    ),
    "ruler": (
        run_ruler,
        {
            "alpha": Field(float, 10.0, gt=0, cap=16),
            "wavelength": Field(float, 10e-6, gt=0),
            "points": Field(int, 2001, ge=16, cap=200_001),
        },
    ),
    "ramsey": (
        run_ramsey,
        {
            "n_max": Field(int, 10, ge=1, cap=64),
            "theta": Field(float, 0.3),
        },
    ),
    "oracle-audit": (
        run_oracle_audit,
        {
            "alpha_max": Field(float, 3.0, ge=audit.QUBIT_ALPHA_MIN, cap=4),
            "cases": Field(int, 20, ge=1, cap=1000),
        },
    ),
}

_FLAG_ALIASES = {"wavelength": ["--lambda"], "epsilon": ["--eps"]}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call can share it."""
    parser = _Parser(
        prog="catsim",
        description="Seeded coherent-state quantum computing and metrology experiments.",
    )
    parser.add_argument("--version", action="version", version=f"catsim {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, schema) in _EXPERIMENTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        p.add_argument("--output", help="output file (default stdout)")
        for key, field in schema.items():
            flags = [f"--{key.replace('_', '-')}"] + _FLAG_ALIASES.get(key, [])
            if field.kind is bool:
                p.add_argument(*flags, dest=key, default=None,
                               action=argparse.BooleanOptionalAction)
            else:  # a string, coerced with the config file's values
                p.add_argument(*flags, dest=key, default=None, help=f"default {field.default}")
    return parser


def _open_output(path: Optional[str], mode: str):
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, mode, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run, schema = _EXPERIMENTS[args.experiment]
        cfg = resolve_config(args, schema)
        seed = args.seed if args.seed is not None else 0
        _require(seed >= 0, "seed must be >= 0")
        # an unwritable path fails before any work, and an existing file is
        # truncated only once the run has returned
        with _open_output(args.output, "a"):
            pass
        columns, rows, failed = run(cfg, seed)
        try:
            with _open_output(args.output, "w") as out:
                emit(out, args.experiment, seed, cfg, columns, rows)
                out.flush()
        except OSError as exc:
            if not args.output:
                # Python's SIGPIPE recipe: the interpreter's own flush of
                # stdout at exit then writes to devnull and cannot fail again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            print(f"output error: {exc}", file=sys.stderr)
            return EXIT_OUTPUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if failed:
        row, check = failed[0]
        print(f"property check failed: {args.experiment} row {row}: {check}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
