import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catsim import __version__, cli, gates, measure, optics, states
from catsim.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OUTPUT,
    EXIT_PROPERTY,
    ConfigError,
    main,
    parse_config_file,
)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_ramsey_runs_and_has_header(capsys):
    code, out = run_cli(["ramsey", "--seed", "7", "--n-max", "4"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == f"# catsim {__version__}"
    assert lines[1] == "# experiment ramsey"
    assert lines[2] == "# seed 7"
    assert "# n_max = 4" in lines
    # one header row plus one data row per n
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("n\ttheta")
    assert len(data) == 1 + 4


@pytest.mark.parametrize("theta", ["0.3", "1e6", "1e15", "1e300"])
def test_ramsey_fisher_ratio_is_n_at_every_finite_phase(theta, capsys):
    # exact wherever n_max * theta is finite, even where theta + 1e-4 == theta
    code, out = run_cli(["ramsey", "--theta", theta, "--n-max", "12"], capsys)
    assert code == EXIT_OK
    table = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
    col = table[0].index("fisher_ratio")
    assert [float(row[col]) for row in table[1:]] == list(range(1, 13))


@pytest.mark.parametrize("args, code", [
    (["ramsey", "--theta", "-1e6"], EXIT_OK),
    (["ramsey", "--theta", "-2.5E-1", "--n-max", "3"], EXIT_OK),
    (["weak-force", "--epsilon", "-1e-3"], EXIT_CONFIG),
    (["weak-force", "--eps", "-.5"], EXIT_CONFIG),
])
def test_a_negative_value_reads_the_same_after_a_space_or_an_equals_sign(args, code, capsys):
    spaced = main(args), capsys.readouterr()
    joined = main(args[:1] + [f"{args[1]}={args[2]}"] + args[3:]), capsys.readouterr()
    assert spaced == joined
    assert spaced[0] == code
    if code == EXIT_CONFIG:
        assert spaced[1].err.startswith("config error:") and len(spaced[1].err.splitlines()) == 1


def test_weak_force_epsilon_defaults_to_auto_the_mid_fringe_point(tmp_path, capsys):
    def table(args):
        code, out = run_cli(["weak-force", "--trials", "0"] + args, capsys)
        assert code == EXIT_OK
        return [l for l in out.splitlines() if l.startswith("# epsilon")], \
            [l for l in out.splitlines() if not l.startswith("#")]

    cfg = tmp_path / "auto.cfg"
    cfg.write_text("epsilon = auto\n")
    header, rows = table([])
    assert header == ["# epsilon = auto"]
    assert table(["--epsilon", "auto"]) == table(["--config", str(cfg)]) == (header, rows)
    # alpha = 2, n = 1: pi / (8 sqrt(n) alpha)
    mid = repr(math.pi / 16)
    assert table(["--epsilon", mid]) == ([f"# epsilon = {mid}"], rows)


def test_byte_identical_reproducibility(tmp_path):
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    args = ["bell-stats", "--seed", "42", "--trials", "200", "--alpha-steps", "2"]
    assert main(args + ["--output", str(out_a)]) == EXIT_OK
    assert main(args + ["--output", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    # a different seed changes the sampled columns
    out_c = tmp_path / "c.tsv"
    assert main(args[:2] + ["43"] + args[3:] + ["--output", str(out_c)]) == EXIT_OK
    assert out_a.read_bytes() != out_c.read_bytes()


def test_weak_force_reads_no_seed(capsys):
    # its moments are exact: only the echoed seed differs between seeds
    code_0, out_0 = run_cli(["weak-force", "--sweep-n", "--seed", "0"], capsys)
    code_7, out_7 = run_cli(["weak-force", "--sweep-n", "--seed", "7"], capsys)
    assert code_0 == code_7 == EXIT_OK
    diff = [(a, b) for a, b in zip(out_0.splitlines(), out_7.splitlines()) if a != b]
    assert diff == [("# seed 0", "# seed 7")]
    assert len(out_0.splitlines()) == len(out_7.splitlines())


def test_weak_force_batches_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "batches.cfg"
    cfg.write_text("batches = 10\n")
    for args in (["--batches", "10"], ["--config", str(cfg)]):
        code = main(["weak-force"] + args)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG, args
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("config error:")


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment line\nn-max = 3\ntheta = 0.2  # trailing comment\n")
    code, out = run_cli(["ramsey", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    assert "# n_max = 3" in out
    assert "# theta = 0.2" in out.replace("0.20000000000000001", "0.2")
    # explicit flag wins over the file value
    code, out = run_cli(["ramsey", "--config", str(cfg), "--n-max", "2"], capsys)
    assert code == EXIT_OK
    assert "# n_max = 2" in out
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(data) == 1 + 2
    # a boolean field reads every config-file spelling as its flag does
    flagged = {on: run_cli(["weak-force", "--trials", "0"] + (["--sweep-n"] if on else []), capsys)
               for on in (True, False)}
    for raw, on in (("yes", True), ("1", True), ("true", True),
                    ("no", False), ("0", False), ("false", False)):
        cfg.write_text(f"sweep_n = {raw}\n")
        assert run_cli(["weak-force", "--trials", "0", "--config", str(cfg)], capsys) == flagged[on]


def test_config_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line without equals\n")
    code, _ = run_cli(["ramsey", "--config", str(bad)], capsys)
    assert code == EXIT_CONFIG
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("not_a_field = 1\n")
    code, _ = run_cli(["ramsey", "--config", str(unknown)], capsys)
    assert code == EXIT_CONFIG
    badtype = tmp_path / "badtype.cfg"
    badtype.write_text("n-max = lots\n")
    code, _ = run_cli(["ramsey", "--config", str(badtype)], capsys)
    assert code == EXIT_CONFIG
    code, _ = run_cli(["ramsey", "--config", str(tmp_path / "missing.cfg")], capsys)
    assert code == EXIT_CONFIG
    infinite = tmp_path / "inf.cfg"
    infinite.write_text("alpha = inf\n")
    code, out = run_cli(["weak-force", "--config", str(infinite)], capsys)
    assert code == EXIT_CONFIG and out == ""
    maybe = tmp_path / "maybe.cfg"
    maybe.write_text("sweep_n = maybe\n")
    code = main(["weak-force", "--config", str(maybe)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("config error:")


def test_unwritable_output_is_config_error_before_any_work(tmp_path, capsys, monkeypatch):
    ran = []
    run, schema = cli._EXPERIMENTS["ramsey"]
    monkeypatch.setitem(cli._EXPERIMENTS, "ramsey", (lambda *a: ran.append(a) or run(*a), schema))
    target = tmp_path / "missing" / "x.tsv"
    code = main(["ramsey", "--output", str(target)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not ran and not target.parent.exists()


@pytest.mark.parametrize("args", [
    ["ruler", "--points", "3"],
    ["ruler", "--alpha", "0"],
    ["ruler", "--wavelength", "-1"],
    ["weak-force", "--seed", "-1"],
    ["weak-force", "--alpha", "0"],
    ["weak-force", "--n", "0"],
    ["ramsey", "--theta", "0"],
    ["oracle-audit", "--alpha-max", "-1"],
    ["bell-stats", "--alpha-min", "0"],
    ["gate-check", "--alpha-min", "0"],
    ["ruler", "--alpha", "1e-200"],  # alpha^2 underflows: the odd readout cat has zero norm
    ["bell-stats", "--alpha-min", "1e-200"],  # the odd Bell cats have zero norm
    ["weak-force", "--epsilon", "nan"],
    ["weak-force", "--eps", "inf"],
    ["weak-force", "--alpha", "inf"],
    ["gate-check", "--theta-alpha2", "nan"],
    ["ruler", "--wavelength", "inf"],
    ["ramsey", "--theta", "1e308"],
    # numerical limits found by the runners: no library warning may precede the reason
    ["gate-check", "--theta-alpha2", "100", "--alpha-steps", "1"],  # theta^2 alpha^2 > 0.05
    ["weak-force", "--alpha", "1e-200"],  # alpha^2 underflows: the odd readout cat has zero norm
    ["weak-force", "--epsilon", "1e308"],  # the fringe phase 2 sqrt(n) alpha epsilon overflows
    ["gate-check", "--alpha-min", "1e-200", "--alpha-max", "1e-200", "--alpha-steps", "1",
     "--theta-alpha2", "0"],  # alpha^2 underflows to 0: theta would be 0/0
    ["ruler", "--alpha", "1e-308"],  # the scan range 3.4 pi / alpha overflows to inf
    ["ruler", "--alpha", "5e-324"],
    ["weak-force", "--alpha", "5e-324"],  # the mid-fringe epsilon pi / (8 alpha) overflows
    ["weak-force", "--alpha", "1e154", "--trials", "0"],  # n_tot = 1e308, but the qfi overflows
    ["weak-force", "--alpha", "1e155", "--trials", "0"],  # alpha^2 overflows: n_tot inf
    # argument parse errors: one reason, not argparse's usage block
    ["ramsey", "--n-max", "abc"],
    ["ramsey", "--bogus", "1"],
    ["ramsey", "--seed", "x"],
    ["nope"],
    [],
])
def test_out_of_range_input_exits_2_with_one_line(args):
    proc = subprocess.run(
        [sys.executable, "-m", "catsim.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("config error:")
    assert proc.stdout == ""


def _run_unwritable(experiment, stdout):
    """Run `experiment` in a subprocess whose stdout is `stdout`, buffered as
    a user's would be: ramsey's table fits in the buffer and fails on the
    final flush, ruler's fails mid-write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "catsim.cli", experiment],
                            stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    if proc.stdout is not None:
        proc.stdout.close()  # the reader is gone before the table is written
    _, err = proc.communicate()
    assert proc.returncode == EXIT_OUTPUT
    assert "Traceback" not in err and "Exception ignored" not in err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("output error:")
    return err


@pytest.mark.parametrize("experiment", ["ramsey", "ruler"])
def test_closed_pipe_exits_5_with_one_line(experiment):
    assert "Broken pipe" in _run_unwritable(experiment, subprocess.PIPE)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("experiment", ["ramsey", "ruler"])
def test_full_device_exits_5_with_one_line(experiment):
    with open("/dev/full", "w") as full:
        assert "No space left" in _run_unwritable(experiment, full)


@pytest.mark.parametrize("alpha", [0.1, 0.01])
def test_small_alpha_ruler_keeps_its_spacing(alpha, capsys):
    # computable wherever alpha^2 > 0: the spacing is pi / alpha to a grid step
    code, out = run_cli(["ruler", "--alpha", repr(alpha)], capsys)
    assert code == EXIT_OK
    spacing = float(out.splitlines()[-1].split("\t")[3])
    assert abs(spacing * alpha / math.pi - 1) <= 3.4 / 2000


def test_tiny_alpha_bell_stats_identifies_the_odd_bell_cats(capsys):
    (row,) = _bell_stats_rows(["--alpha-min", "1e-9", "--alpha-max", "1e-9",
                                "--alpha-steps", "1"], capsys)
    for col in ("p_correct_ii", "p_correct_iv"):
        assert row[col] == pytest.approx(1.0, rel=0, abs=1e-15)
    assert row["completeness_error"] <= 1e-15


@pytest.mark.parametrize("grid", [("1e-3", "6", "120"), ("1e-150", "1e-3", "7")])
def test_bell_stats_reads_the_public_bell_tables_bit_for_bit(grid, capsys):
    # bell-stats scores the four cats of each alpha as one stack; each
    # printed cell is the one the four `bell_outcomes` tables give
    lo, hi, steps = grid
    rows = _bell_stats_rows(["--alpha-min", lo, "--alpha-max", hi, "--alpha-steps", steps], capsys)
    assert len(rows) == int(steps)
    for row in rows:
        tables = [measure.bell_outcomes(states.bell_cat(row["alpha"], kind), 0, 1)
                  for kind in ("i", "ii", "iii", "iv")]
        for kind, name, table in zip(("i", "ii", "iii", "iv"), ("I", "II", "III", "IV"), tables):
            assert row[f"p_correct_{kind}"] == table[name].probability, (row["alpha"], kind)
        worst = max(abs(sum(r.probability for r in t.values()) - 1.0) for t in tables)
        assert row["completeness_error"] == worst, row["alpha"]


def test_bell_stats_names_the_odd_bell_cat_of_zero_norm(capsys):
    code = main(["bell-stats", "--alpha-min", "1e-200"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_CONFIG, "")
    assert captured.err == "config error: alpha = 1e-200: Bell cat ii has zero norm\n"


def test_seeded_rows_draw_from_independent_streams(capsys):
    args = ["bell-stats", "--alpha-min", "2", "--alpha-max", "2", "--alpha-steps", "2",
            "--trials", "200"]

    def sampled(seed):
        code, out = run_cli(args + ["--seed", str(seed)], capsys)
        assert code == EXIT_OK
        rows = [l.split("\t") for l in out.splitlines() if not l.startswith(("#", "alpha\t"))]
        return [row[-3:] for row in rows]

    # with one stream per seed ^ index, seed 0 row 1 replayed seed 1 row 0
    assert sampled(0)[1] != sampled(1)[0]


def _bell_stats_rows(args, capsys):
    code, out = run_cli(["bell-stats", *args], capsys)
    assert code == EXIT_OK
    lines = [l.split("\t") for l in out.splitlines() if not l.startswith("#")]
    return [dict(zip(lines[0], map(float, row))) for row in lines[1:]]


def _assert_within_4_sigma_of_exact_table(row, trials):
    alpha = row["alpha"]
    enc = gates.QubitEncoding(alpha)
    plus = gates.encode(1.0, 1.0, enc)
    # the table every teleport of `plus` draws from, which the CLI reads
    p = {name: rec.probability for name, rec in gates._bell_step(plus, enc).items()}
    assert row["p_fail_teleport"] == p["FAIL"]
    # the joint state's table: the same Gram forms on 2 K terms instead of
    # the pair's eigen-forms on K, exponents of size up to 4 alpha^2 summed
    # otherwise, so equal to the rounding of those exponents
    joint = measure.bell_outcomes(optics.tensor(plus, optics.bell_resource(alpha)), 0, 1)
    bound = 16 * sys.float_info.epsilon * (1 + 4 * alpha**2) * p["FAIL"]
    assert abs(joint["FAIL"].probability - p["FAIL"]) <= bound
    exact = {"freq_identity": p["I"] + p["III"], "freq_z": p["II"] + p["IV"],
             "freq_fail": p["FAIL"]}
    assert sum(row[col] for col in exact) == pytest.approx(1.0, abs=1e-12)
    for col, q in exact.items():
        sigma = math.sqrt(q * (1 - q) / trials)
        assert abs(row[col] - q) <= 4 * sigma, (alpha, col)


def test_bell_stats_trial_frequencies_match_exact_table(capsys):
    rows = _bell_stats_rows(["--trials", "100000", "--alpha-min", "0.8"], capsys)
    assert len(rows) == 5
    for row in rows:
        _assert_within_4_sigma_of_exact_table(row, 100_000)


def test_bell_stats_ten_million_trials_complete_in_process(capsys):
    (row,) = _bell_stats_rows(["--trials", "10000000", "--alpha-steps", "1"], capsys)
    _assert_within_4_sigma_of_exact_table(row, 10_000_000)


def test_budget_exit_code(capsys):
    code, _ = run_cli(["ramsey", "--n-max", "1000"], capsys)
    assert code == EXIT_BUDGET
    code, _ = run_cli(["ruler", "--alpha", "50"], capsys)
    assert code == EXIT_BUDGET
    # alpha_min and n are capped like alpha_max and n_max
    for args in (["bell-stats", "--alpha-min", "50", "--alpha-steps", "1"],
                 ["gate-check", "--alpha-min", "7", "--alpha-max", "3"],
                 ["weak-force", "--n", "100"]):
        code, out = run_cli(args, capsys)
        assert (code, out) == (EXIT_BUDGET, ""), args
    # a range error wins over a budget error, and n_max is checked with or without --sweep-n
    for args in (["bell-stats", "--alpha-min", "0", "--alpha-max", "50"],
                 ["weak-force", "--n-max", "0"],
                 ["weak-force", "--n-max", "0", "--sweep-n"]):
        code, out = run_cli(args, capsys)
        assert (code, out) == (EXIT_CONFIG, ""), args


@pytest.mark.parametrize("args, code", [
    (["ramsey", "--n-max", "1000"], EXIT_BUDGET),
    (["weak-force", "--alpha", "0"], EXIT_CONFIG),
    # config errors the runners raise after their fields have passed
    (["ramsey", "--theta", "0"], EXIT_CONFIG),
    (["weak-force", "--alpha", "1e-200"], EXIT_CONFIG),
])
def test_rejected_field_leaves_existing_output_untouched(tmp_path, args, code):
    target = tmp_path / "x.tsv"
    target.write_bytes(b"# an earlier run\n")
    assert main(args + ["--output", str(target)]) == code
    assert target.read_bytes() == b"# an earlier run\n"


def test_property_failure_names_row_and_check(capsys, monkeypatch):
    # an Rx 1% off its pi/2 angle
    gate_rx = gates.gate_rx
    monkeypatch.setattr(cli.gates, "gate_rx", lambda s, enc, theta=None, rng=None: gate_rx(
        s, enc, 1.01 * math.pi / (4 * enc.alpha**2), rng))
    code = main(["gate-check", "--alpha-min", "4", "--alpha-steps", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_PROPERTY
    assert captured.err.splitlines() == [
        "property check failed: gate-check row 0: "
        "1 - rx_fidelity > (1 - x^2) sin^2 d / (1 - |x| sin 2d) + 10 exp(-2 alpha^2)"
    ]
    data = [l for l in captured.out.splitlines() if not l.startswith("#")]
    assert data[0].startswith("alpha\t") and len(data) == 2


def _pinned_weak_force_cells(args, capsys):
    """Run weak-force on a row where one count holds the window's mass: it
    is flagged, and its cells return."""
    code = main(["weak-force"] + args)
    captured = capsys.readouterr()
    assert code == EXIT_PROPERTY
    assert captured.err.splitlines() == ["property check failed: weak-force row 0: "
                                         "estimator pinned: one count holds the window's mass"]
    header, row = [l.split("\t") for l in captured.out.splitlines() if not l.startswith("#")]
    return dict(zip(header, row))


def test_weak_force_flags_a_pinned_estimator_at_the_fringe_maximum(capsys):
    # at the fringe maximum p rounds to 1: every shot reads even, so eps_hat = 0
    cells = _pinned_weak_force_cells(["--epsilon", "1e-9"], capsys)
    assert (cells["estimate_mean"], cells["estimate_var"], cells["saturation"]) == ("0", "0", "inf")
    # a spread of estimates is not flagged
    for args in ([], ["--sweep-n"]):
        assert main(["weak-force"] + args) == EXIT_OK, args
    assert capsys.readouterr().err == ""


def test_weak_force_flags_the_dark_fringe_of_the_exact_chain(capsys):
    # p = 0 at epsilon = arccos(-e^{-2 alpha^2}) / (2 sqrt(n) alpha), alpha = 2, n = 1:
    # every shot reads odd and eps_hat is that epsilon
    epsilon = math.acos(-math.exp(-8.0)) / 4
    cells = _pinned_weak_force_cells(["--epsilon", repr(epsilon)], capsys)
    assert float(cells["estimate_mean"]) == pytest.approx(epsilon, rel=1e-15)
    assert (cells["estimate_var"], cells["saturation"]) == ("0", "inf")


def test_weak_force_at_tiny_alpha_is_computable_and_flagged(capsys):
    # alpha^2 = 1e-24 > 0: the readout is far below mid-fringe, p is about 6e-24, so
    # k = 0 holds the window's mass to double precision; the rest still gives a variance
    cells = _pinned_weak_force_cells(["--alpha", "1e-12"], capsys)
    assert cells["qfi"] == "4"  # 4 N (1 + 2 alpha^2 + 2 n_tot) to round-off
    assert 0 < float(cells["estimate_var"]) < math.inf


def test_weak_force_at_huge_alpha_is_computable_without_a_warning():
    # 4 N (1 + 2 alpha^2 + 2 n_tot) = 4 * 64 * 4e22: once refused, when the qfi
    # came from a Gram form whose exponent round-off overflowed exp
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "catsim.cli", "weak-force", "--alpha", "1e11",
         "--n", "64", "--trials", "0"], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    header, row = [l.split("\t") for l in proc.stdout.splitlines() if not l.startswith("#")]
    cells = dict(zip(header, row))
    assert (cells["n_tot"], cells["qfi"]) == ("1e+22", "1.024e+25")


def test_float_formatting_17_digits(capsys):
    code, out = run_cli(["ramsey", "--theta", "0.1", "--n-max", "1"], capsys)
    assert code == EXIT_OK
    assert "# theta = 0.1" in out
    row = [l for l in out.splitlines() if not l.startswith(("#", "n\t"))][0]
    p_product = row.split("\t")[2]
    # cos^2(0.1) printed with 17 significant digits
    assert p_product == format(float(p_product), ".17g")
    assert len(p_product.replace(".", "").lstrip("0")) >= 16


def test_lambda_alias_and_ruler_spacing(capsys):
    code, out = run_cli(
        ["ruler", "--alpha", "10", "--lambda", "1e-5", "--points", "801"], capsys
    )
    assert code == EXIT_OK
    row = [l for l in out.splitlines() if not l.startswith(("#", "theta"))][0]
    spacing = float(row.split("\t")[4])
    assert spacing == pytest.approx(0.5e-6, rel=1e-3)


def test_parse_config_file_normalizes_keys(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alpha-max = 2.5\n")
    assert parse_config_file(str(cfg)) == {"alpha_max": "2.5"}
    empty = tmp_path / "e.cfg"
    empty.write_text("key =\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(empty))


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "catsim.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_package_version_comes_from_catsim():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    cfg = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in cfg["project"]
    assert "version" in cfg["project"]["dynamic"]
    assert cfg["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "catsim.__version__"}


def test_gate_check_properties_pass(capsys):
    code, out = run_cli(["gate-check", "--alpha-steps", "2"], capsys)
    assert code == EXIT_OK
    data = [l for l in out.splitlines() if not l.startswith(("#", "alpha\t"))]
    for row in data:
        fields = row.split("\t")
        assert float(fields[3]) < 1e-6  # rz phase error
        assert float(fields[4]) < 1e-6  # entangling step phase error


@pytest.mark.parametrize("alpha", [3.2, 4.5, 6.0])
@pytest.mark.parametrize("scale", [None, 0.999, -0.999])
def test_gate_check_passes_across_its_input_range(alpha, scale, capsys):
    # up to the theta^2 alpha^2 limit, where 4 theta alpha^2 passes pi and
    # the entangling step and Rx leave their linearized phases
    theta_alpha2 = 1e-4 if scale is None else scale * math.sqrt(gates.MAX_THETA2_ALPHA2) * alpha
    code = main(["gate-check", "--alpha-min", repr(alpha), "--alpha-max", repr(alpha),
                 "--alpha-steps", "1", "--theta-alpha2", repr(theta_alpha2)])
    assert code == EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("alpha, theta_alpha2", [("1e-3", "0"), ("1e-5", "0"), ("3e-9", "-1e-12")],
                         ids=["1e-3", "1e-5", "3e-9"])
def test_gate_check_rz_phase_is_exact_at_tiny_alpha(alpha, theta_alpha2, capsys):
    # at 3e-9 the odd Bell cats the teleport measures have norm^2 about
    # 8 alpha^2 = 7e-17, which 2 - 2 e^{-4 alpha^2} rounds to 0
    code, out = run_cli(["gate-check", "--alpha-min", alpha, "--alpha-max", alpha,
                         "--alpha-steps", "1", f"--theta-alpha2={theta_alpha2}"], capsys)
    assert code == EXIT_OK
    row = out.splitlines()[-1].split("\t")
    assert float(row[3]) <= 1e-15  # rz phase error


@pytest.mark.parametrize("alpha, theta_alpha2", [
    ("1.5", "3e-9"), ("2", "1e-8"), ("2.5", "1e-8"), ("3", "1e-8"),
])
def test_gate_check_runs_where_the_displacement_is_tiny(alpha, theta_alpha2, capsys):
    # a displacement of alpha theta below about 1e-9 (1 + alpha) once made the
    # Bell table read the displaced input as logical and refuse it (exit 2)
    code, out = run_cli(["gate-check", "--alpha-min", alpha, "--alpha-max", alpha,
                         "--alpha-steps", "1", "--theta-alpha2", theta_alpha2], capsys)
    assert code == EXIT_OK
    row = out.splitlines()[-1].split("\t")
    assert float(row[3]) <= 1e-15 and float(row[4]) <= 1e-15  # rz and zz phase errors


def _dynamic_openblas():
    """Whether NumPy's BLAS is an OpenBLAS built with DYNAMIC_ARCH on x86-64,
    whose kernel OPENBLAS_CORETYPE picks."""
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    config = blas.get("openblas configuration", "")
    return platform.machine() in ("x86_64", "AMD64") and "DYNAMIC_ARCH" in config


@pytest.mark.skipif(not _dynamic_openblas(), reason="needs a DYNAMIC_ARCH OpenBLAS on x86-64")
def test_bell_stats_bytes_do_not_depend_on_the_blas_kernel():
    # the default kernel and three older ones, each on 1 and 2 threads
    src = Path(cli.__file__).resolve().parent.parent
    outputs = set()
    for coretype in (None, "Prescott", "Nehalem", "Sandybridge"):
        for threads in ("1", "2"):
            env = {"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            proc = subprocess.run([sys.executable, "-m", "catsim.cli", "bell-stats"],
                                  capture_output=True, env=env)
            assert proc.returncode == EXIT_OK, (coretype, threads, proc.stderr)
            outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_import_does_not_load_scipy_special():
    import catsim

    src = Path(catsim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, catsim; sys.exit('scipy.special' in sys.modules)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_scipy():
    import catsim

    src = Path(catsim.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy as np, catsim.cli; "
         "catsim.gates.cnot_dressing(np.diag([1, -1j, -1j, 1])); "
         "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


def test_repeated_main_calls_match_fresh_processes(capsys):
    sweep = ["weak-force", "--sweep-n", "--seed", "3"]
    plain = ["weak-force"]

    def fresh(args):
        proc = subprocess.run(
            [sys.executable, "-m", "catsim.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        return proc.stdout

    first = run_cli(sweep, capsys)
    second = run_cli(plain, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"catsim {__version__}\n"
    third = run_cli(sweep, capsys)
    assert first == third == (EXIT_OK, fresh(sweep))
    assert second == (EXIT_OK, fresh(plain))


def test_every_experiment_prints_the_same_bytes_under_one_and_two_blas_threads():
    import catsim

    src = Path(catsim.__file__).resolve().parent.parent
    # every experiment at its defaults, and the oracle audit at the CLI's
    # alpha cap, where the beam splitter's cutoff reaches 110 levels
    script = (
        "import catsim.cli as c\n"
        "for args in [[name] for name in c._EXPERIMENTS] + [['oracle-audit', '--alpha-max', '4']]:\n"
        "    assert c.main(args) == c.EXIT_OK, args\n"
    )

    def run(threads):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    one = run("1")
    assert one.count("# experiment ") == len(cli._EXPERIMENTS) + 1 == 7
    assert "# alpha_max = 4\n" in one
    assert run("2") == one
