import io
import subprocess
import sys
from pathlib import Path

import pytest

from catsim import __version__
from catsim.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
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


def test_byte_identical_reproducibility(tmp_path):
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    args = ["weak-force", "--seed", "42", "--trials", "200", "--batches", "50"]
    assert main(args + ["--output", str(out_a)]) == EXIT_OK
    assert main(args + ["--output", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    # a different seed changes the sampled columns
    out_c = tmp_path / "c.tsv"
    assert main(args[:2] + ["43"] + args[3:] + ["--output", str(out_c)]) == EXIT_OK
    assert out_a.read_bytes() != out_c.read_bytes()


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


def test_budget_exit_code(capsys):
    code, _ = run_cli(["ramsey", "--n-max", "1000"], capsys)
    assert code == EXIT_BUDGET
    code, _ = run_cli(["ruler", "--alpha", "50"], capsys)
    assert code == EXIT_BUDGET


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
