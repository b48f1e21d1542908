from catsim import audit, fockoracle, optics
from catsim.cli import EXIT_OK, main


def test_displacement_off_by_one_part_in_a_million_fails_only_its_row(monkeypatch):
    # 1 - fidelity reads such a beta error squared, about 3e-11; the distance
    # reads it once, about 5e-6
    displace = optics.displace
    monkeypatch.setattr(
        optics, "displace", lambda s, mode, beta: displace(s, mode, beta * (1 + 1e-6))
    )
    rows = audit.run_audit(0, cases_per_check=5)
    failed = [r.name for r in rows if not r.passed]
    assert failed == ["displace"]
    (row,) = [r for r in rows if r.name == "displace"]
    assert row.max_error > 1e3 * row.tolerance


def test_oracle_audit_passes_at_the_alpha_cap(capsys):
    assert main(["oracle-audit", "--alpha-max", "4", "--cases", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("check\tcases\tmax_error\ttolerance\tpassed")
    table = [line.split("\t") for line in lines[header + 1:]]
    # one row per (name, check) pair, each judged against DIST_TOL
    assert [row[0] for row in table] == [name for name, _ in audit.AUDIT_CHECKS]
    assert all(tol == "1e-10" and passed == "true" for _, _, _, tol, passed in table)


def test_block_cache_stays_within_its_byte_budget_at_the_alpha_cap():
    fockoracle._block_eigh.cache_clear()
    audit.run_audit(0, 5, 4.0)
    # the run asks for about 15 MB of distinct blocks, more than the budget
    held = fockoracle._block_eigh.cache_bytes()
    assert fockoracle._BLOCK_BYTES / 2 < held <= fockoracle._BLOCK_BYTES
