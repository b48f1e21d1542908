"""Property test of the CLI field table: argument lists drawn from each
experiment's schema end in a documented exit code, never in an exception.

Every field gets a value either from a small in-range box (cheap to run)
or, for up to two fields per example, from its edges: a bound itself,
values just past a bound, out of range, over budget, or non-finite.  The
table fixes which exit code such an argument list must give."""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings, strategies as st  # noqa: E402

from catsim import __version__, cli  # noqa: E402

# With database=None no examples are stored, but Hypothesis still caches the
# constants it reads from local source files under its home directory, at
# collection time: keep that cache out of the working tree.
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "catsim-hypothesis")

# upper end of the in-range box for fields whose cost grows with the value
CHEAP = {"alpha_steps": 3, "trials": 20, "n": 8, "n_max": 8, "points": 400,
         "cases": 1}
BOX = 8.0  # floats without a bound on a side draw from [-BOX, BOX] on that side


def _cheap(key, field):
    if field.kind is bool:
        return st.booleans()
    if field.kind is int:
        return st.integers(field.ge, min(field.cap, CHEAP.get(key, field.cap)))
    low = next((b for b in (field.gt, field.ge) if b is not None), -BOX)
    high = BOX if field.cap is None else field.cap
    return st.floats(low, high, exclude_min=field.gt is not None)


def _edges(key, field):
    if field.kind is bool:
        return st.booleans()
    if field.kind is int:
        edges = [st.sampled_from([field.ge - 1, field.ge, field.cap + 1]),
                 st.integers(max_value=field.ge - 1), st.integers(min_value=field.cap + 1)]
        if field.cap <= CHEAP.get(key, field.cap):
            edges.append(st.just(field.cap))
        return st.one_of(edges)
    bounds = [b for b in (field.gt, field.ge, field.cap) if b is not None]
    edges = [st.sampled_from([math.nan, math.inf, -math.inf] + [
        x for b in bounds for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))])]
    low = next((b for b in (field.gt, field.ge) if b is not None), None)
    if low is not None:
        edges.append(st.floats(max_value=low, allow_infinity=False))
    edges.append(st.floats(min_value=low, max_value=field.cap, allow_infinity=False))
    if field.cap is not None:
        edges.append(st.floats(min_value=field.cap, allow_infinity=False))
    return st.one_of(edges)


def _verdict(field, value) -> int:
    """The exit code the field table alone demands for this value."""
    if field.kind is float and not math.isfinite(value):
        return cli.EXIT_CONFIG
    if (field.gt is not None and value <= field.gt) or (field.ge is not None and value < field.ge):
        return cli.EXIT_CONFIG
    if field.cap is not None and value > field.cap:
        return cli.EXIT_BUDGET
    return cli.EXIT_OK


def _flag(key, field, value) -> str:
    name = key.replace("_", "-")
    if field.kind is bool:
        return f"--{name}" if value else f"--no-{name}"
    return f"--{name}={value!r}"


def test_every_cheap_key_names_a_field():
    # a deleted field must not leave its cost cap behind
    fields = {key for _, schema in cli._EXPERIMENTS.values() for key in schema}
    assert sorted(set(CHEAP) - fields) == []


@pytest.mark.parametrize("experiment", sorted(cli._EXPERIMENTS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_drawn_argument_list_ends_in_a_documented_exit_code(experiment, data):
    schema = cli._EXPERIMENTS[experiment][1]
    edge_keys = data.draw(st.sets(st.sampled_from(sorted(schema)), max_size=2))
    seed = data.draw(st.integers(0, 1000))
    argv, verdicts = [experiment, "--seed", str(seed)], []
    for key, field in schema.items():
        value = data.draw((_edges if key in edge_keys else _cheap)(key, field), label=key)
        argv.append(_flag(key, field, value))
        verdicts.append(_verdict(field, value))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue().splitlines()
    # a warning would print before the one-line reason in a subprocess
    assert [str(w.message) for w in caught] == [], argv

    # range errors come before budget errors, and both before any work
    if cli.EXIT_CONFIG in verdicts:
        assert code == cli.EXIT_CONFIG, argv
    elif cli.EXIT_BUDGET in verdicts:
        assert code == cli.EXIT_BUDGET, argv
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_PROPERTY), argv
    if code in (cli.EXIT_CONFIG, cli.EXIT_BUDGET):
        prefix = "config error: " if code == cli.EXIT_CONFIG else "budget error: "
        assert out == "" and len(err) == 1 and err[0].startswith(prefix), (argv, err)
        return
    prefix = f"property check failed: {experiment} row "
    if code == cli.EXIT_OK:
        assert err == [], (argv, err)
    else:
        assert len(err) == 1 and err[0].startswith(prefix), (argv, err)
    lines = out.splitlines()
    assert lines[:3] == [f"# catsim {__version__}", f"# experiment {experiment}", f"# seed {seed}"]
    assert [l.split(" = ")[0] for l in lines[3:3 + len(schema)]] == [f"# {k}" for k in sorted(schema)]
    columns, rows = lines[3 + len(schema)], lines[4 + len(schema):]
    assert not columns.startswith("#") and rows
    assert all(len(row.split("\t")) == len(columns.split("\t")) for row in rows)
