"""The recording seam of the cost tests: one table of the kernels that do
each kind of work, and one way to log their calls.

    with record("tables", "branch_states") as log:
        gate_z(s, enc, rng)
    assert len(log.tables) == 1 and len(log.branch_states) == 1

`record(*kinds)` wraps the kernel of each kind in `KERNELS` for the length
of the block and logs every call of it as a `Call(kind, args, result)`,
the positional arguments and the return value, in the kind's own list
(`log.tables`) and in one list of every call in return order
(`log.events`); a call that raises is not logged.  This is the one file of
`tests/` that names a private kernel to patch it: when a kernel is renamed
or split, its line of `KERNELS` changes and no test does.  To add a kind,
add its line.  Pytest does not collect this file.

`ScriptedRng` and the `scripted_draws` fixture are the one fake of the
public `measure.sample`: a draw from a `ScriptedRng` takes its next index
into the branch table, whatever the probabilities.
"""

import contextlib
from typing import NamedTuple

import pytest

from catsim import audit, fockoracle, gates, measure, states

# kind -> (owner, name) of the one kernel that does that kind of work
KERNELS = {
    "states": (states.CoherentSuperposition, "__post_init__"),  # a state constructed
    "merges": (states.CoherentSuperposition, "merge_terms"),
    "grams": (states, "_overlap_matrix"),  # an overlap matrix formed
    "rests": (measure, "_rest"),  # the remaining modes of the state being scored
    "forms": (measure, "_forms"),  # a stack of branch forms v^dag G v
    "scans": (measure, "_bell_column"),  # one measured column of a Bell measurement
    "tables": (measure, "_table"),  # a branch table; the result is the table built
    "branch_states": (measure, "_branch_state"),  # a record's state built on its first read
    "resources": (gates, "_resource"),  # a Bell-cat resource read from its closed form
    "assemblies": (fockoracle, "_assemble"),  # one Fock tensor of the oracle
    "qubit_draws": (audit, "_random_qubit_like"),  # a qubit-like state an audit row drew
}


class Call(NamedTuple):
    kind: str
    args: tuple
    result: object


class Log:
    """The calls a `record` block logged: `events` in return order, and
    one list per recorded kind, an attribute named after the kind."""

    def __init__(self, kinds):
        self.events = []
        for kind in kinds:
            setattr(self, kind, [])

    def pairs(self, first, then):
        """(f, t) for each call t of kind `then`, f the last call of kind
        `first` logged before it (None if there is none)."""
        out, last = [], None
        for call in self.events:
            if call.kind == first:
                last = call
            elif call.kind == then:
                out.append((last, call))
        return out


@contextlib.contextmanager
def record(*kinds):
    """Log every call of the kernels of `kinds` (keys of `KERNELS`) made
    inside the block; the kernels are restored when it ends."""
    log = Log(kinds)
    with pytest.MonkeyPatch.context() as mp:
        for kind in kinds:
            owner, name = KERNELS[kind]

            def logged(*args, kind=kind, kernel=getattr(owner, name)):
                result = kernel(*args)
                call = Call(kind, args, result)
                getattr(log, kind).append(call)
                log.events.append(call)
                return result

            mp.setattr(owner, name, logged)
        yield log


class ScriptedRng:
    """Stands in for a Generator: each `measure.sample` draw from it (with
    `scripted_draws` in use) takes the next scripted index into the branch
    table."""

    def __init__(self, *picks):
        self.picks = iter(picks)


@pytest.fixture
def scripted_draws(monkeypatch):
    """`measure.sample` (which `gates._pick` calls through the module) takes
    a `ScriptedRng`'s next index; a Generator draws as usual."""
    draw = measure.sample

    def sample(table, rng):
        if isinstance(rng, ScriptedRng):
            return table[list(table)[next(rng.picks)]]
        return draw(table, rng)

    monkeypatch.setattr(measure, "sample", sample)
