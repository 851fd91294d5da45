import pickle

import pytest

from stancecast import errors

# One instance of every error class, built with the arguments it is raised
# with; classes not listed take a single message.
WITH_FIELDS = [
    errors.ParseError("data/edges.tsv", 7, 1, "expected 'source<TAB>target'"),
    errors.MissingKeyError("rounds_K"),
    errors.RangeViolationError("r1", 1.5, "[0, 1]"),
    errors.SelfLoopError("self-loop at node 3", 4),
    errors.DuplicateEdgeError("duplicate edge (0, 1)", 2),
]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def instances():
    listed = {type(exc) for exc in WITH_FIELDS}
    return WITH_FIELDS + [cls("a message") for cls in
                          subclasses(errors.StancecastError)
                          if cls not in listed and not cls.__name__.startswith("_")]


@pytest.mark.parametrize("exc", instances(), ids=lambda exc: type(exc).__name__)
def test_errors_survive_pickling(exc):
    # a worker process raises them; the parent must get the same error back
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args


def test_field_attributes_kept():
    parse, missing, violation = (pickle.loads(pickle.dumps(exc))
                                 for exc in WITH_FIELDS[:3])
    assert (parse.path, parse.line, parse.column) == ("data/edges.tsv", 7, 1)
    assert str(parse) == "data/edges.tsv:7:1: expected 'source<TAB>target'"
    assert missing.key == "rounds_K"
    assert str(missing) == "missing required config key 'rounds_K'"
    assert (violation.key, violation.value, violation.allowed) == \
        ("r1", 1.5, "[0, 1]")
    assert str(violation) == "config key 'r1' = 1.5 outside allowed [0, 1]"
