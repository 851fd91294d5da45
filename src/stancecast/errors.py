"""Exception hierarchy for stancecast.

All library errors derive from :class:`StancecastError` so callers can catch
one base class at API boundaries. Input/validation problems and internal
invariant violations are kept distinct for CLI exit-code mapping. An error
that carries fields keeps them all in ``args`` and formats its message in
``__str__``, so it pickles: a forked worker of ``simulate --workers`` sends
it back to the parent, which reports it.
"""


class StancecastError(Exception):
    """Base class for all stancecast errors."""


class IdOutOfRangeError(StancecastError):
    """A node or topic id lies outside the dense id range of the graph."""


class _EdgeListError(StancecastError):
    """A bad pair in an edge list, raised as ``(message, index)``: ``index``
    is the pair's position in the list (a repeated edge's second one)."""

    index = property(lambda self: self.args[1])

    def __str__(self):
        return self.args[0]


class SelfLoopError(_EdgeListError):
    """An edge (v, v) was supplied; self-loops are not allowed."""


class DuplicateEdgeError(_EdgeListError):
    """The same directed edge appears more than once."""


class ProfileLengthMismatchError(StancecastError):
    """A stance profile does not match the graph's topic count."""


class BadStanceValueError(StancecastError):
    """A stance code outside {-1, 0, 0.5, 1} was supplied."""


class LengthMismatchError(StancecastError):
    """Two profiles of different lengths were compared."""


class EmptyProfileError(StancecastError):
    """Similarity is undefined for zero-topic profiles."""


class SameNodeError(StancecastError):
    """Influence of a node on itself was requested."""


class ProbabilityOutOfRangeError(StancecastError):
    """An influence probability outside [0, 1] was supplied."""


class UnknownSenderError(StancecastError):
    """A stance transition was requested with an unknown (-1) sender stance."""


class InvalidSeedStanceError(StancecastError):
    """A seed stance must be known: one of {0, 0.5, 1}."""


class CountExceedsPoolError(StancecastError):
    """A sample of more elements than the pool holds was requested."""


class MissingKeyError(StancecastError):
    """A required configuration key is absent; raised as ``(key)``."""

    key = property(lambda self: self.args[0])

    def __str__(self):
        return f"missing required config key {self.key!r}"


class RangeViolationError(StancecastError):
    """A configuration value lies outside its allowed range; raised as
    ``(key, value, allowed)``."""

    key = property(lambda self: self.args[0])
    value = property(lambda self: self.args[1])
    allowed = property(lambda self: self.args[2])

    def __str__(self):
        return (f"config key {self.key!r} = {self.value!r} outside allowed "
                f"{self.allowed}")


class ParseError(StancecastError):
    """A data file could not be parsed; raised as ``(path, line, column,
    message)`` and reported as ``path:line:column: message``."""

    path = property(lambda self: str(self.args[0]))
    line = property(lambda self: self.args[1])
    column = property(lambda self: self.args[2])

    def __str__(self):
        return f"{self.path}:{self.line}:{self.column}: {self.args[3]}"


class InconsistentIdsError(StancecastError):
    """Ids referenced across dataset files do not line up."""


class SummaryMismatchError(StancecastError):
    """A trace's round summaries disagree with its replayed events."""


class InfeasibleEdgeCountError(StancecastError):
    """Requested more simple directed edges than n*(n-1)."""


class SchemaVersionMismatchError(StancecastError):
    """A trace file carries an unsupported schema version."""


class MissingTruthEntryError(StancecastError):
    """Ground truth does not cover a (node, topic) pair being scored."""


class EmptySeedsWarning(UserWarning):
    """No seed stances were provided; the run will produce no events."""


def _raise_first(checks, pending: StancecastError | None = None) -> None:
    """Raise the error of the first row that fails a check, else ``pending``.

    ``checks`` pairs a mask over the rows with a function from a row index
    to its error, in the order in which one row is checked.
    """
    failing = [(int(mask.argmax()), k) for k, (mask, _) in enumerate(checks)
               if mask.any()]
    if failing:
        row, k = min(failing)
        raise checks[k][1](row)
    if pending is not None:
        raise pending
