"""Exception types shared across the package.

Each error names a violated contract so callers can tell input mistakes
apart from broken internal guarantees.  The type also carries how the
command line reports it: every package error is printed as
``<label>: <message>`` on stderr and exits with ``exit_code``:

* 2 (``error``, or ``illegal stream`` for an illegal update): the input
  or a flag is outside what a command accepts;
* 3 (``degree violation``): the graph exceeds its declared degree bound;
* 4 (``internal bound violated``): a proven budget or bound was broken;
* 5: a protocol emitted an improper coloring.

A subclass inherits its parent's code and label, so a new error type
needs no change to the command line.
"""


class StreamColorError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2
    label = "error"


class UsageError(StreamColorError, ValueError):
    """A value lies outside what a command or entry point accepts.

    Also a ValueError, so callers that catch ValueError keep working."""


class StreamFormatError(StreamColorError):
    """A stream or coloring file could not be parsed."""


class IllegalUpdateError(StreamColorError):
    """An edge update is malformed: self loop, vertex out of range,
    duplicate insertion, or deletion of an absent edge."""

    label = "illegal stream"


class UncoloredVertexError(StreamColorError):
    """A total coloring was required but some vertex is unassigned."""


class EqualVerticesError(StreamColorError):
    """An operation on a vertex pair was given u == v."""


class DegreeViolationError(StreamColorError):
    """The materialized graph exceeds the declared maximum degree."""

    exit_code = 3
    label = "degree violation"


class InternalBoundError(StreamColorError):
    """A proven budget or bound of the algorithms did not hold."""

    exit_code = 4
    label = "internal bound violated"


class PaletteExhaustedError(InternalBoundError):
    """Greedy extension found no free color inside the palette."""


class MonoBudgetExceededError(InternalBoundError):
    """A storage phase collected more edges than its proven budget."""


class NegativeCounterError(InternalBoundError):
    """A monochromatic-edge counter went below zero."""


class NonTerminationError(InternalBoundError):
    """An iterative pass schedule exceeded its proven iteration bound."""


class RecoveryFailedError(InternalBoundError):
    """Sparse recovery could not produce a verified edge set."""


class RejectionOverflowError(InternalBoundError):
    """Rejection sampling exhausted its retry budget."""


class OutOfRangeError(StreamColorError):
    """An encoded value falls outside its declared universe."""


class TooLargeError(StreamColorError):
    """Exact enumeration was requested beyond the configured cap."""


class InfeasibleLevelError(StreamColorError):
    """An adversary level has no admissible input graph."""


class ImproperOutputError(StreamColorError):
    """A communication-game protocol emitted an improper coloring."""

    exit_code = 5
