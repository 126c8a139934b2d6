"""Exception types shared across the package.

Each error names a violated contract so callers (and the CLI exit-code
mapping) can tell input mistakes apart from broken internal guarantees.
"""


class StreamColorError(Exception):
    """Base class for all package-specific errors."""


class StreamFormatError(StreamColorError):
    """A stream or coloring file could not be parsed."""


class IllegalUpdateError(StreamColorError):
    """An edge update is malformed: self loop, vertex out of range,
    duplicate insertion, or deletion of an absent edge."""


class UncoloredVertexError(StreamColorError):
    """A total coloring was required but some vertex is unassigned."""


class PaletteExhaustedError(StreamColorError):
    """Greedy extension found no free color inside the palette."""


class EqualVerticesError(StreamColorError):
    """An operation on a vertex pair was given u == v."""


class DegreeViolationError(StreamColorError):
    """The materialized graph exceeds the declared maximum degree."""


class MonoBudgetExceededError(StreamColorError):
    """A storage phase collected more edges than its proven budget."""


class NegativeCounterError(StreamColorError):
    """A monochromatic-edge counter went below zero."""


class NonTerminationError(StreamColorError):
    """An iterative pass schedule exceeded its proven iteration bound."""


class RecoveryFailedError(StreamColorError):
    """Sparse recovery could not produce a verified edge set."""


class OutOfRangeError(StreamColorError):
    """An encoded value falls outside its declared universe."""


class TooLargeError(StreamColorError):
    """Exact enumeration was requested beyond the configured cap."""


class RejectionOverflowError(StreamColorError):
    """Rejection sampling exhausted its retry budget."""


class InfeasibleLevelError(StreamColorError):
    """An adversary level has no admissible input graph."""


class ImproperOutputError(StreamColorError):
    """A communication-game protocol emitted an improper coloring."""
