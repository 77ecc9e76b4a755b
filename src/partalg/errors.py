"""Domain exceptions shared across the package.

Every error raised on purpose derives from PartalgError, so one
except clause catches every domain failure.
"""

__all__ = [
    "PartalgError",
    "NotAPartition",
    "HalfIntegerConstraintViolated",
    "VertexOutOfRange",
    "RankMismatch",
    "IndexOutOfRange",
    "LimitExceeded",
    "NonIntegerRank",
    "NonHalfIntegerRank",
    "ModeMismatch",
    "InvalidTarget",
    "BadParams",
    "VertexNotFound",
    "SizeMismatch",
    "BadSubset",
    "NotSemisimple",
    "BadShape",
    "DegenerateForm",
    "DenominatorVanishes",
]


class PartalgError(Exception):
    """Base class for all domain errors."""


class NotAPartition(PartalgError):
    """Blocks do not form an exact partition of the vertex set."""


class HalfIntegerConstraintViolated(PartalgError):
    """Half-integer rank requires the last top and bottom vertices to share a block."""


class VertexOutOfRange(PartalgError):
    """A vertex label lies outside 1..K / -1..-K."""


class RankMismatch(PartalgError):
    """Operands live at different ranks."""


class IndexOutOfRange(PartalgError):
    """Generator index invalid for the requested rank."""


class LimitExceeded(PartalgError):
    """Requested computation exceeds its cap in partalg.limits.LIMITS."""


class NonIntegerRank(PartalgError):
    """Operation requires an integer rank."""


class NonHalfIntegerRank(PartalgError):
    """Operation requires a half-integer rank."""


class ModeMismatch(PartalgError):
    """Operands carry different parameter modes."""


class InvalidTarget(PartalgError):
    """Embedding target is not the source rank plus one half step."""


class BadParams(PartalgError):
    """Parameters out of range for the requested construction."""


class VertexNotFound(PartalgError):
    """Graph vertex absent at the requested level."""


class SizeMismatch(PartalgError):
    """Partition size does not match the group rank."""


class BadSubset(PartalgError):
    """Subset arguments violate the construction's preconditions."""


class NotSemisimple(PartalgError):
    """A trace weight the tower construction of matrix units divides by
    vanishes, or the units fail to span.  Every weight below the target
    level must be nonzero, which is stronger than semisimplicity:
    A_{3/2}(0) is semisimple, yet the weight of level 1/2 vanishes at 0."""


class BadShape(PartalgError):
    """Partition shape invalid for the requested module."""


class DegenerateForm(PartalgError):
    """Trace form is degenerate; no dual basis exists."""


class DenominatorVanishes(PartalgError):
    """Evaluation point is a pole of a rational-function coefficient."""
