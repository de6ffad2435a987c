"""Exception types shared across the package, and the integer check behind DomainError."""

import operator


class SrgError(Exception):
    """Base class for every error this package raises deliberately."""


class FormatError(SrgError, ValueError):
    """Malformed input data: a generator file or a vertex-set container."""


class VecParseError(FormatError):
    """A 24-character '0'/'1' string failed to parse."""


class CodeConstructionError(SrgError, ValueError):
    """Generator rows do not produce a valid extended binary Golay code."""


class DomainError(SrgError, ValueError):
    """An argument violated an operation's precondition."""


def integer(value, what: str) -> int:
    """`value` as a Python int, from any integer type but bool; else DomainError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


class InvalidDistanceError(SrgError):
    """A weight-6 vector lies at a distance outside {2, 4} from the weight-8 words.

    This is believed impossible for weight-6 inputs but is guarded rather
    than assumed; if it ever fires the whole construction must stop.
    """

    def __init__(self, vector: int, distance: int):
        self.vector = vector
        self.distance = distance
        super().__init__(
            f"invalid distance: got {distance} for vector {vector:024b}"
        )


class GraphConstructionError(SrgError):
    """The assembled graph violated a structural requirement."""


class VerificationError(SrgError):
    """A graph failed the strongly-regular parameter check.

    `witness` names the vertex or vertex pair that broke constancy.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class DatFormatError(FormatError):
    """Malformed vertex-set container data.

    `offset` is the byte position at which the problem was detected, and
    `reason` the message without it.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.reason, self.offset = message, offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class InternalConsistencyError(SrgError):
    """A condition that must be impossible was observed; the build is bad."""
