"""Exception hierarchy and the CLI exit-code table.

Every error the library can raise maps to exactly one documented nonzero
exit code (see EXIT_CODES); the CLI relies on this table being exhaustive.
"""

from __future__ import annotations


class KsError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ZeroVector(KsError):
    """Input vector has norm below tolerance and spans no subspace."""

    exit_code = 3


class AtPole(KsError):
    """Operation undefined at the north pole (equator-partner denominator vanishes)."""

    exit_code = 4


class NotNorthern(KsError):
    """Point is not strictly in the northern hemisphere."""

    exit_code = 5


class NotReachableDirectly(KsError):
    """Target lies on the pole side of the circle; one-step construction inapplicable."""

    exit_code = 6


class BadN(KsError):
    """Step count below the minimum the construction supports."""

    exit_code = 7


class NoSuchN(KsError):
    """No admissible step count up to the cap; heights too close to resolve."""

    exit_code = 8


class NotOrthogonal(KsError):
    """Rays are not orthogonal within tolerance."""

    exit_code = 10


class PremiseNotOne(KsError):
    """Cited fact does not assign value 1."""

    exit_code = 11


class PremiseNotZero(KsError):
    """Cited fact does not assign value 0."""

    exit_code = 12


class NotOnCircle(KsError):
    """Point is not on the great circle within tolerance."""

    exit_code = 13


class BadPremises(KsError):
    """Cited facts do not match the rule's requirements."""

    exit_code = 14


class BadPole(KsError):
    """Re-poling target outside the admissible height band."""

    exit_code = 15


class NotInRightHalf(KsError):
    """Point is not in the open right half of the northern hemisphere."""

    exit_code = 16


class OpenBranch(KsError):
    """Trace has a branch without a contradiction; extraction refused."""

    exit_code = 17


class InvalidSystem(KsError):
    """Triad system failed validation."""

    exit_code = 18


class ParseError(KsError):
    """Document is not well formed."""

    exit_code = 19

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(KsError):
    """Document parsed but violates a structural or orthogonality invariant."""

    exit_code = 20


class PreconditionViolation(KsError):
    """Operation preconditions not met (for example target not below source)."""

    exit_code = 21


# Exit code 9 is retired (it was Unreachable, which reach can no longer raise).
# Exit codes reserved for CLI outcomes that are not exceptions:
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_REJECTED = 22      # verification report rejected a certificate
EXIT_EXPECTATION = 23   # coloring mode expectation unmet (e.g. prove-none found a witness)

ERROR_CLASSES = tuple(KsError.__subclasses__())

EXIT_CODES = {cls.__name__: cls.exit_code for cls in ERROR_CLASSES}
EXIT_CODES.update(
    {
        "ok": EXIT_OK,
        "internal": EXIT_INTERNAL,
        "usage": EXIT_USAGE,
        "rejected": EXIT_REJECTED,
        "expectation": EXIT_EXPECTATION,
    }
)
