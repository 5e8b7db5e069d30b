"""Package-wide error types; their class decides the CLI's exit code.

Every package exception subclasses exactly one of two bases:

* ``RejectedInputError`` (exit 2): the input is malformed, breaks the
  standing hypotheses on (f, g) (squarefree f and g, no shared
  height-one prime, the degree-four condition) or asks for more than a
  resource guard allows.  It is also a ``ValueError``.
* ``InternalError`` (exit 3): an identity or invariant the construction
  guarantees failed to hold, which signals a bug rather than bad input.

The CLI maps anything else it catches to exit 3 as well, so no input
ends in a traceback.
"""

from __future__ import annotations


class CmWitnessError(Exception):
    """Base class for all package errors."""


class RejectedInputError(CmWitnessError, ValueError):
    """The input is out of contract; the CLI exits 2."""


class InternalError(CmWitnessError):
    """A guaranteed identity or invariant failed; the CLI exits 3."""


class MalformedInputError(RejectedInputError):
    """A job or family file is not valid JSON or breaks the schema."""


class PolyParseError(RejectedInputError):
    """Syntax error while parsing a polynomial string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolyParseError):
    """A name in the input is not a variable of the ring."""


class HypothesisViolationError(RejectedInputError):
    """The standing hypotheses on (f, g) fail; names the predicate."""

    def __init__(self, predicate: str, message: str):
        super().__init__(f"{predicate}: {message}")
        self.predicate = predicate


class ZeroInputError(RejectedInputError):
    """An operation that requires a nonzero polynomial received zero."""


class UnsupportedError(RejectedInputError):
    """Input falls in a branch the algorithms do not decide."""


class BoundTooLargeError(RejectedInputError):
    """A requested size exceeds the configured resource guard."""


class MalformedSequenceError(InternalError):
    """A certificate sequence does not have the required shape."""


class WrongCaseError(InternalError):
    """A construction was requested for a case tag it does not apply to."""


class NotClosedError(InternalError):
    """A claimed generating set is not closed under multiplication."""


class WitnessMismatchError(InternalError):
    """A witness is missing or does not fit what it is meant to certify."""


class LiftInvalidError(InternalError):
    """An integer lift violates the constraints of the construction."""


class MissingCertificateError(InternalError):
    """A grade witness that an exactness check needs is missing or too short."""


class UnverifiedComplexError(InternalError):
    """A complex failed its verification: its differentials do not compose
    to zero, it fails the exactness criterion, some differential has no
    nonzero minor of the forced rank, or d_2 does not saturate ker(d_1)."""


class CaseConflictError(InternalError):
    """Mutually exclusive case conditions were detected simultaneously."""


class InternalVerificationError(InternalError):
    """An identity guaranteed by the theory failed to verify exactly."""


class NotDivisibleError(InternalError):
    """Exact division was requested but the quotient does not exist."""


class BothZeroError(InternalError):
    """gcd(0, 0) was requested."""


class SpanNotFreeError(InternalError):
    """A claimed free generating set does not peel into triangular form.

    solve_in_S pivots each column at a coordinate where it is the only
    nonzero entry among the columns not yet pivoted; dependent columns
    never peel.
    """


class DimensionMismatchError(InternalError):
    """Matrix shapes do not line up."""
