"""Exception hierarchy shared by all realcat modules."""


class RealcatError(Exception):
    """Base class for every error raised by this package."""


class ParseError(RealcatError):
    """A serialized value could not be decoded."""


class ProductIrrational(RealcatError):
    """An exact result would be irrational (only possible inside a
    product block).  Callers wanting a number anyway should request a
    certified enclosure instead."""


class SizeLimitExceeded(RealcatError):
    """A functor enumeration would exceed the configured candidate cap."""


class NotForwardCauchy(RealcatError):
    """The sequence handed to a limit operation is not forward Cauchy."""


class NotMValued(RealcatError):
    """A category required to take values in the M quantale does not."""


class DomainError(RealcatError):
    """An argument lies outside the operation's domain."""


class InvalidWitness(RealcatError):
    """A witness construction was requested at a triple where the
    distributivity identity actually holds."""


class PreconditionError(RealcatError):
    """A stated precondition of a theorem-check harness is violated."""
