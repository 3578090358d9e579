"""Exception hierarchy shared by all realcat modules."""


class RealcatError(Exception):
    """Base class for every error raised by this package."""


class ParseError(RealcatError):
    """A serialized value could not be decoded."""


class ProductIrrational(RealcatError):
    """An exact result would be irrational (only possible inside a
    product block)."""


class SizeLimitExceeded(RealcatError):
    """A functor enumeration would exceed the configured candidate cap:
    |B|^|A| maps A -> B against ``cap``.  The sizes that triggered it are
    kept as ``dom_size`` (|A|), ``cod_size`` (|B|) and ``cap``."""

    def __init__(self, dom_size: int, cod_size: int, cap: int):
        super().__init__(f"{cod_size**dom_size} candidate maps exceed the cap {cap}")
        self.dom_size = dom_size
        self.cod_size = cod_size
        self.cap = cap


class NotForwardCauchy(RealcatError):
    """The sequence handed to a limit operation is not forward Cauchy."""


class NotMValued(RealcatError):
    """A category required to take values in the M quantale does not."""


class DomainError(RealcatError):
    """An argument lies outside the operation's domain."""


class InvalidWitness(RealcatError):
    """A witness construction was requested at a triple where the
    distributivity identity actually holds."""
