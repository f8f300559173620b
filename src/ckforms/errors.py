"""Exception types shared across the package, and the default Weyl
enumeration cap that `CapExceeded` reports against."""


class CkformsError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedSystem(CkformsError):
    """Requested root system type/rank combination does not exist."""


class DimensionMismatch(CkformsError):
    """Vector or matrix dimensions do not match the ambient space."""


class NotInSpan(CkformsError):
    """Vector lies outside the span of the roots of the system."""


# the Weyl enumeration cap when the caller names none
DEFAULT_CAP = 10**6


class CapExceeded(CkformsError):
    """Weyl group enumeration would exceed the caller's element cap."""

    def __init__(self, order: int, cap: int):
        self.order = order
        self.cap = cap
        super().__init__(f"Weyl group has {order} elements, exceeding the cap {cap}")


class ParseError(CkformsError):
    """Descriptor or input text does not conform to the grammar."""


class NotSemisimple(CkformsError):
    """Descriptor names something that is not a simple algebra of the
    claimed kind (abelian, non-simple, compact, or zero-dimensional);
    the message suggests the accepted form."""


class SpaceObstruction(CkformsError):
    """The homogeneous space itself violates the rank inequalities, so no
    subgroup of positive rank can act properly; candidate search is moot."""


class InternalInconsistency(CkformsError):
    """A runtime cross-check of a computed result failed.

    Raised instead of `assert` so the checks survive `python -O`; it always
    signals a fault in the package, never in the input."""
