"""Typed errors shared across the package."""


class NcthickError(Exception):
    """Base class for every error raised by this package."""


class UnsupportedLabelError(NcthickError):
    """A type label outside the supported Dynkin/Kronecker list."""


class DimensionMismatchError(NcthickError):
    """Vector or matrix dimensions do not match the ambient rank."""


class IsotropicVectorError(NcthickError):
    """Reflection requested at a vector with (a, a) = 0."""


class NotRealRootError(NcthickError):
    """A vector that is not a real root where one is required."""


class NotReflectionError(NcthickError):
    """A group element that is not a reflection where one is required."""


class NonIntegralReflectionError(NcthickError):
    """Reflecting an integer vector produced non-integer coordinates."""


class NotIntegerError(NcthickError):
    """A matrix or vector entry whose type is not int (a bool, a float, or
    a rational even when integral) where exact arithmetic needs one."""


class InfiniteGroupError(NcthickError):
    """Full enumeration requested for an infinite group."""


class ResourceLimitError(NcthickError):
    """An enumeration exceeded its configured size cap."""


class OutOfRangeError(NcthickError):
    """A size parameter outside its valid range, such as a negative count."""


class PermutationError(NcthickError):
    """A sequence that is not a permutation of 1..n."""


class NotInPosetError(NcthickError):
    """Element outside the poset or lattice it was queried against."""


class LatticeStructureError(NcthickError):
    """A meet or join failed to exist or be unique; signals a bug."""


class WindowError(NcthickError):
    """A bad or missing window: empty, with levels that are not ints, not
    built by `derived.build_zdelta`, or without a requested vertex."""


class StructuralError(NcthickError):
    """An internal consistency assertion failed; signals a bug."""
