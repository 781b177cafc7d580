"""Exception taxonomy.

Two families matter to callers (and to the CLI exit code):

* ``MathError`` -- the input was well formed but mathematically inadmissible
  (a non-unit where a unit is required, a bad root of unity, a map that fails
  its defining identity).  CLI exit code 1.
* ``InputError`` -- the input could not even be interpreted (malformed
  document, dangling reference, unparsable scalar).  CLI exit code 2.
"""


class HopfGalError(Exception):
    """Base class for every error raised by this package."""


class MathError(HopfGalError):
    """Well-formed input refused on mathematical grounds."""


class InputError(HopfGalError):
    """Input that could not be interpreted at all."""


# ---------------------------------------------------------------- base rings

class NonUnitError(MathError):
    """An element required to be invertible is not a unit."""


class CharDividesError(MathError):
    """Root degree is not invertible in the ground field."""


class RingMismatchError(MathError):
    """Operands belong to different rings (or fields) than required."""


class GradingError(MathError):
    """A grading assignment that admits no degree-scaling morphism."""


class TowerOrderError(MathError):
    """A Laurent generator placed above a root adjunction."""


# ---------------------------------------------------------------- hopf

class DimensionMismatchError(MathError):
    """Structure tensors with inconsistent dimensions."""


class BadRootOfUnityError(MathError):
    """Scalar does not have the exact multiplicative order required."""


class NoAntipodeError(MathError):
    """Bialgebra whose identity map has no convolution inverse."""


class NotInvertibleError(MathError):
    """Map with no (two-sided) convolution inverse."""


class BaseNotFieldError(MathError):
    """Operation only defined when the base ring is the ground field."""


# ---------------------------------------------------------------- cleft

class NotComoduleMapError(MathError):
    """Candidate cleaving map fails the comodule-morphism identity."""


class NonCentralDatumError(MathError):
    """Extracted quasi-action is not the trivial one."""


class NotAssociativeError(MathError):
    """Product table fails associativity."""


class BadNormalizationError(MathError):
    """Cocycle not normalized at the unit."""


# ---------------------------------------------------------------- bundles

class NonUnitAlphaError(NonUnitError):
    """First parameter of a rank-4 bundle must be a unit of the base."""


class BadRootError(MathError):
    """Claimed square root fails its defining equation."""


class CharTwoError(MathError):
    """Operation requires 2 to be invertible in the ground field."""


class RootSearchUnsupportedError(MathError):
    """Exact root search is not decidable over this field."""


# ---------------------------------------------------------------- homotopy

class NotCommutativeError(MathError):
    """Operation requires a commutative comodule algebra."""


class NotEtaleInclusionError(MathError):
    """Claimed identification of an algebra with an admissible ring extension fails."""


class BaseMismatchError(MathError):
    """Bundles or witness parts live over different base rings."""


# ---------------------------------------------------------------- documents

class SchemaError(InputError):
    """Document violates the JSON schema.  Carries a JSON-pointer location."""

    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class UnresolvedReferenceError(InputError):
    """Document refers to a name it never defines."""

    def __init__(self, pointer, name):
        self.pointer = pointer
        self.name = name
        super().__init__(f"{pointer}: unresolved reference {name!r}")


class BadScalarError(InputError):
    """Scalar or ring-element literal that does not parse over the given field."""
