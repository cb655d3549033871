"""Exception hierarchy.

Every error raised by this package derives from MinrepError, which itself
derives from ValueError so that casual callers can catch a single class.
"""


class MinrepError(ValueError):
    """Base class for all contract violations raised by minrep."""


class NotAnInteger(MinrepError, TypeError):
    """An index p, q, m or n is not a plain int, or a window ratio is not
    an int or a Fraction (bool, float and str included)."""


class OutOfRange(MinrepError):
    """An integer argument lies outside its permitted range."""


class NotCoprime(MinrepError):
    """The pair (p, q) has a common factor."""


class BothEven(NotCoprime):
    """Both members of (p, q) are even, the evenness special case of
    NotCoprime (they always share the factor 2)."""


class NoOddRepresentative(MinrepError):
    """Neither Kac representative has odd first index (impossible for odd p)."""


class NonCanonicalLabel(MinrepError):
    """The operation needs a canonical acting label, with m and n both odd."""


class NotPrimeCase(MinrepError):
    """Closed forms apply only to labels whose partner box is one wide
    (m = p - 2 or n = q - 1), the shapes of every 1 or prime dimension."""


class OutOfScopeDimension(MinrepError):
    """The operation needs dimension s <= 3: minimal weight data and the
    low-dimension classification."""


class SubsetBlowup(MinrepError):
    """The subset enumeration exceeds the configured dimension cap."""


class NotPrime(MinrepError):
    """A prime number was required."""


class NotLowDimCase(MinrepError):
    """The label or shape tag is not one of the five classified s <= 3
    shapes."""


class OddWeight(MinrepError):
    """Bernoulli numbers and Eisenstein series are exposed here only at
    even k >= 2 (index or weight)."""


class ExponentMismatch(MinrepError):
    """Two q-expansions live on incompatible fractional exponent lattices."""


class WeightMismatch(MinrepError):
    """Modular forms of different weights cannot be added or mixed."""


class InhomogeneousOperator(MinrepError):
    """Operator coefficients do not define a weight homogeneous map."""


class ExpressionError(MinrepError):
    """The operator expression string could not be parsed."""
