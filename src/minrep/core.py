"""Minimal models and canonical Kac labels, with exact weight arithmetic.

The Virasoro minimal models form a family V(p, q) indexed by coprime
integers p, q >= 2.  The model is determined by its central charge

    c = 1 - 6 (p - q)^2 / (p q),

which is symmetric in p and q, so we store the odd member first (a coprime
pair has at most one even member).  The irreducible modules L_{m,n} carry
Kac labels (m, n) with 1 <= m <= p-1 and 1 <= n <= q-1, identified in pairs
via L_{m,n} = L_{p-m,q-n}.  Exactly one representative in each pair has odd
m (p being odd); that one is the canonical label.  Conformal weights are

    h_{m,n} = ((n p - m q)^2 - (p - q)^2) / (4 p q).

Labels with both m and n odd are the "acting" labels: only these support a
self-coupled intertwining action, and all representation data downstream is
defined for them.  Canonical labels with even n (these occur, e.g. (1, 2)
for (p, q) = (3, 4)) are genuine modules but carry no such action.

Everything here is an immutable value and every function is pure; all
arithmetic is exact over fractions.Fraction.  The records of the package
are named tuples: cheap to build, ordered field by field, and equal to
any tuple with the same fields.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import NoOddRepresentative, NotAnInteger, NotCoprime, OutOfRange

#: largest p or q: the congruence criteria factorize both by trial division,
#: which stays within a fraction of a second up to here
MAX_INDEX = 10 ** 6


class MinimalModel(NamedTuple):
    """A validated coprime pair (p, q) with p odd, p >= 3, q >= 2."""

    p: int
    q: int


class ModuleLabel(NamedTuple):
    """Canonical Kac label: the representative with odd m."""

    m: int
    n: int

    @property
    def is_acting(self):
        """True when m and n are both odd, i.e. the label supports a
        self-coupled intertwining action."""
        return self.m % 2 == 1 and self.n % 2 == 1


def validate_model(p, q):
    """Build a MinimalModel from integers 2 <= p, q <= MAX_INDEX.

    The pair is swapped if needed so that the stored p is odd; this loses
    nothing since the central charge is symmetric.  Raises NotAnInteger,
    OutOfRange or NotCoprime on bad input.
    """
    _check_int(p, q)
    if not (2 <= p <= MAX_INDEX and 2 <= q <= MAX_INDEX):
        raise OutOfRange("minimal model indices must satisfy 2 <= p, q <= MAX_INDEX = %s, "
                         "got (%s, %s)" % (MAX_INDEX, p, q))
    if gcd(p, q) != 1:
        raise NotCoprime("(%s, %s) have common factor %s" % (p, q, gcd(p, q)))
    if p % 2 == 0:
        p, q = q, p
    return MinimalModel(p, q)


def central_charge(model):
    """Central charge 1 - 6 (p-q)^2 / (pq) as an exact rational."""
    p, q = model.p, model.q
    return 1 - Fraction(6 * (p - q) ** 2, p * q)


def conformal_weight(model, m, n):
    """Conformal weight h_{m,n} = ((np - mq)^2 - (p-q)^2) / (4pq)."""
    p, q = model.p, model.q
    _check_label_range(model, m, n)
    return Fraction((n * p - m * q) ** 2 - (p - q) ** 2, 4 * p * q)


def canonical_label(model, m, n):
    """Canonical representative of (m, n) under (m, n) ~ (p-m, q-n).

    Returns the representative with odd m.  Exactly one of m, p-m is odd
    because p is odd, so the result is well defined.
    """
    p, q = model.p, model.q
    _check_label_range(model, m, n)
    if m % 2 == 1:
        return ModuleLabel(m, n)
    if (p - m) % 2 == 1:
        return ModuleLabel(p - m, q - n)
    raise NoOddRepresentative("no odd-m representative for (%s, %s)" % (m, n))


def models(p_max, q_max):
    """All minimal models (p odd, q) with p <= p_max, q <= q_max, sorted.

    q = p never occurs: p >= 3 is then a common factor.
    """
    for p in range(3, p_max + 1, 2):
        for q in range(2, q_max + 1):
            if gcd(p, q) == 1:
                yield MinimalModel(p, q)


def list_modules(model):
    """All (p-1)(q-1)/2 canonical labels, sorted by (m, n).

    One label per identification class; the acting ones among them are
    those with odd n as well (filter on ModuleLabel.is_acting).
    """
    p, q = model.p, model.q
    labels = [ModuleLabel(m, n) for m in range(1, p, 2) for n in range(1, q)]
    if len(labels) != (p - 1) * (q - 1) // 2:
        raise AssertionError("(%s, %s) has %d canonical labels, not (p - 1)(q - 1)/2"
                             % (p, q, len(labels)))
    return labels


def _check_int(*values):
    # bool is an int subclass and float indices compare fine, so test the type
    for v in values:
        if type(v) is not int:
            raise NotAnInteger("indices must be int, got %r of type %s"
                               % (v, type(v).__name__))


def _check_label_range(model, m, n):
    _check_int(m, n)
    if not (1 <= m <= model.p - 1 and 1 <= n <= model.q - 1):
        raise OutOfRange(
            "Kac label (%s, %s) out of range for (p, q) = (%s, %s)" % (m, n, model.p, model.q)
        )
