"""Exponent profiles of the modular group representation of an acting label.

For an acting label (m, n) the 1-point functions of the s = (p-m)(q-n)/2
self-coupled partners (m_j, n_j) span a representation rho_{m,n} of SL2(Z).
The j-th component has leading q-exponent

    lambda_j = h_{m_j,n_j} - c/24 = (n_j p - m_j q)^2 / (4 p q) - 1/24,

and with the multiplier normalisation fixed so that eta^{2k} has trivial
multiplier-free transformation, rho_{m,n}(T) is diagonal with entries
e^{2 pi i r_j} where

    r_j = lambda_j - h_{m,n} / 12
        = (12 (n_j p - m_j q)^2 - (n p - m q)^2 + (p - q)^2 - 2 p q) / (48 p q).

The profile stores each exponent once, as an integer numerator over
M = 48 p q, together with the weight numerator of the label:

    y_j = 12 a_j^2 - 2 p q                          (lambda_j = y_j / M),
    h_num = (n p - m q)^2 - (p - q)^2               (h_{m,n} = 12 h_num / M),

with a_j = n_j p - m_j q.  The numerator of r_j is x_j = y_j - h_num
(r_j = x_j / M), derived where it is read; the Fraction tuples are
derived on demand.  Along a row of the partner box a_j steps by p, so y
is built from the box's two ranges without listing the partners.

Every acting label satisfies the identity

    h_{m,n} = 12 (sum_j lambda_j) / s + 1 - s,

the weight count of the Wronskian of its 1-point functions (Mason, IJNT
2007): the generating vector sits in the minimal weight of its cyclic
module.  On a partner box one wide (m = p - 2 or n = q - 1) the exponents
admit closed forms in (p, q, s, j); every label with s = 1 or prime has
one of these two shapes.  A sufficient irreducibility test: rho is
irreducible if no proper nonempty subset of the r_j sums to an element of
(1/12) Z, since any subrepresentation would contribute its determinant, a
character of SL2(Z), and all such characters take twelfth roots of unity
on T.
"""

from fractions import Fraction
from typing import NamedTuple

from .core import central_charge
from .errors import NotPrimeCase, OutOfScopeDimension, SubsetBlowup
from .fusion import rep_dimension, self_coupled_partners

IRREDUCIBLE = "irreducible"
INCONCLUSIVE = "inconclusive"

#: dimension cap for the subset enumeration in irreducibility_certificate
SUBSET_CAP = 20


class RepProfile(NamedTuple):
    """Full exponent data of rho_{m,n}, as integer numerators over big.

    box is the label's fusion.PartnerBox, two ranges that iterate as the
    partners, so the profile holds no per-partner pairs.  big = 48 p q;
    lam[j] = y[j] / big is the leading exponent of the j-th 1-point
    function, in the lexicographic partner order, row by row through the
    box.  h_num = (n p - m q)^2 - (p - q)^2 is the numerator of the
    label's weight h = h_num / (4 p q), so r[j] = (y[j] - h_num) / big,
    the exponent of the j-th diagonal entry of rho(T), is lam[j] - h/12.
    The Fraction views lam, r, h and c are computed on each access, not
    cached.
    """

    model: object
    label: object
    s: int
    box: object
    big: int
    y: tuple
    h_num: int

    @property
    def lam(self):
        return tuple(Fraction(v, self.big) for v in self.y)

    @property
    def r(self):
        return tuple(Fraction(v - self.h_num, self.big) for v in self.y)

    @property
    def h(self):
        return Fraction(self.h_num, self.big // 12)

    @property
    def c(self):
        return central_charge(self.model)


def rep_profile(model, label):
    """Compute the exponent profile of the acting label.

    In row m_j of the box, a_j = n_j p - m_j q runs over an arithmetic
    progression of step p, so y_j = 12 a_j^2 - 2pq is read off a range
    and no partner pair is built.
    """
    box = self_coupled_partners(model, label)
    p, q, m, n = model.p, model.q, label.m, label.n
    two_pq = 2 * p * q
    lo, hi = box.cols.start * p, box.cols.stop * p
    y = tuple([12 * a * a - two_pq
               for mj in box.rows for a in range(lo - mj * q, hi - mj * q, p)])
    return RepProfile(model, label, len(y), box, 48 * p * q, y,
                      (n * p - m * q) ** 2 - (p - q) ** 2)


def prime_case_closed_forms(model, label):
    """Closed-form exponent numerators on a partner box one wide.

    Returns (case, y, x) with case one of "coincident" (s = 1), "i"
    (m = p-2, n = q-s) or "ii" (m = p-2s, n = q-1), and y, x the integer
    numerators of (lambda_j) and (r_j) over big = 48 p q: y as RepProfile
    stores it and x = y - h_num as RepProfile derives it.
    The j index runs 1..s and coincides with the lexicographic partner
    order, so the tuples match rep_profile entrywise.  The forms are
    polynomial in (p, q, s, j) and hold for every s on these two shapes;
    any other label raises NotPrimeCase.
    """
    p, q = model.p, model.q
    m, n = label.m, label.n
    s = rep_dimension(model, label)
    js = range(1, s + 1)
    if m == p - 2 and n == q - s:
        case = "coincident" if s == 1 else "i"
        y = tuple(3 * (1 + s - 2 * j) ** 2 * p * p + 2 * (2 + 3 * s - 6 * j) * p * q
                  + 3 * q * q for j in js)
        x = tuple(p * ((3 * (2 * j - s - 1) ** 2 + 1 - s * s) * p
                       + 2 * (1 + 5 * s - 6 * j) * q) for j in js)
    elif m == p - 2 * s and n == q - 1:
        case = "coincident" if s == 1 else "ii"
        y = tuple(q * (3 * (1 - 2 * j) ** 2 * q - 2 * p) for j in js)
        x = tuple(q * ((3 * (1 - 2 * j) ** 2 + 1 - 4 * s * s) * q + 4 * (s - 1) * p)
                  for j in js)
    else:
        raise NotPrimeCase(
            "label (%s, %s) has no one-wide partner box" % (m, n)
        )
    return case, y, x


def minimal_weight_identity(profile):
    """Whether h_{m,n} = 12 (sum lambda_j)/s + 1 - s holds exactly.

    It holds for every s (the Wronskian weight count in the module
    docstring), so False flags a bug in the exponents y or in the weight
    numerator h_num.
    """
    s, big = profile.s, profile.big
    # the identity times s * big, with h = 12 h_num / big and
    # lambda_j = y_j / big
    return 12 * profile.h_num * s == 12 * sum(profile.y) + (1 - s) * s * big


def irreducibility_certificate(profile):
    """Sufficient irreducibility test over the eigenvalues of rho(T).

    Returns "irreducible" when no proper nonempty subset S of the r_j has
    12 * sum(S) integral, "inconclusive" otherwise (the criterion is
    sufficient, not necessary).  Since 12 r_j = x_j / D with D = 4 p q and
    x_j = y_j - h_num, a subset qualifies when its x_j sum to 0 mod D; the
    residues are taken off y and h_num, with no x tuple built.  The search
    is Bellman's subset-sum DP on Z/DZ over the residues of the nonempty
    subsets of x_1..x_{s-1}, adding one element per step.  A proper subset
    containing x_s qualifies exactly when its complement, a nonempty
    subset of x_1..x_{s-1}, sums to sum(x) = sum(y) - s h_num mod D; so
    the answer is "inconclusive" iff the reached residues include 0 or
    that sum.

    There are at most min(2^(s-1), D) such residues, and the store follows
    the smaller bound: a D-bit integer, rotated once per element, when
    D <= 2^s, and a set of residues otherwise, so time and memory never
    grow with D beyond 2^s.  Dimensions above SUBSET_CAP raise SubsetBlowup.
    """
    s = profile.s
    if s > SUBSET_CAP:
        raise SubsetBlowup("dimension %s exceeds the subset cap %s" % (s, SUBSET_CAP))
    d, y, h_num = profile.big // 12, profile.y, profile.h_num
    xs = [(v - h_num) % d for v in y[:-1]]
    target = (sum(y) - s * h_num) % d
    if d > 1 << s:
        reach = set()
        for v in xs:
            reach |= {(r + v) % d for r in reach}
            reach.add(v)
        hit = 0 in reach or target in reach
    else:
        mask = (1 << d) - 1
        reach = 0
        for v in xs:
            reach |= ((reach << v) | (reach >> (d - v))) & mask | (1 << v)
        hit = reach & 1 or reach >> target & 1
    return INCONCLUSIVE if hit else IRREDUCIBLE


class MinimalWeightProfile(NamedTuple):
    """Reduced exponents alpha_j in [0, 1) and the minimal weight k0.

    alpha_j is the fractional part of lambda_j (equivalently the class of
    r_j + h/12 mod 1) and k0 = 12 (sum alpha_j)/s + 1 - s is the smallest
    weight carrying a nonzero holomorphic vector-valued modular form for
    the representation, valid for irreducible rho of dimension at most 3.
    """

    alpha: tuple
    k0: Fraction


def minimal_weight_profile(profile):
    """Reduced exponents and minimal holomorphic weight, for s <= 3.

    The minimal weight formula is proven for irreducible representations
    of dimension less than four (Mason, IJNT 2007).  Larger s raises
    OutOfScopeDimension.  Irreducibility needs no check: every s <= 3
    label is certified "irreducible".  With D = 4 p q the certificate is
    "inconclusive" exactly when a nonempty subset of x_1..x_{s-1} sums to
    0 or to sum(x) mod D, and on the five shapes prime_case_closed_forms
    gives, mod D:
    - s = 1: there is no proper nonempty subset;
    - (p-2, q-2): 12 r = (5/2, -1/2), and neither is an integer;
    - (p-4, q-1), p >= 5: x = (-12 q^2, 12 q^2), and D | 12 q^2 only if
      p | 3;
    - (p-2, q-3), q >= 4 even: x = (4 p^2, -8 p^2, 4 p^2) with sum 0; the
      subset sums 4 p^2, -8 p^2 and -4 p^2 vanish only if q | p or q | 2p;
    - (p-6, q-1), p >= 7: x = (-32 q^2, -8 q^2, 40 q^2) with sum 0; the
      subset sums vanish only if the odd p divides 32, 8 or 40.
    """
    if profile.s > 3:
        raise OutOfScopeDimension(
            "minimal weight data is restricted to dimension <= 3, got %s" % profile.s
        )
    s, big = profile.s, profile.big
    # alpha_j = (y_j mod big) / big is the fractional part of lambda_j, and
    # k0 = 12 (sum alpha_j)/s + 1 - s over the common denominator s big
    nums = [v % big for v in profile.y]
    alpha = tuple(Fraction(v, big) for v in nums)
    return MinimalWeightProfile(alpha, Fraction(12 * sum(nums) + (1 - s) * s * big, s * big))
