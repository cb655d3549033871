"""Comparison of 1-point function spaces with holomorphic vector-valued forms.

The 1-point functions of an acting label generate a cyclic module V(rho)
over the ring of modular differential operators, graded from the weight of
the generating vector.  Its relation to the space H(rho) of holomorphic
vector-valued modular forms is read off the leading exponents lambda_j:

  * some lambda_j < 0: the generator is not holomorphic at the cusp;
  * all lambda_j in [0, 1) (s <= 3): V(rho) = H(rho);
  * all lambda_j >= 0 with some lambda_j >= 1 (s <= 3): V(rho) is properly
    contained in H(rho).

For s > 3 only the window facts are reported; the equality criterion is
proven only below dimension four.

For the four classified low-dimension shapes the all-in-[0,1) condition is
equivalent to membership of the ratio q/p in explicit intervals whose
endpoints are quadratic irrationalities:

  dimension 1, (p-2, q-1):   2/3 <= q/p < 50/3
  dimension 2, (p-2, q-2):   (22-5*sqrt19)/3 <= q/p < (4-sqrt7)/3
                             or (4+sqrt7)/3 <= q/p < (22+5*sqrt19)/3
  dimension 2, (p-4, q-1):   2/3 <= q/p < 50/27
  dimension 3, (p-2, q-3):   2/3 <= q/p < (7-sqrt13)/3
                             or (7+sqrt13)/3 <= q/p < (19+5*sqrt13)/3

Each endpoint is stored as an integer tuple (a, c, d, e) standing for
(a + c*sqrt(d))/e, and membership of q/p is decided by the sign of
e*q - a*p - c*p*sqrt(d), an integer comparison of squares; no floating
point is involved.  The fifth shape (p-6, q-1) admits no window at all
(its tuple of windows is empty): lambda_1 < 1 forces q/p >= 2/3 while
lambda_3 < 1 forces q/p < 2/3.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import NotAnInteger, NotLowDimCase
# irreducibility_certificate stays bound here so that call-site wrappers of
# spaces.irreducibility_certificate resolve
from .repdata import irreducibility_certificate, rep_profile

EQUAL = "equal"
PROPER_CONTAINMENT = "proper-containment"
GENERATOR_NOT_HOLOMORPHIC = "generator-not-holomorphic"
WINDOW_FACTS_ONLY = "window-facts-only"

# tags for the classified low-dimension shapes
DIM1 = "d1"
DIM2_I = "d2i"
DIM2_II = "d2ii"
DIM3_I = "d3i"
DIM3_II = "d3ii"

#: every acting label of dimension s <= 3, by tag: (p - m, q - n).  Since
#: s = (p - m)(q - n)/2 with p - m even, these five gaps are all of them.
SHAPES = {
    DIM1: (2, 1),
    DIM2_I: (2, 2),
    DIM2_II: (4, 1),
    DIM3_I: (2, 3),
    DIM3_II: (6, 1),
}
_SHAPE_BY_GAP = {gap: tag for tag, gap in SHAPES.items()}

FLAG_NEGATIVE = "negative"
FLAG_UNIT_INTERVAL = "unit-interval"
FLAG_GE_ONE = "ge-one"


def _surd_sign(t, c, d):
    """Sign of t - c*sqrt(d) for integers t, c, d with c = 0 or d > 0 nonsquare."""
    st = (t > 0) - (t < 0)
    sc = (c > 0) - (c < 0)
    if st != sc:
        return 1 if st > sc else -1
    diff = t * t - c * c * d
    return st * ((diff > 0) - (diff < 0))


#: the windows [lo, hi) of each shape, every end an integer tuple (a, c, d, e)
#: standing for (a + c*sqrt(d))/e with e > 0
_WINDOWS = {
    DIM1: (((2, 0, 0, 3), (50, 0, 0, 3)),),
    DIM2_I: (
        ((22, -5, 19, 3), (4, -1, 7, 3)),
        ((4, 1, 7, 3), (22, 5, 19, 3)),
    ),
    DIM2_II: (((2, 0, 0, 3), (50, 0, 0, 27)),),
    DIM3_I: (
        ((2, 0, 0, 3), (7, -1, 13, 3)),
        ((7, 1, 13, 3), (19, 5, 13, 3)),
    ),
    DIM3_II: (),
}


def ratio_bounds(case):
    """The q/p windows of a shape tag, as pairs (lo, hi) of integer ends
    (a, c, d, e) = (a + c*sqrt(d))/e; empty for DIM3_II."""
    try:
        return _WINDOWS[case]
    except KeyError:
        raise NotLowDimCase("unknown shape tag %r" % (case,)) from None


def ratio_in_window(case, ratio):
    """Exact membership of the rational ratio in the case's windows.

    The ratio must be a plain int or a Fraction; anything else (bool,
    float, str, Decimal) raises NotAnInteger, so that no binary expansion
    decides a window end.  With ratio = num/den, den > 0, the sign of
    ratio - (a + c*sqrt(d))/e is the sign of e*num - a*den - c*den*sqrt(d).
    """
    if type(ratio) not in (int, Fraction):
        raise NotAnInteger("the ratio must be an int or a Fraction, got %r of type %s"
                           % (ratio, type(ratio).__name__))
    num, den = ratio.as_integer_ratio()
    signs = [[_surd_sign(e * num - a * den, c * den, d) for a, c, d, e in window]
             for window in ratio_bounds(case)]
    return any(lo >= 0 and hi < 0 for lo, hi in signs)


def low_dim_case(model, label):
    """Shape tag of a label among the classified s <= 3 families, or None."""
    return _SHAPE_BY_GAP.get((model.p - label.m, model.q - label.n))


class SpaceComparison(NamedTuple):
    """Verdict on V(rho) versus H(rho) plus the per-component window facts."""

    status: str
    lambda_flags: tuple
    ratio_check: object = None   # bool for the shapes with a window, else None


def space_comparison(profile):
    """Compare V(rho) with H(rho) through the lambda window.

    For s <= 3, where every label is certified irreducible (see
    repdata.minimal_weight_profile), the status is structural: equality,
    proper containment, or a generator that is not holomorphic at the
    cusp.  For s > 3 only window facts are reported.
    """
    big = profile.big
    # lambda = y / big with big > 0
    flags = tuple(FLAG_NEGATIVE if y < 0 else FLAG_UNIT_INTERVAL if y < big else FLAG_GE_ONE
                  for y in profile.y)
    if profile.s > 3:
        status = WINDOW_FACTS_ONLY
    elif FLAG_NEGATIVE in flags:
        status = GENERATOR_NOT_HOLOMORPHIC
    elif all(f == FLAG_UNIT_INTERVAL for f in flags):
        status = EQUAL
    else:
        status = PROPER_CONTAINMENT
    # on a shape with a window, q/p lies in it exactly when the status is
    # EQUAL (ratio_lambda_consistency, which the ratios suite checks)
    has_window = _WINDOWS.get(low_dim_case(profile.model, profile.label))
    return SpaceComparison(status, flags, status == EQUAL if has_window else None)


def ratio_lambda_consistency(model, label):
    """Whether window membership of q/p agrees with all lambda_j in [0, 1).

    Defined for the five classified shapes; the two routes are independent
    (exact sign tests against the closed-form endpoints versus the general
    exponent computation), so True is a theorem and False a bug.  On
    (p-6, q-1), whose window tuple is empty, it holds exactly when some
    lambda_j lies outside [0, 1).
    """
    case = low_dim_case(model, label)
    if case is None:
        raise NotLowDimCase(
            "label (%s, %s) is not one of the classified window shapes" % (label.m, label.n)
        )
    profile = rep_profile(model, label)
    direct = all(0 <= y < profile.big for y in profile.y)
    return direct == ratio_in_window(case, Fraction(model.q, model.p))
