"""Lambda windows, exact surd comparisons and ratio/exponent consistency."""

from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from minrep import (ModuleLabel, low_dim_case, ratio_bounds, ratio_in_window,
                    ratio_lambda_consistency, rep_profile, space_comparison,
                    validate_model)
from minrep import selftest, spaces
from minrep.core import models
from minrep.errors import NotAnInteger, NotLowDimCase
from minrep.spaces import (DIM1, DIM2_I, DIM2_II, DIM3_I, DIM3_II, EQUAL,
                           GENERATOR_NOT_HOLOMORPHIC, PROPER_CONTAINMENT,
                           WINDOW_FACTS_ONLY, _surd_sign)

from oracles import surd_sign


def test_surd_comparison_signs():
    assert _surd_sign(0, 0, 0) == 0
    assert _surd_sign(1, 0, 0) == 1
    assert _surd_sign(-1, 0, 0) == -1
    assert _surd_sign(2, 1, 2) == 1        # 2 > sqrt(2)
    assert _surd_sign(1, 1, 2) == -1       # 1 < sqrt(2)
    assert _surd_sign(-2, -1, 2) == -1     # -2 < -sqrt(2)
    assert _surd_sign(-1, -1, 2) == 1      # -1 > -sqrt(2)
    assert _surd_sign(3, 2, 2) == 1        # 3/2 > sqrt(2)
    assert _surd_sign(7, 5, 2) == -1       # 7/5 < sqrt(2)


_NONSQUARE = st.integers(min_value=2, max_value=10 ** 6).filter(lambda d: isqrt(d) ** 2 != d)


@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6), _NONSQUARE,
       st.sampled_from([None, -1, 0, 1]))
@example(0, 0, 2, None)
@example(0, 5, 19, None)
@example(0, -5, 19, None)
@example(7, 0, 13, None)
@example(-7, 0, 13, None)
@example(-1, -3, 7, 0)
@settings(max_examples=300)
def test_surd_sign_matches_isqrt_oracle(t, c, d, near):
    # near moves t to within one of isqrt(c^2 d), keeping t's sign, where
    # the comparison of squares is tightest
    if near is not None:
        t = (1 if t >= 0 else -1) * (isqrt(c * c * d) + near)
    assert _surd_sign(t, c, d) == surd_sign(t, c, d)
    assert _surd_sign(t, 0, d) == surd_sign(t, 0, d) == (t > 0) - (t < 0)


def _end_sign(end, x):
    # sign of x - (a + c sqrt d)/e, through the integer route of ratio_in_window
    a, c, d, e = end
    return _surd_sign(e * x.numerator - a * x.denominator, c * x.denominator, d)


def test_endpoint_against_known_decimals():
    # (4 - sqrt 7)/3 = 0.4514..., (4 + sqrt 7)/3 = 2.215...
    lo, hi = ratio_bounds(DIM2_I)[0][1], ratio_bounds(DIM2_I)[1][0]
    assert (lo, hi) == ((4, -1, 7, 3), (4, 1, 7, 3))
    assert _end_sign(lo, Fraction(45, 100)) < 0 < _end_sign(lo, Fraction(46, 100))
    assert _end_sign(hi, Fraction(221, 100)) < 0 < _end_sign(hi, Fraction(222, 100))
    # the rational ends: 2/3 and 50/3 (d1), 50/27 (d2ii)
    assert ratio_bounds(DIM1) == (((2, 0, 0, 3), (50, 0, 0, 3)),)
    assert ratio_bounds(DIM2_II)[0][1] == (50, 0, 0, 27)
    assert _end_sign((2, 0, 0, 3), Fraction(2, 3)) == 0
    assert _end_sign((50, 0, 0, 27), Fraction(185, 100)) < 0 < _end_sign(
        (50, 0, 0, 27), Fraction(186, 100))


def test_ratio_bound_examples():
    assert ratio_in_window(DIM1, Fraction(4, 3))
    assert not ratio_in_window(DIM1, Fraction(2, 5))
    assert ratio_in_window(DIM1, Fraction(2, 3))          # closed left end
    assert not ratio_in_window(DIM1, Fraction(50, 3))     # open right end
    assert not ratio_in_window(DIM2_II, Fraction(2, 5))
    assert ratio_in_window(DIM2_II, Fraction(2, 3))
    assert not ratio_in_window(DIM2_II, Fraction(50, 27))
    # (22 - 5 sqrt 19)/3 = 0.0688...; 7/100 is inside, 6/100 is not
    assert ratio_in_window(DIM2_I, Fraction(7, 100))
    assert not ratio_in_window(DIM2_I, Fraction(6, 100))
    assert not ratio_in_window(DIM2_I, Fraction(1))       # inside the gap
    with pytest.raises(NotLowDimCase):
        ratio_bounds("d9")
    assert ratio_bounds(DIM3_II) == ()
    assert not ratio_in_window(DIM3_II, Fraction(2, 3))


def test_ratio_in_window_takes_only_exact_ratios():
    # the float 2/3 lies just below d1's closed left end 2/3, so a float
    # would decide on its binary expansion; it is refused with the rest
    assert ratio_in_window(DIM1, 2)
    assert not ratio_in_window(DIM1, 17)
    for ratio in (2 / 3, "2/3", True, Decimal(2) / 3, Decimal("0.75")):
        with pytest.raises(NotAnInteger):
            ratio_in_window(DIM1, ratio)
    assert issubclass(NotAnInteger, TypeError)


def test_dim3_window_gap():
    # (7 - sqrt 13)/3 = 1.131..., (7 + sqrt 13)/3 = 3.535...
    assert ratio_in_window(DIM3_I, Fraction(9, 8))
    assert not ratio_in_window(DIM3_I, Fraction(7, 6))    # 1.1666 in the gap
    assert not ratio_in_window(DIM3_I, Fraction(4, 3))    # also in the gap
    assert not ratio_in_window(DIM3_I, Fraction(7, 2))    # 3.5 in the gap
    assert ratio_in_window(DIM3_I, Fraction(18, 5))       # 3.6 inside


def test_low_dim_case_tags():
    assert low_dim_case(validate_model(3, 4), ModuleLabel(1, 3)) == DIM1
    assert low_dim_case(validate_model(5, 7), ModuleLabel(3, 5)) == DIM2_I
    assert low_dim_case(validate_model(5, 2), ModuleLabel(1, 1)) == DIM2_II
    assert low_dim_case(validate_model(3, 4), ModuleLabel(1, 1)) == DIM3_I
    assert low_dim_case(validate_model(7, 2), ModuleLabel(1, 1)) == DIM3_II
    assert low_dim_case(validate_model(5, 7), ModuleLabel(1, 3)) is None


def test_space_comparison_examples():
    model = validate_model(3, 4)
    cmp = space_comparison(rep_profile(model, ModuleLabel(1, 3)))
    assert cmp.status == EQUAL
    assert cmp.ratio_check is True

    cmp = space_comparison(rep_profile(validate_model(5, 2), ModuleLabel(3, 1)))
    assert cmp.status == GENERATOR_NOT_HOLOMORPHIC
    assert cmp.lambda_flags == ("negative",)
    assert cmp.ratio_check is False

    # s = 8: only window facts
    cmp = space_comparison(rep_profile(validate_model(5, 7), ModuleLabel(1, 3)))
    assert cmp.status == WINDOW_FACTS_ONLY


def test_space_comparison_proper_containment():
    # (3, 38), label (1, 35): q/p = 12.67 sits above the last window, with
    # lambda_1 > 1 and the others still nonnegative
    profile = rep_profile(validate_model(3, 38), ModuleLabel(1, 35))
    assert all(l >= 0 for l in profile.lam) and any(l >= 1 for l in profile.lam)
    cmp = space_comparison(profile)
    assert cmp.status == PROPER_CONTAINMENT
    assert cmp.ratio_check is False


def test_never_equal_family():
    # the (p-6, q-1) family never has every exponent in [0, 1), so its
    # empty window tuple is consistent with the exponents on every label
    checked = 0
    for p in range(7, 61, 2):
        for q in range(2, 61, 2):
            if gcd(p, q) != 1:
                continue
            model, label = validate_model(p, q), ModuleLabel(p - 6, q - 1)
            profile = rep_profile(model, label)
            assert not all(0 <= l < 1 for l in profile.lam)
            cmp = space_comparison(profile)
            assert cmp.status != EQUAL and cmp.ratio_check is None
            assert ratio_lambda_consistency(model, label), (p, q)
            checked += 1
    assert checked > 300


def test_suite_ratios_fails_on_a_d3ii_profile_inside_the_unit_interval(monkeypatch):
    # a (p-6, q-1) profile with every exponent in [0, 1) would contradict
    # the empty window tuple, and the ratios suite must report it
    real = spaces.rep_profile

    def all_inside(model, label):
        profile = real(model, label)
        if low_dim_case(model, label) == DIM3_II:
            return profile._replace(y=(0,) * profile.s)
        return profile

    monkeypatch.setattr(spaces, "rep_profile", all_inside)
    result = selftest.suite_ratios(20)
    d3ii = sum(1 for model in models(20, 20) if model.p >= 7 and model.q % 2 == 0)
    assert d3ii > 0 and len(result.failures) == d3ii
    assert not result.ok


def test_ratio_lambda_consistency_examples():
    assert ratio_lambda_consistency(validate_model(3, 4), ModuleLabel(1, 3))
    assert ratio_lambda_consistency(validate_model(5, 2), ModuleLabel(3, 1))
    assert ratio_lambda_consistency(validate_model(7, 2), ModuleLabel(1, 1))
    with pytest.raises(NotLowDimCase):
        ratio_lambda_consistency(validate_model(5, 7), ModuleLabel(1, 3))


def test_ratio_lambda_consistency_small_grid():
    for p in range(3, 26, 2):
        for q in range(2, 26):
            if q == p or gcd(p, q) != 1:
                continue
            model = validate_model(p, q)
            for m, n in [(p - 2, q - 1), (p - 2, q - 2), (p - 4, q - 1), (p - 2, q - 3)]:
                if m < 1 or n < 1 or m % 2 == 0 or n % 2 == 0:
                    continue
                assert ratio_lambda_consistency(model, ModuleLabel(m, n)), (p, q, m, n)
