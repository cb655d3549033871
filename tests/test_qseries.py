"""Exact q-expansions, Eisenstein series, eta powers, the operator ring."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from minrep import (DEFAULT_ORDER, ModularForm, ModularOperator, QSeries,
                    apply_operator, bernoulli, eisenstein, eta_power,
                    modular_derivative, qseries, selftest)
from minrep.errors import (ExponentMismatch, InhomogeneousOperator, NotAnInteger,
                           OddWeight, OutOfRange, WeightMismatch)

from oracles import euler_product, integer_product, series_product

F = Fraction


def test_bernoulli_values():
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)
    assert bernoulli(8) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)
    with pytest.raises(OddWeight):
        bernoulli(3)
    with pytest.raises(OddWeight):
        bernoulli(0)


def test_eisenstein_leading_coefficients():
    g2 = eisenstein(2)
    g4 = eisenstein(4)
    g6 = eisenstein(6)
    assert g2.series.coefficient(0) == F(-1, 12)
    assert g2.series.coefficient(1) == 2
    assert g4.series.coefficient(0) == F(1, 720)
    assert g4.series.coefficient(1) == F(1, 3)
    assert g4.series.coefficient(2) == F(1, 3) * 9      # sigma_3(2) = 9
    assert g6.series.coefficient(0) == F(-1, 30240)
    assert g6.series.coefficient(1) == F(1, 60)
    with pytest.raises(OddWeight):
        eisenstein(3)


def test_eta_expansion():
    eta = eta_power(1, 20)
    assert eta.weight == F(1, 2)
    assert eta.series.offset == F(1, 24)
    # pentagonal numbers: 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for j in range(16):
        assert eta.series.coeffs[j] == expected.get(j, 0)
    # and far past q^15, against the product multiplied out
    assert eta_power(1, 300).series.nums == tuple(euler_product(300))


def test_eta_24_is_discriminant_shape():
    d = eta_power(24, 6)
    assert d.weight == 12
    assert d.series.offset == 1
    assert d.series.coeffs[:4] == (F(1), F(-24), F(252), F(-1472))


def test_series_power_matches_repeated_products_with_fewest_products(monkeypatch):
    # series**w equals w - 1 products of the series with itself, and costs
    # bit_length(w) - 1 squarings and popcount(w) - 1 further products, none
    # of them with the series 1
    products = []
    plain_mul = QSeries.__mul__

    def counted(a, b):
        if isinstance(b, QSeries):
            products.append(1)
        return plain_mul(a, b)

    for base in (eta_power(1, 12).series, eisenstein(4, 12).series,
                 QSeries(F(-1, 3), [F(2, 5), 0, -3, F(1, 7)])):
        expected = QSeries(0, [1] + [0] * base.order)
        for w in range(31):
            products.clear()
            monkeypatch.setattr(QSeries, "__mul__", counted)
            power = qseries._pow_series(base, w)
            monkeypatch.setattr(QSeries, "__mul__", plain_mul)
            assert len(products) == (w.bit_length() + bin(w).count("1") - 2 if w else 0)
            assert power == expected and power.order == expected.order, w
            assert (power.offset, power.den, power.nums) == (
                expected.offset, expected.den, expected.nums), w
            expected = expected * base
    monkeypatch.setattr(QSeries, "__mul__", counted)
    for w, count in ((1, 0), (2, 1), (24, 5)):
        products.clear()
        eta_power(w, 40)
        assert len(products) == count, w


def test_eta_leading_exponent():
    for w in (1, 5, 24, 30):
        assert eta_power(w, 8).series.offset == F(w, 24)
    with pytest.raises(OutOfRange):
        eta_power(0)
    # a negative truncation order is refused; order 0 is allowed
    for bad in (lambda: eta_power(2, -3), lambda: eisenstein(4, -1),
                lambda: ModularOperator.derivative(-2)):
        with pytest.raises(OutOfRange):
            bad()
    assert eta_power(2, 0).series.order == eisenstein(4, 0).series.order == 0
    assert ModularOperator.derivative(0).coeffs[1].series.order == 0


def test_modular_derivative_annihilates_eta_powers():
    for w in range(1, 25):
        eta = eta_power(w, DEFAULT_ORDER)
        assert modular_derivative(eta.weight, eta.series).is_zero()


def test_ramanujan_style_identities():
    g4 = eisenstein(4)
    g6 = eisenstein(6)
    assert (modular_derivative(4, g4.series) - g6.series * 14).is_zero()
    assert (modular_derivative(6, g6.series) - g4.series * g4.series * F(60, 7)).is_zero()


def test_theta_alone_on_constants():
    one = QSeries(0, (1, 0, 0, 0))
    # in weight 0 the quasi-modular correction drops out
    assert modular_derivative(0, one).is_zero()


def test_qseries_normalisation_and_coefficient():
    s = QSeries(F(1, 3), (0, 0, 2, 5))
    assert s.offset == F(7, 3)
    assert s.coeffs == (F(2), F(5))
    assert s.coefficient(F(7, 3)) == 2
    assert s.coefficient(F(10, 3)) == 5
    assert s.coefficient(0) == 0          # below the window: exactly zero
    assert s.coefficient(F(-2, 3)) == 0   # the same, on the lattice
    assert s.coefficient(F(1, 2)) == 0    # off the lattice: exactly zero
    with pytest.raises(OutOfRange):
        s.coefficient(F(13, 3))
    with pytest.raises(OutOfRange):
        QSeries(0, [])


def test_qseries_add_alignment():
    a = QSeries(F(1, 2), (1, 1))
    b = QSeries(F(5, 2), (3,))
    assert (a + b).coeffs == (F(1), F(1))      # b starts beyond a's window
    c = QSeries(F(3, 2), (4, 4))
    assert (a + c).coeffs == (F(1), F(5))
    with pytest.raises(ExponentMismatch):
        a + QSeries(F(1, 3), (1,))
    zero = QSeries(0, (0, 0))
    assert (a + zero) == a
    # a zero series on another lattice adds nothing, on either side
    assert zero + a == a


def test_qseries_add_zero_keeps_the_shorter_window():
    # a zero summand on the same lattice is known only through its window,
    # so it truncates the sum like any other summand
    a = QSeries(0, [1])
    b = QSeries(0, [1, 1])
    c = QSeries(0, [-1, 0])
    assert (a * (b + c) - (a * b + a * c)).is_zero()
    x = QSeries(0, (1, 2, 3, 4))
    zero = QSeries(0, (0, 0))
    for total in (x + zero, zero + x):
        assert total.coeffs == (F(1), F(2))
    assert (QSeries(3, (5,)) + zero).is_zero()
    # a scalar is exact, also against a window that starts above q^0
    assert (QSeries(2, (1, 1)) + 0).coeffs == (F(1), F(1))
    assert (QSeries(2, (1, 1)) + 3).coeffs == (F(3), F(0), F(1), F(1))


def test_qseries_serialize():
    s = QSeries(F(1, 24), (1, -1, -1))
    assert s.serialize() == "q^(1/24) * [1, -1, -1]"
    z = QSeries(F(1, 3), (0, 0))
    assert z.serialize() == "q^(0/1) * [0, 0]"


def test_derivative_weight_escalation():
    g4 = eisenstein(4)
    d1 = g4.derivative()
    assert d1.weight == 6
    assert d1.series == g6_times_14().series


def g6_times_14():
    g6 = eisenstein(6)
    return ModularForm(Fraction(6), g6.series * 14)


def test_weight_mismatch_raises():
    with pytest.raises(WeightMismatch):
        eisenstein(4) + eisenstein(6)


def test_operator_homogeneity():
    g4 = eisenstein(4)
    g6 = eisenstein(6)
    # G6 + G4 D is homogeneous (raise 6); G4 + G4 D is not
    op = ModularOperator((g6, g4))
    assert op.weight_raise == 6
    zero = ModularOperator(())
    assert zero.weight_raise is None
    with pytest.raises(InhomogeneousOperator):
        ModularOperator((g4, g4))
    with pytest.raises(InhomogeneousOperator):
        ModularOperator((g4,)) + ModularOperator((g6,))
    # disjoint slots with different raises (4 and 6) are still rejected
    with pytest.raises(InhomogeneousOperator):
        ModularOperator((g4,)) + ModularOperator((None, g4))
    # the zero map adds as an identity on either side, and composes to
    # the zero map on either side
    for total in (zero + op, op + zero):
        assert total.coeffs == op.coeffs
        assert total.weight_raise == op.weight_raise
    for composed in (zero.compose(op), op.compose(zero)):
        assert composed.coeffs == ()
        assert composed.weight_raise is None
    # trailing empty slots are dropped
    assert ModularOperator((g4, None)).coeffs == (g4,)


def test_operator_compose_leibniz():
    # D after G4 equals G4 D + (D_4 G4) = G4 D + 14 G6
    der = ModularOperator.derivative()
    g4op = ModularOperator((eisenstein(4),))
    composed = der.compose(g4op)
    g6 = eisenstein(6)
    assert len(composed.coeffs) == 2
    assert (composed.coeffs[0].series - g6.series * 14).is_zero()
    assert (composed.coeffs[1].series - eisenstein(4).series).is_zero()


def test_identity_operator():
    ident = ModularOperator((ModularForm(F(0), QSeries(0, [1] + [0] * DEFAULT_ORDER)),))
    g4 = eisenstein(4)
    out = apply_operator(ident, [g4.series], 4)[0]
    assert (out - g4.series).is_zero()
    # 1 is a two-sided identity for composition
    der = ModularOperator.derivative()
    probe = eta_power(2).series
    for composed in (ident.compose(der), der.compose(ident)):
        left = apply_operator(composed, [probe], F(1))[0]
        right = apply_operator(der, [probe], F(1))[0]
        assert (left - right).is_zero()


def test_double_derivative_associativity_instance():
    der = ModularOperator.derivative()
    g4op = ModularOperator((eisenstein(4),))
    probe = eta_power(2).series
    lhs = der.compose(der).compose(g4op)
    rhs = der.compose(der.compose(g4op))
    out_l = apply_operator(lhs, [probe], F(1))[0]
    out_r = apply_operator(rhs, [probe], F(1))[0]
    assert (out_l - out_r).is_zero()


def test_apply_weight_checks():
    der = ModularOperator.derivative()
    out = apply_operator(der, [eisenstein(4).series], 4)[0]
    assert (out - eisenstein(6).series * 14).is_zero()


def test_apply_on_vectors():
    g4 = eisenstein(4)
    comps = [eta_power(8).series, eta_power(8).series * 3]
    out = apply_operator(ModularOperator((g4,)), comps, 4)
    assert (out[0] * 3 - out[1]).is_zero()


def _operator_pool(order=24):
    one = ModularForm(F(0), QSeries(0, (1,) + (0,) * order))
    g4 = eisenstein(4, order)
    g6 = eisenstein(6, order)
    g4sq = g4 * g4
    by_weight = {0: one, 4: g4, 6: g6, 8: g4sq}
    ops = []
    # all homogeneous operators sum phi_i D^i, degree <= 3, with every slot
    # coefficient drawn from {1, G4, G6, G4^2} at the weight the raise forces
    for raise_to in (0, 4, 6, 8, 10, 12):
        for degree in range(4):
            slots = []
            for i in range(degree + 1):
                want = raise_to - 2 * i
                slots.append(by_weight.get(want))
            if slots[-1] is None:
                continue
            ops.append(ModularOperator(slots))
    return ops


def test_operator_composition_associative_on_pool():
    probe = eta_power(2, 24)
    pool = _operator_pool()
    import random
    rng = random.Random(20240811)
    for _ in range(40):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        lhs = a.compose(b).compose(c)
        rhs = a.compose(b.compose(c))
        assert len(lhs.coeffs) - 1 == sum(len(x.coeffs) - 1 for x in (a, b, c))
        out_l = apply_operator(lhs, [probe.series], probe.weight)[0]
        out_r = apply_operator(rhs, [probe.series], probe.weight)[0]
        assert (out_l - out_r).is_zero()


def test_compose_apply_consistency_and_associativity():
    der = ModularOperator.derivative()
    g4op = ModularOperator((eisenstein(4),))
    probe = eta_power(2)
    for a, b in [(der, g4op), (g4op, der), (der, der)]:
        together = apply_operator(a.compose(b), [probe.series], probe.weight)[0]
        stepwise = apply_operator(
            a, apply_operator(b, [probe.series], probe.weight),
            probe.weight + b.weight_raise)[0]
        assert (together - stepwise).is_zero()
    lhs = der.compose(g4op).compose(der)
    rhs = der.compose(g4op.compose(der))
    applied_l = apply_operator(lhs, [probe.series], probe.weight)[0]
    applied_r = apply_operator(rhs, [probe.series], probe.weight)[0]
    assert (applied_l - applied_r).is_zero()


_small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _series(draw, offset=None):
    coeffs = draw(st.lists(_small_fracs, min_size=1, max_size=6))
    if offset is None:
        offset = draw(st.fractions(min_value=-2, max_value=2, max_denominator=12))
    return QSeries(offset, coeffs)


@given(_series(offset=F(0)), _series(offset=F(0)))
@settings(max_examples=60)
def test_multiplication_commutes(a, b):
    assert (a * b - b * a).is_zero()


@given(_series(offset=F(0)), _series(offset=F(0)), _series(offset=F(0)))
@settings(max_examples=60)
def test_multiplication_distributes(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert (lhs - rhs).is_zero()


# mixed denominators, negative entries and zeros; a leading zero shifts the
# window, and an all-zero list gives a zero operand
_window = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=30)),
    min_size=1, max_size=9)
_offsets = st.fractions(min_value=-3, max_value=3, max_denominator=24)


@given(_offsets, _window, _offsets, _window)
@example(F(1, 3), [F(0), F(0), F(0)], F(-1, 2), [F(1, 2), F(0), F(-2, 3), F(5, 7)])
@settings(max_examples=200)
def test_multiplication_matches_schoolbook_oracle(off_a, coeffs_a, off_b, coeffs_b):
    a, b = QSeries(off_a, coeffs_a), QSeries(off_b, coeffs_b)
    # QSeries drops leading zeros into the offset, so the oracle sees the
    # stored windows, whose lengths may differ
    want = QSeries(*series_product(a.offset, a.coeffs, b.offset, b.coeffs))
    got = a * b
    # == treats every zero series as equal, so compare the windows themselves
    assert (got.offset, got.coeffs) == (want.offset, want.coeffs)


@given(_series())
@settings(max_examples=60)
def test_leading_coefficient_normalised(s):
    assert s.is_zero() or s.coeffs[0] != 0


# integers up to 2^256 in size, zeros among them, and all-zero lists
_big_ints = st.one_of(st.just(0), st.integers(-2 ** 256, 2 ** 256),
                      st.integers(-300, 300))
_int_window = st.one_of(st.lists(_big_ints, min_size=1, max_size=64),
                        st.lists(st.just(0), min_size=1, max_size=64))


@given(_int_window, _int_window)
@example([-2 ** 256] * 64, [2 ** 256] * 64)
@example([-128, 127, -1], [1, -1])
@example([0, 0, 0], [5, 6, 7])
@settings(max_examples=300)
def test_kronecker_product_matches_the_schoolbook_oracle(xs, ys):
    assert qseries._convolve(xs, ys) == integer_product(xs, ys)
    # a square takes the path that packs one operand
    assert qseries._convolve(xs, xs) == integer_product(xs, xs)


def _assert_canonical(s):
    assert s.den > 0
    assert gcd(s.den, *s.nums) == 1
    assert s.nums[0] != 0 or not any(s.nums)


@given(_offsets, _window, _offsets, _window)
@settings(max_examples=150)
def test_canonical_form_on_every_route(off_a, coeffs_a, off_b, coeffs_b):
    a, b = QSeries(off_a, coeffs_a), QSeries(off_b, coeffs_b)
    same_lattice = QSeries(off_a + 1, coeffs_b)
    results = [a, b, a * b, a * F(-3, 4), a * 0, -a, a + same_lattice, a - a,
               a.q_derivative(), modular_derivative(F(5, 2), a)]
    for s in results:
        _assert_canonical(s)
    # one series by four routes: the constructor on scaled coefficients,
    # a product with 1, a sum with a zero of the same window and a doubling
    twice = QSeries(off_a, [c * 2 for c in coeffs_a]) * F(1, 2)
    one = QSeries(0, [1] + [0] * a.order)
    zero = QSeries(a.offset, [0] * (a.order + 1))
    for other in (twice, a * one, a + zero, (a + a) * F(1, 2)):
        assert other == a
        assert hash(other) == hash(a)
        assert (other.offset, other.den, other.nums) == (a.offset, a.den, a.nums)


def test_zero_series_are_equal_across_offsets_and_windows():
    zeros = [QSeries(0, [0]), QSeries(F(1, 3), [0, 0]), QSeries(5, [F(0)] * 7),
             QSeries(F(1, 2), [1, 2]) * 0]
    for z in zeros:
        _assert_canonical(z)
        assert z.is_zero() and z.den == 1
        assert z == zeros[0] and hash(z) == hash(zeros[0])
    assert QSeries(0, [0, 1]) != QSeries(0, [0])


@pytest.mark.parametrize("offset, coeffs", [
    (0, [0.1]), (0, [1, 0.5]), (0.5, [1]), (0, [True]), (True, [1]),
    (0, ["1"]), ("1/2", [1]), (0, [Decimal(1)]), (Decimal("0.5"), [1]),
])
def test_qseries_refuses_non_exact_inputs(offset, coeffs):
    # a float would enter as its binary expansion and, under one shared
    # denominator, scale every numerator by a power of two
    with pytest.raises(NotAnInteger):
        QSeries(offset, coeffs)


def test_selftest_operator_checks_compare_nonzero_series(monkeypatch):
    # a probe the derivative kills (eta^2 in weight 1) turns the (G4, D) and
    # (D, D) compose/apply checks into 0 == 0
    results = []

    def record(op, components, weight):
        out = apply_operator(op, components, weight)
        results.extend(out)
        return out

    monkeypatch.setattr(qseries, "apply_operator", record)
    suite = selftest.suite_qseries()
    assert suite.ok
    assert len(results) == 9
    assert not any(series.is_zero() for series in results)


def test_series_and_forms_take_scalars_on_the_right_only():
    s = QSeries(0, (1, 2))
    g4 = eisenstein(4, 4)
    assert (s * 3).coeffs == (F(3), F(6))
    # a scalar stands on the right and, as in the constructor, is an int or
    # a Fraction
    for bad in (lambda: 3 * s, lambda: 3 + s, lambda: sum([s, s]), lambda: 3 * g4,
                lambda: s * 0.5, lambda: s * True, lambda: s + True, lambda: s + Decimal(1),
                lambda: modular_derivative(0.1, eta_power(1, 3).series),
                lambda: modular_derivative(True, s),
                lambda: apply_operator(ModularOperator.derivative(3), [s], 0.1),
                lambda: apply_operator(ModularOperator.derivative(3), [s], False)):
        with pytest.raises(TypeError):
            bad()


def test_operators_agree_truth_table():
    agree = selftest._operators_agree
    g4, g6 = eisenstein(4), eisenstein(6)
    zero6 = ModularForm(F(6), QSeries(0, (0,) * 5))
    g4_as_weight_6 = ModularForm(F(6), g4.series)
    cases = [
        # an empty slot agrees with a zero form in the same slot
        (ModularOperator((None, g4)), ModularOperator((zero6, g4)), True),
        (ModularOperator((zero6, g4)), ModularOperator((None, g4)), True),
        (ModularOperator((g6, g4)), ModularOperator((g6, g4)), True),
        (ModularOperator(()), ModularOperator(()), True),
        # one differing slot
        (ModularOperator((g6, g4)), ModularOperator((g6 * 2, g4)), False),
        (ModularOperator((g6, g4)), ModularOperator((None, g4)), False),
        # different lengths
        (ModularOperator((g6,)), ModularOperator((g6, g4)), False),
        # different raises, although the series are equal
        (ModularOperator((g4,)), ModularOperator((g4_as_weight_6,)), False),
    ]
    for a, b, want in cases:
        assert agree(a, b) is want
        assert agree(b, a) is want
