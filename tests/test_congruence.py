"""Levels, the dimension bound, valuation lemmas and verdict aggregation."""

import os
import subprocess
import sys
import textwrap
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import minrep
from minrep import (ModuleLabel, boundary_prime_power_criterion,
                    canonical_label, classify_low_dim, congruence_verdict,
                    distinct_primes_criterion, irreducibility_certificate,
                    level, list_modules,
                    min_congruence_dim, nw_min_dim, prime_power_criterion,
                    rep_profile, validate_model)
from minrep.congruence import (BOUNDARY_PRIME_POWER, CONGRUENCE,
                               DIM2_CONSTANT_REP, DIM2_INFINITE_IMAGE,
                               DIM2_P5, DIM3_DIVISOR_BOUND, DIM3_INFINITE_IMAGE,
                               DIM3_LEVEL_DIVISOR, DIM3_UNDETERMINED,
                               DISTINCT_PRIMES, NONCONGRUENCE,
                               NW_DIMENSION_BOUND, ONE_DIMENSIONAL,
                               PRIME_POWER_BOUND, UNKNOWN, VACUUM,
                               CriterionResult, Level, factorize,
                               fast_level, nu)
from minrep.core import models
from minrep.fusion import rep_dimension
from minrep.qseries import _pow_series, eta_power
from minrep.repdata import SUBSET_CAP, prime_case_closed_forms
from minrep.selftest import suite_lemmas
from minrep.spaces import (DIM1, DIM2_I, DIM2_II, DIM3_I, DIM3_II, SHAPES,
                           low_dim_case, space_comparison)
from minrep.errors import (NonCanonicalLabel, NotAnInteger, NotPrime, OutOfRange,
                           OutOfScopeDimension)

from oracles import fraction_level, valuation_lemma


def _profile(p, q, m, n):
    return rep_profile(validate_model(p, q), ModuleLabel(m, n))


def test_level_examples():
    assert level(_profile(5, 2, 1, 1)).N == 60
    assert level(_profile(7, 2, 3, 1)).N == 84
    assert level(_profile(3, 4, 1, 3)).N == 1


def test_level_divides_48pq():
    for p, q, m, n in [(3, 4, 1, 1), (5, 7, 1, 3), (9, 8, 5, 3), (15, 4, 7, 1)]:
        lv = level(_profile(p, q, m, n))
        assert (48 * p * q) % lv.N == 0


def test_level_matches_fraction_oracle():
    # both the integer routine and level(profile) against the lcm of the
    # Fraction denominators, on every acting label with p, q <= 20; boxes
    # one or two wide (m = p - 2, n = q - 2, ...) are among them
    checked = 0
    for model in models(20, 20):
        p, q = model.p, model.q
        for label in list_modules(model):
            if not label.is_acting:
                continue
            expected = fraction_level(p, q, label.m, label.n)
            assert fast_level(p, q, label.m, label.n) == expected, (p, q, label)
            assert level(rep_profile(model, label)).N == expected, (p, q, label)
            checked += 1
    assert checked > 1000


@st.composite
def _acting_labels(draw):
    # coprime p odd, q <= 120, with m drawn mostly from {p - 2, p - 4} and n
    # from the largest two odd values {q - 1, q - 2} / {q - 2, q - 4}: the
    # one- and two-wide boxes where the difference table is clipped
    p = 2 * draw(st.integers(min_value=1, max_value=59)) + 1
    q = draw(st.integers(min_value=2, max_value=120))
    while gcd(p, q) != 1:
        q -= 1
    top_n = q - 1 if q % 2 == 0 else q - 2
    m = draw(st.one_of(st.sampled_from([p - 2, max(p - 4, 1)]), _odd_up_to(p - 2)))
    n = draw(st.one_of(st.sampled_from([top_n, max(top_n - 2, 1)]), _odd_up_to(top_n)))
    return p, q, m, n


def _odd_up_to(top):
    return st.integers(min_value=0, max_value=(top - 1) // 2).map(lambda k: 2 * k + 1)


@given(_acting_labels())
@settings(max_examples=150, deadline=None)
def test_level_matches_fraction_oracle_up_to_grid_120(label):
    assert fast_level(*label) == fraction_level(*label), label


def test_level_on_every_box_width_class():
    # (min(wi, 3), min(wj, 5)) with wi = (p - m)/2 and wj = q - n: each of
    # the fifteen classes keeps a different part of the difference table
    classes = set()
    for p, q in [(7, 8), (7, 9), (101, 120), (117, 119)]:
        for m in (p - 2, p - 4, p - 6, 1):
            for n in (q - 1, q - 2, q - 3, q - 4, q - 5, 1):
                if n % 2 == 0:
                    continue
                assert fast_level(p, q, m, n) == fraction_level(p, q, m, n), (p, q, m, n)
                classes.add((min((p - m) // 2, 3), min(q - n, 5)))
    assert classes == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3, 4, 5)}


def test_level_factorization():
    lv = level(_profile(5, 2, 1, 1))
    assert lv.factorization == ((2, 2), (3, 1), (5, 1))
    assert nu(2, lv.N) == 2 and nu(7, lv.N) == 0


def test_eight_divides_level_for_odd_pairs():
    # for p, q, m, n all odd the 2-part of the level is exactly 8
    for p in range(3, 20, 2):
        for q in range(3, 20, 2):
            if q == p or gcd(p, q) != 1:
                continue
            for m in range(1, p, 2):
                for n in range(1, q, 2):
                    lv = level(_profile(p, q, m, n))
                    assert nu(2, lv.N) == 3, (p, q, m, n)


def test_nw_min_dim_table():
    assert nw_min_dim(2, 1) == 1
    assert nw_min_dim(2, 2) == 1
    assert nw_min_dim(2, 3) == 2
    assert nw_min_dim(2, 4) == 3
    assert nw_min_dim(2, 5) == 6
    assert nw_min_dim(3, 1) == 1
    assert nw_min_dim(5, 1) == 2
    assert nw_min_dim(7, 1) == 3
    assert nw_min_dim(5, 2) == 12
    assert nw_min_dim(7, 2) == 24
    for r in (-3, 0, 1, 4, 6, 9, 15, 49):
        with pytest.raises(NotPrime):
            nw_min_dim(r, 1)
    with pytest.raises(NotPrime):
        nw_min_dim(5, 0)
    for r, t in ((5, 2.5), (5, True), (7.0, 1), (True, 1), (5, "2")):
        with pytest.raises(NotAnInteger, match="prime r and the exponent t"):
            nw_min_dim(r, t)


def test_level_caches_are_bounded_and_agree_with_factorize():
    # level factorizes each N once and min_congruence_dim keeps each
    # Level's product; both caches hold a bounded number of entries, so
    # memory stays bounded whatever the grid
    from minrep.congruence import _level
    for cache in (_level, min_congruence_dim):
        assert isinstance(cache.cache_info().maxsize, int)
    first = level(_profile(5, 7, 1, 3))
    assert first == Level(840, factorize(840)) and level(_profile(5, 7, 1, 3)) is first
    assert min_congruence_dim(first) == min_congruence_dim(Level(840, factorize(840))) == 12


def test_min_congruence_dim_products():
    assert min_congruence_dim(Level(60, factorize(60))) == 2
    assert min_congruence_dim(Level(84, factorize(84))) == 3
    assert min_congruence_dim(Level(280, factorize(280))) == 12
    assert min_congruence_dim(Level(1, factorize(1))) == 1


def test_nw_certificate_examples():
    # the dimension bound s < min_congruence_dim(N) fires at (7, 2, 3, 1),
    # where the low-dimension classification decides, and decides (5, 7, 1, 3)
    v = congruence_verdict(_profile(7, 2, 3, 1))
    assert v.details["agreeing_criteria"] == [NW_DIMENSION_BOUND]
    v = congruence_verdict(_profile(5, 7, 1, 3))
    assert v.status == NONCONGRUENCE and v.criterion == NW_DIMENSION_BOUND
    assert v.details["s"] == 8 and v.details["min_congruence_dim"] == 12
    assert v.details["agreeing_criteria"] == [
        NW_DIMENSION_BOUND, PRIME_POWER_BOUND, DISTINCT_PRIMES]
    v = congruence_verdict(_profile(5, 2, 1, 1))
    assert v.details["s"] >= v.details["min_congruence_dim"]
    assert v.details["agreeing_criteria"] == []


def test_valuation_lemmas_match_fraction_oracle():
    # nu_r(N) = nu_r(p) resp. nu_r(q) on every acting label with p, q <= 20,
    # with N from Fraction denominators; the selftest suite checks exactly
    # the cases the oracle lists, so its hypothesis filter is pinned too
    cases = 0
    for model in models(20, 20):
        p, q = model.p, model.q
        for label in list_modules(model):
            if not label.is_acting:
                continue
            for r, nu_level, nu_model in valuation_lemma(p, q, label.m, label.n):
                assert nu_level == nu_model, (p, q, label, r)
                cases += 1
    assert cases > 0
    result = suite_lemmas(20)
    assert result.ok
    assert result.checked == cases


def test_prime_power_criterion_examples():
    assert prime_power_criterion(_profile(5, 7, 1, 3)).holds
    res = prime_power_criterion(_profile(5, 7, 1, 1))
    assert not res.holds and "reason" in res.trace
    # p = 25 gives alpha = ceil(5^0) = 1
    res = prime_power_criterion(_profile(25, 7, 3, 1))
    assert res.holds and res.trace["alpha"] == 1
    assert not prime_power_criterion(_profile(3, 4, 1, 1)).holds


def _fires(result, case):
    return result.holds and result.trace == {"case": case}


def _idle(result, reason):
    return not result.holds and result.trace == {"reason": reason}


def test_boundary_criterion_examples():
    # m = p - 2 with q = 5^2: fires for beta < n <= q - 4
    window = "no boundary case meets its prime-power window"
    for n in range(3, 22, 2):
        assert _fires(boundary_prime_power_criterion(_profile(3, 25, 1, n)), "i")
    assert _idle(boundary_prime_power_criterion(_profile(3, 25, 1, 1)), window)
    assert _idle(boundary_prime_power_criterion(_profile(3, 25, 1, 23)), window)
    # n = q - 2 but m > p - 4 fails
    assert _idle(boundary_prime_power_criterion(_profile(7, 5, 5, 3)), window)
    assert _idle(boundary_prime_power_criterion(_profile(3, 4, 1, 3)), window)
    # case ii: n = q - 2 with p = 7^2, so alpha = 1 < m <= p - 4
    assert _fires(boundary_prime_power_criterion(_profile(49, 3, 9, 1)), "ii")
    assert _fires(boundary_prime_power_criterion(_profile(49, 3, 45, 1)), "ii")
    assert _idle(boundary_prime_power_criterion(_profile(49, 3, 1, 1)), window)
    assert _idle(boundary_prime_power_criterion(_profile(49, 3, 47, 1)), window)
    assert _idle(boundary_prime_power_criterion(_profile(5, 7, 1, 3)),
                 "neither m = p-2 nor n = q-2")


def test_distinct_primes_criterion_examples():
    assert distinct_primes_criterion(_profile(5, 7, 1, 3))
    assert not distinct_primes_criterion(_profile(5, 7, 3, 5))
    assert not distinct_primes_criterion(_profile(5, 7, 1, 1))
    assert not distinct_primes_criterion(_profile(5, 7, 1, 5))
    assert not distinct_primes_criterion(_profile(5, 7, 3, 1))
    assert not distinct_primes_criterion(_profile(9, 7, 1, 3))
    # a criterion reads a profile, so it is never asked about a label
    # that rep_profile refuses: one outside the model, or one not acting
    with pytest.raises(OutOfRange):
        _profile(5, 7, 9, 9)
    with pytest.raises(NonCanonicalLabel):
        _profile(5, 7, 2, 2)
    # the result type and its trace
    assert distinct_primes_criterion(_profile(5, 7, 1, 3)) == CriterionResult(True)
    for m, n in [(1, 1), (1, 5), (3, 1), (3, 5)]:
        assert _idle(distinct_primes_criterion(_profile(5, 7, m, n)),
                     "(m, n) is an exceptional pair")
    not_primes = "p and q are not both primes > 3"
    # 9 = 3^2, 25 = 5^2 and 3 are all excluded
    for p, q in [(9, 7), (25, 7), (3, 7), (5, 3)]:
        assert _idle(distinct_primes_criterion(_profile(p, q, 1, 1)),
                     not_primes)


def test_classify_low_dim_examples():
    v = classify_low_dim(_profile(3, 4, 1, 3))
    assert (v.status, v.criterion) == (CONGRUENCE, ONE_DIMENSIONAL)
    v = classify_low_dim(_profile(7, 2, 3, 1))
    assert (v.status, v.criterion) == (NONCONGRUENCE, DIM2_INFINITE_IMAGE)
    v = classify_low_dim(_profile(5, 2, 1, 1))
    assert (v.status, v.criterion) == (CONGRUENCE, DIM2_P5)
    v = classify_low_dim(_profile(5, 7, 3, 5))
    assert (v.status, v.criterion) == (CONGRUENCE, DIM2_CONSTANT_REP)
    assert "outside_stated_range" not in v.details
    # the (p-2, q-2) shape also occurs at q = 3, below the stated range,
    # with the same fixed exponents
    v = classify_low_dim(_profile(5, 3, 3, 1))
    assert (v.status, v.criterion) == (CONGRUENCE, DIM2_CONSTANT_REP)
    assert v.details["outside_stated_range"] is True
    from minrep import rep_profile as _rp
    from fractions import Fraction as _F
    assert set(_rp(validate_model(5, 3), ModuleLabel(3, 1)).r) == {_F(5, 24), _F(-1, 24)}
    # q = 44 = 4 * 11 does not divide 2^6 3^3 5^2 7^2
    v = classify_low_dim(_profile(3, 44, 1, 41))
    assert (v.status, v.criterion) == (NONCONGRUENCE, DIM3_LEVEL_DIVISOR)
    v = classify_low_dim(_profile(3, 4, 1, 1))
    assert (v.status, v.criterion) == (UNKNOWN, DIM3_UNDETERMINED)
    v = classify_low_dim(_profile(7, 2, 1, 1))
    assert (v.status, v.criterion) == (NONCONGRUENCE, DIM3_INFINITE_IMAGE)
    with pytest.raises(OutOfScopeDimension):
        classify_low_dim(_profile(5, 7, 1, 3))


def test_shape_table_drives_low_dim_classification():
    # on every acting label with p, q <= 30: the tag exists exactly when
    # s <= 3, fixes the classification's criterion and names the same
    # case as the prime-dimension closed forms
    expected_case = {DIM1: "coincident", DIM2_I: "i", DIM3_I: "i",
                     DIM2_II: "ii", DIM3_II: "ii"}
    tagged = 0
    for model in models(30, 30):
        p, q = model.p, model.q
        for label in list_modules(model):
            if not label.is_acting:
                continue
            tag = low_dim_case(model, label)
            s = rep_dimension(model, label)
            assert (tag is not None) == (s <= 3), (p, q, label)
            if tag is None:
                continue
            tagged += 1
            assert SHAPES[tag] == (p - label.m, q - label.n)
            criterion = classify_low_dim(rep_profile(model, label)).criterion
            if tag == DIM1:
                assert criterion == ONE_DIMENSIONAL
            elif tag == DIM2_I:
                assert criterion == DIM2_CONSTANT_REP
            elif tag == DIM2_II:
                assert criterion == (DIM2_P5 if p == 5 else DIM2_INFINITE_IMAGE)
            elif tag == DIM3_I:
                assert criterion == (DIM3_UNDETERMINED if DIM3_DIVISOR_BOUND % q == 0
                                     else DIM3_LEVEL_DIVISOR)
            else:
                assert criterion == DIM3_INFINITE_IMAGE
            assert prime_case_closed_forms(model, label)[0] == expected_case[tag]
    assert tagged > 500


def test_nu_and_factorize_reject_bad_input_under_python_O():
    # nu(5, 0) and qseries._pow_series(s, -1) used to loop forever under
    # -O, where their asserts vanished, and factorize(0) returned (), so a
    # zero level got the minimal congruence dimension 1
    series = eta_power(1, 4).series
    for call in (lambda: nu(5, 0), lambda: nu(1, 5), lambda: factorize(0),
                 lambda: _pow_series(series, -1)):
        with pytest.raises(OutOfRange):
            call()
    # a float or a bool is refused by type, naming the arguments
    for call, name in ((lambda: nu(2.5, 5), "nu"), (lambda: nu(2, 8.0), "nu"),
                       (lambda: nu(True, 4), "nu"), (lambda: factorize(True), "factorize"),
                       (lambda: factorize(12.0), "factorize")):
        with pytest.raises(NotAnInteger, match=name):
            call()
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    script = textwrap.dedent("""
        import sys
        from minrep.congruence import factorize, nu
        from minrep.errors import OutOfRange
        from minrep.qseries import _pow_series, eta_power
        print("optimize", sys.flags.optimize)
        series = eta_power(1, 4).series
        for call in (lambda: nu(5, 0), lambda: factorize(0),
                     lambda: _pow_series(series, -1)):
            try:
                call()
            except OutOfRange:
                print("raised")
        """)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=30,
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:4] == ["optimize 1", "raised", "raised", "raised"]


def test_congruence_verdict_examples():
    v = congruence_verdict(_profile(5, 7, 1, 3))
    assert (v.status, v.criterion) == (NONCONGRUENCE, NW_DIMENSION_BOUND)
    assert set(v.details["agreeing_criteria"]) >= {NW_DIMENSION_BOUND,
                                                   "prime-power-bound",
                                                   DISTINCT_PRIMES}
    v = congruence_verdict(_profile(5, 2, 1, 1))
    assert (v.status, v.criterion) == (CONGRUENCE, DIM2_P5)
    # vacuum labels are congruence; the tag is VACUUM once s > 3 or the
    # low-dimension classification is silent
    for p, q in [(5, 7), (3, 4), (7, 4)]:
        v = congruence_verdict(_profile(p, q, 1, 1))
        assert v.status == CONGRUENCE
    assert congruence_verdict(_profile(5, 7, 1, 1)).criterion == VACUUM
    assert congruence_verdict(_profile(3, 4, 1, 1)).criterion == VACUUM


def test_congruence_verdict_boundary_family():
    v = congruence_verdict(_profile(3, 25, 1, 5))
    assert v.status == NONCONGRUENCE
    assert BOUNDARY_PRIME_POWER in v.details["agreeing_criteria"]


def test_exceptional_pairs_sit_on_the_bound():
    # for distinct primes the four excluded labels escape the dimension
    # bound: on (1, q-2) the prime q drops out of the level entirely and
    # the bound meets s exactly (similarly (p-2, 1) loses p)
    prof = _profile(5, 7, 1, 5)
    assert prof.s == 4 and level(prof).N == 40       # no factor 7
    assert prof.s == min_congruence_dim(level(prof))
    assert congruence_verdict(prof).status == UNKNOWN
    prof = _profile(5, 7, 3, 1)
    assert prof.s == 6 and level(prof).N == 168      # no factor 5
    assert prof.s == min_congruence_dim(level(prof))
    v = congruence_verdict(prof)
    # a verdict reports the s of the one profile it reads
    assert v.status == UNKNOWN and v.details["s"] == 6


def test_verdict_unknown_when_nothing_fires():
    # (9, 8) labels away from the low-dimension shapes fall to the bound;
    # a d3i label whose classification is undetermined falls through to
    # the vacuum row, to the bound, or to no row at all
    expected = {
        (9, 8, 3, 1): (NONCONGRUENCE, NW_DIMENSION_BOUND, [NW_DIMENSION_BOUND]),
        (9, 8, 5, 5): (NONCONGRUENCE, NW_DIMENSION_BOUND, [NW_DIMENSION_BOUND]),
        (3, 4, 1, 1): (CONGRUENCE, VACUUM, []),
        (3, 8, 1, 5): (NONCONGRUENCE, NW_DIMENSION_BOUND, [NW_DIMENSION_BOUND]),
        (5, 4, 3, 1): (UNKNOWN, "none", []),
    }
    for (p, q, m, n), want in expected.items():
        model, label = validate_model(p, q), ModuleLabel(m, n)
        if (p, q) != (9, 8):
            assert classify_low_dim(rep_profile(model, label)).criterion == DIM3_UNDETERMINED
        v = congruence_verdict(rep_profile(model, label))
        assert (v.status, v.criterion, v.details["agreeing_criteria"]) == want, (p, q, m, n)


def test_low_dim_level_must_match_computed_level(monkeypatch):
    # the dim2-p5 closed form states level 60; it must agree with the
    # computed level on every p = 5 label of that shape, and a differing
    # closed-form level must raise instead of replacing the computed one
    for q in range(2, 200, 2):
        if q % 5 == 0:
            continue
        v = congruence_verdict(_profile(5, q, 1, q - 1))
        assert v.criterion == DIM2_P5
        assert v.details["level"] == fast_level(5, q, 1, q - 1) == 60
    import minrep.congruence as c
    monkeypatch.setattr(c, "classify_low_dim", lambda profile: c.CongruenceVerdict(
        CONGRUENCE, DIM2_P5, {"level": 61}))
    with pytest.raises(AssertionError, match="contradicts the computed level"):
        congruence_verdict(_profile(5, 2, 1, 1))


def test_verdict_invariant_survives_python_O():
    # on (5, 7), (1, 5) the dimension bound is idle (s = 4, N = 40); forcing
    # an arithmetic criterion to fire there must raise, even under -O, and
    # so must a congruence verdict, from a low-dimension or the vacuum row,
    # against a certified bound
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    script = textwrap.dedent("""
        import sys
        import minrep.congruence as c
        from minrep import ModuleLabel, rep_profile, validate_model
        print("optimize", sys.flags.optimize)
        def verdict(p, q, m, n):
            try:
                c.congruence_verdict(rep_profile(validate_model(p, q), ModuleLabel(m, n)))
            except AssertionError as exc:
                print("raised:", exc)
        arithmetic = c.distinct_primes_criterion
        c.distinct_primes_criterion = lambda profile: True
        verdict(5, 7, 1, 5)
        c.distinct_primes_criterion = arithmetic
        # (7, 2), (3, 1): s = 2 against the certified bound 3
        low = c.classify_low_dim
        c.classify_low_dim = lambda profile: c.CongruenceVerdict(
            c.CONGRUENCE, c.DIM2_CONSTANT_REP, {})
        verdict(7, 2, 3, 1)
        c.classify_low_dim = low
        # (5, 7), (1, 1): s = 12 against the bound 12, made certified
        c.min_congruence_dim = lambda lv: 13
        verdict(5, 7, 1, 1)
        """)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "optimize 1" in out
    assert out.splitlines()[1:] == [
        "raised: arithmetic criterion fired without the dimension bound",
        "raised: congruence verdict contradicts the dimension bound",
        "raised: congruence verdict contradicts the dimension bound",
    ]


def test_transposed_models_agree_label_by_label():
    # for odd p and q, V(p, q) and V(q, p) are one model listed twice; the
    # label (m, n) of one is the label (n, m) of the other
    pairs = 0
    for p in range(3, 21, 2):
        for q in range(p + 2, 21, 2):
            if gcd(p, q) != 1:
                continue
            model, transposed = validate_model(p, q), validate_model(q, p)
            assert (transposed.p, transposed.q) == (q, p)
            for label in list_modules(model):
                if not label.is_acting:
                    continue
                other = canonical_label(transposed, label.n, label.m)
                a, b = rep_profile(model, label), rep_profile(transposed, other)
                assert a.s == b.s
                assert sorted(a.r) == sorted(b.r)
                assert level(a).N == level(b).N
                va = congruence_verdict(a)
                vb = congruence_verdict(b)
                assert (va.status, va.criterion) == (vb.status, vb.criterion)
                assert (set(va.details["agreeing_criteria"])
                        == set(vb.details["agreeing_criteria"]))
                if a.s <= SUBSET_CAP:
                    assert irreducibility_certificate(a) == irreducibility_certificate(b)
                assert space_comparison(a).status == space_comparison(b).status
                pairs += 1
    assert pairs == 817
