"""Model validation, central charges, conformal weights, canonical labels."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from minrep import (MinimalModel, ModuleLabel, canonical_label, central_charge,
                    conformal_weight, congruence_verdict,
                    list_modules, rep_dimension, rep_profile,
                    self_coupled_partners, validate_model)
from minrep.core import models
from minrep.errors import MinrepError, NotAnInteger, NotCoprime, OutOfRange


def test_validate_model_keeps_convention():
    assert validate_model(3, 4) == MinimalModel(3, 4)
    assert validate_model(4, 3) == MinimalModel(3, 4)
    assert validate_model(2, 5) == MinimalModel(5, 2)


def test_records_are_immutable_ordered_tuples():
    # every record type of the package: a field cannot be assigned and no
    # attribute can be added
    from minrep import (minimal_weight_profile, qseries, selftest,
                        space_comparison)
    from minrep.congruence import CriterionResult, distinct_primes_criterion, level
    model, label = validate_model(5, 7), ModuleLabel(1, 3)
    profile = rep_profile(model, label)
    small = rep_profile(validate_model(3, 4), ModuleLabel(1, 3))
    records = [model, label, profile, level(profile),
               distinct_primes_criterion(profile), congruence_verdict(profile),
               minimal_weight_profile(small), space_comparison(profile),
               selftest.SuiteResult("ratios", 1, []), qseries.eisenstein(4, 4)]
    assert len({type(record) for record in records}) == 10
    for record in records:
        name = record._fields[0] if isinstance(record, tuple) else "weight"
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1
    # a form is not a tuple: a scalar on the left is not a repetition
    with pytest.raises(TypeError):
        3 * records[-1]
    assert records[-1] * 3 == qseries.ModularForm(4, records[-1].series * 3)

    # models and labels sort as (p, q) and (m, n) pairs, and, as tuples,
    # equal any tuple with the same fields
    pairs = {validate_model(7, 2), validate_model(4, 5), validate_model(3, 4),
             validate_model(2, 5), validate_model(5, 4)}
    assert sorted(pairs) == [MinimalModel(3, 4), MinimalModel(5, 2), MinimalModel(5, 4),
                             MinimalModel(7, 2)]
    assert sorted({ModuleLabel(3, 1), ModuleLabel(1, 5), ModuleLabel(1, 3)}) == [
        (1, 3), (1, 5), (3, 1)]
    assert MinimalModel(3, 4) == ModuleLabel(3, 4) == (3, 4)

    # a criterion result is true when it holds; each firing result has its
    # own trace, and the default trace cannot be written
    for m, n in [(1, 3), (1, 1), (3, 5)]:
        result = distinct_primes_criterion(rep_profile(model, ModuleLabel(m, n)))
        assert bool(result) is result.holds
    first = distinct_primes_criterion(profile)
    second = distinct_primes_criterion(profile)
    assert first.holds and second.holds and first.trace is not second.trace
    first.trace["seen"] = True
    assert second.trace == {} and CriterionResult(True).trace == {}
    with pytest.raises(TypeError):
        CriterionResult(True).trace["seen"] = True


def test_validate_model_rejections():
    with pytest.raises(NotCoprime):
        validate_model(4, 6)
    with pytest.raises(NotCoprime):
        validate_model(9, 6)
    with pytest.raises(NotCoprime, match="common factor 4"):
        validate_model(4, 8)
    with pytest.raises(OutOfRange):
        validate_model(1, 5)
    with pytest.raises(OutOfRange):
        validate_model(5, 0)


def test_non_integer_indices_are_rejected():
    for p, q in [(5.0, 2), ("5", 2), (True, 3), (5, 2.0), (5, None)]:
        with pytest.raises(NotAnInteger):
            validate_model(p, q)
    model = validate_model(5, 2)
    for m, n in [(1.0, 1), (True, 1), (1, "1"), (3, False)]:
        with pytest.raises(NotAnInteger):
            canonical_label(model, m, n)
        with pytest.raises(NotAnInteger):
            conformal_weight(model, m, n)
        # the label-taking layers check the type too, not only the range;
        # the stages after rep_profile take its profile, so never such a label
        label = ModuleLabel(m, n)
        for func in (rep_dimension, self_coupled_partners, rep_profile):
            with pytest.raises(NotAnInteger):
                func(model, label)
    assert issubclass(NotAnInteger, MinrepError)


def test_central_charge_values():
    assert central_charge(validate_model(3, 2)) == 0
    assert central_charge(validate_model(3, 4)) == Fraction(1, 2)
    assert central_charge(validate_model(5, 2)) == Fraction(-22, 5)


def test_central_charge_symmetry():
    for p, q in [(3, 4), (5, 7), (5, 4), (9, 2)]:
        assert central_charge(validate_model(p, q)) == central_charge(validate_model(q, p))


def test_conformal_weight_values():
    for p, q in [(3, 4), (5, 2), (5, 7), (7, 4)]:
        assert conformal_weight(validate_model(p, q), 1, 1) == 0
    assert conformal_weight(validate_model(3, 4), 1, 3) == Fraction(1, 2)
    # the Ising spin field h = 1/16 lives at the even-n label (1, 2)
    assert conformal_weight(validate_model(3, 4), 1, 2) == Fraction(1, 16)


def test_conformal_weight_range():
    model = validate_model(3, 4)
    with pytest.raises(OutOfRange):
        conformal_weight(model, 3, 1)
    with pytest.raises(OutOfRange):
        conformal_weight(model, 1, 4)


def test_canonical_label_examples():
    assert canonical_label(validate_model(5, 2), 2, 1) == ModuleLabel(3, 1)
    assert canonical_label(validate_model(3, 4), 1, 3) == ModuleLabel(1, 3)
    assert canonical_label(validate_model(5, 7), 4, 2) == ModuleLabel(1, 5)


def test_list_modules_counts():
    assert len(list_modules(validate_model(3, 4))) == 3
    assert len(list_modules(validate_model(5, 2))) == 2
    assert len(list_modules(validate_model(3, 2))) == 1
    for p, q in [(5, 7), (9, 8), (15, 4)]:
        model = validate_model(p, q)
        assert len(list_modules(model)) == (p - 1) * (q - 1) // 2


def _coprime_models(limit):
    for p in range(3, limit + 1, 2):
        for q in range(2, limit + 1):
            if q != p and gcd(p, q) == 1:
                yield MinimalModel(p, q)


def test_list_modules_distinct_weights():
    # conformal weights separate the canonical labels
    for model in _coprime_models(30):
        weights = [conformal_weight(model, lab.m, lab.n) for lab in list_modules(model)]
        assert len(set(weights)) == len(weights), (model.p, model.q)


def test_list_modules_count_formula_to_50():
    for model in _coprime_models(50):
        assert len(list_modules(model)) == (model.p - 1) * (model.q - 1) // 2


def test_list_modules_no_flip_duplicates():
    for model in _coprime_models(16):
        labels = {(lab.m, lab.n) for lab in list_modules(model)}
        for m, n in labels:
            assert (model.p - m, model.q - n) not in labels


def test_models_and_acting_filter_match_independent_loop():
    # every validated coprime pair in range, in sorted order
    expected = sorted({validate_model(a, b) for a in range(2, 13)
                       for b in range(2, 13) if gcd(a, b) == 1})
    assert list(models(12, 12)) == expected
    for model in models(12, 12):
        p, q = model.p, model.q
        # the odd-m member of each flip class of the full Kac table
        reps = sorted({(m, n) if m % 2 else (p - m, q - n)
                       for m in range(1, p) for n in range(1, q)})
        listed = [(lab.m, lab.n) for lab in list_modules(model)]
        assert listed == reps
        acting = [(lab.m, lab.n) for lab in list_modules(model) if lab.is_acting]
        assert acting == [(m, n) for m, n in reps if n % 2]


@st.composite
def models_and_labels(draw):
    p = draw(st.integers(min_value=1, max_value=12)) * 2 + 1
    q = draw(st.integers(min_value=2, max_value=25))
    if gcd(p, q) != 1:
        q = q + 1 if gcd(p, q + 1) == 1 else 1 + (q % 2)
    from hypothesis import assume
    assume(gcd(p, q) == 1 and q >= 2 and q != p)
    m = draw(st.integers(min_value=1, max_value=p - 1))
    n = draw(st.integers(min_value=1, max_value=q - 1))
    return MinimalModel(p, q), m, n


@given(models_and_labels())
def test_weight_symmetry_under_flip(data):
    model, m, n = data
    assert conformal_weight(model, m, n) == conformal_weight(model, model.p - m, model.q - n)


@given(models_and_labels())
def test_canonical_label_is_idempotent_and_odd(data):
    model, m, n = data
    label = canonical_label(model, m, n)
    assert label.m % 2 == 1
    assert canonical_label(model, label.m, label.n) == label
    # both representatives canonicalise identically
    assert canonical_label(model, model.p - m, model.q - n) == label
