"""Admissibility rules, partner enumeration and the dimension formula."""

from itertools import product
from math import gcd

import pytest

from minrep import (ModuleLabel, conformal_weight, list_modules,
                    rep_dimension, self_coupled_partners, validate_model)
from minrep.core import models
from minrep.errors import NonCanonicalLabel, OutOfRange
from minrep.fusion import MAX_DIMENSION, PartnerBox

from oracles import admissible, brute_self_coupled, partner_canonical_keys

ISING = validate_model(3, 4)


def test_is_admissible_examples():
    assert admissible(3, 4, ((1, 3), (2, 2), (2, 2)))
    # A2 fails on the n side: 3 < 1 + 1 is false
    assert not admissible(3, 4, ((1, 3), (1, 1), (1, 1)))
    assert not admissible(3, 4, ((1, 3), (2, 1), (2, 1)))


def test_is_admissible_out_of_range_is_false():
    assert not admissible(3, 4, ((1, 3), (3, 2), (2, 2)))
    assert not admissible(3, 4, ((0, 3), (2, 2), (2, 2)))


def test_is_admissible_invariances():
    # every triple of every model with p, q <= 9 (650,648 of them): the
    # rules are invariant under permuting the acted-on pairs and under the
    # flip, which is why the oracle and the partner box need no flip branch
    checked = 0
    for model in models(9, 9):
        p, q = model.p, model.q
        pairs = list(product(range(1, p), range(1, q)))
        for t0, t1, t2 in product(pairs, repeat=3):
            verdict = admissible(p, q, (t0, t1, t2))
            assert admissible(p, q, (t0, t2, t1)) == verdict, (p, q, t0, t1, t2)
            flipped = (t0, (p - t1[0], q - t1[1]), (p - t2[0], q - t2[1]))
            assert admissible(p, q, flipped) == verdict, (p, q, t0, t1, t2)
            checked += 1
    assert checked == 650648


def test_partner_examples():
    assert tuple(self_coupled_partners(ISING, ModuleLabel(1, 3))) == ((2, 2),)
    assert tuple(self_coupled_partners(ISING, ModuleLabel(1, 1))) == ((2, 1), (2, 2), (2, 3))
    lee_yang = validate_model(5, 2)
    assert tuple(self_coupled_partners(lee_yang, ModuleLabel(3, 1))) == ((3, 1),)


def test_partner_box_examples():
    box = self_coupled_partners(ISING, ModuleLabel(1, 1))
    assert (box.rows, box.cols) == (range(2, 3), range(1, 4))
    box = self_coupled_partners(validate_model(9, 8), ModuleLabel(3, 5))
    assert box == PartnerBox(range(5, 8), range(3, 6))
    assert hash(box) == hash(PartnerBox(range(5, 8), range(3, 6)))
    assert box != PartnerBox(range(5, 8), range(3, 5)) and box != tuple(box)
    cells = [(mj, nj) for mj in range(5, 8) for nj in range(3, 6)]
    assert len(box) == 9 and list(box) == cells
    assert [box[i] for i in range(-9, 9)] == cells + cells
    for index in (9, -10):
        with pytest.raises(IndexError):
            box[index]
    # s = 224 * 447 = 100128 > MAX_DIMENSION: refused, though the box is
    # only two ranges
    assert rep_dimension(validate_model(449, 448), ModuleLabel(1, 1)) > MAX_DIMENSION
    with pytest.raises(OutOfRange, match="MAX_DIMENSION"):
        self_coupled_partners(validate_model(449, 448), ModuleLabel(1, 1))


def test_partner_rejects_non_acting():
    with pytest.raises(NonCanonicalLabel):
        self_coupled_partners(ISING, ModuleLabel(1, 2))
    with pytest.raises(NonCanonicalLabel):
        self_coupled_partners(ISING, ModuleLabel(2, 1))


def test_rep_dimension_examples():
    assert rep_dimension(ISING, ModuleLabel(1, 1)) == 3
    assert rep_dimension(validate_model(5, 2), ModuleLabel(3, 1)) == 1
    assert rep_dimension(validate_model(5, 7), ModuleLabel(1, 3)) == 8


def test_partners_are_admissible_and_match_brute_force():
    # every returned pair forms an admissible triple; none is missed
    for p in range(3, 19, 2):
        for q in range(2, 19):
            if q == p or gcd(p, q) != 1:
                continue
            model = validate_model(p, q)
            for m in range(1, p, 2):
                for n in range(1, q, 2):
                    partners = self_coupled_partners(model, ModuleLabel(m, n))
                    for pair in partners:
                        assert admissible(p, q, ((m, n), pair, pair))
                    keys = partner_canonical_keys(p, q, partners)
                    assert len(keys) == len(partners)
                    assert keys == brute_self_coupled(p, q, m, n)


def test_non_acting_labels_have_no_self_coupling():
    for p, q in [(3, 4), (5, 7), (5, 4), (7, 2)]:
        for n in range(2, q, 2):
            assert brute_self_coupled(p, q, 1, n) == set()


def test_distinct_partners_distinct_weights():
    # inequivalent self-coupled triples never share a conformal weight
    for p in range(3, 31, 2):
        for q in range(2, 31):
            if q == p or gcd(p, q) != 1:
                continue
            model = validate_model(p, q)
            for m in range(1, p, 2):
                for n in range(1, q, 2):
                    partners = self_coupled_partners(model, ModuleLabel(m, n))
                    weights = [conformal_weight(model, a, b) for a, b in partners]
                    assert len(set(weights)) == len(weights)


def test_vacuum_dimension_equals_module_count():
    for p, q in [(3, 4), (5, 2), (5, 7), (9, 4)]:
        model = validate_model(p, q)
        assert rep_dimension(model, ModuleLabel(1, 1)) == len(list_modules(model))
