"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance).  Criterion 5 covers the
three-dimensional family at (p-2, q-3), p odd, q even.  Its rho(T)
exponents are r = ((p+5q)/(12q), (q-p)/(6q), (p-q)/(12q)), checked against
the closed forms of oracles.dim3_case_i_exponents, and its level is exactly
N = 12q / gcd(3, p-q).  The published uniform level 12q therefore holds only
when 3 does not divide p - q; when it does the level is 4q (smallest case
(7, 4): r = (9/16, -1/8, 1/16), level 16, not 48).
"""

import json
from fractions import Fraction
from math import gcd

import pytest

from minrep import cli
from minrep.congruence import (CONGRUENCE, NONCONGRUENCE, NW_DIMENSION_BOUND,
                               Level, boundary_prime_power_criterion,
                               classify_low_dim, congruence_verdict,
                               distinct_primes_criterion, factorize, fast_level,
                               level, min_congruence_dim, prime_power_criterion)
from minrep.core import ModuleLabel, list_modules, models, validate_model
from minrep.fusion import self_coupled_partners
from minrep.qseries import eisenstein, eta_power, modular_derivative
from minrep.repdata import RepProfile, rep_profile
from minrep.selftest import (run_selftests, suite_lemmas, suite_monic,
                             suite_qseries, suite_ratios)
from minrep.spaces import EQUAL, space_comparison

from oracles import (brute_self_coupled, dim3_case_i_exponents,
                     partner_canonical_keys, series_ratio)

F = Fraction


def _acting(model):
    return [label for label in list_modules(model) if label.is_acting]


def _report(num, description, failures, checked):
    status = "PASS" if not failures else "FAIL"
    print("%s criterion %02d: %s (%d checks, %d failures)"
          % (status, num, description, checked, len(failures)))
    assert not failures, "criterion %d: first failures: %s" % (num, failures[:5])


@pytest.fixture(scope="module")
def monic_suite():
    return suite_monic(50)


@pytest.fixture(scope="module")
def lemmas_suite():
    return suite_lemmas(60)


@pytest.fixture(scope="module")
def ratios_suite():
    return suite_ratios(60)


def test_criterion_01_dimension_formula_vs_enumeration():
    failures = []
    checked = 0
    for model in models(30, 30):
        p, q = model.p, model.q
        for label in _acting(model):
            m, n = label.m, label.n
            checked += 1
            partners = self_coupled_partners(model, label)
            expected = (p - m) * (q - n) // 2
            oracle = brute_self_coupled(p, q, m, n)
            if len(partners) != expected or partner_canonical_keys(p, q, partners) != oracle:
                failures.append((p, q, m, n))
    _report(1, "partner count equals (p-m)(q-n)/2 and matches brute force, p,q <= 30",
            failures, checked)


def test_criterion_02_minimal_weight_identity(monic_suite):
    failures = [f for f in monic_suite.failures if f.startswith("identity")]
    _report(2, "weight/exponent-sum identity for prime dimensions, p,q <= 50",
            failures, monic_suite.checked)


def test_criterion_03_closed_forms_match(monic_suite):
    failures = [f for f in monic_suite.failures if f.startswith("closed")]
    _report(3, "prime-dimension closed forms equal the general exponents, p,q <= 50",
            failures, monic_suite.checked)


def test_criterion_04_two_dim_constant_family():
    failures = []
    checked = 0
    target = {F(5, 24), F(-1, 24)}
    for p in range(5, 50, 2):
        for q in range(5, 50, 2):
            if q == p or gcd(p, q) != 1:
                continue
            profile = rep_profile(validate_model(p, q), ModuleLabel(p - 2, q - 2))
            checked += 1
            if set(profile.r) != target:
                failures.append((p, q, profile.r))
    _report(4, "family (p-2, q-2) always has r-multiset {5/24, -1/24}, 5 <= p,q <= 49",
            failures, checked)


def _dim3_case_i_pairs(limit_p, limit_q):
    for p in range(3, limit_p + 1, 2):
        for q in range(4, limit_q + 1, 2):
            if gcd(p, q) == 1:
                yield p, q


def test_criterion_05_three_dim_family_r_gap_and_level():
    r_failures = []
    level_failures = []
    checked = 0
    for p, q in _dim3_case_i_pairs(39, 40):
        profile = rep_profile(validate_model(p, q), ModuleLabel(p - 2, q - 3))
        checked += 1
        if profile.r[0] - profile.r[2] != F(1, 2):
            r_failures.append((p, q))
        if profile.r != dim3_case_i_exponents(p, q):
            r_failures.append((p, q, profile.r))
        if level(profile).N * gcd(3, p - q) != 12 * q:
            level_failures.append((p, q, level(profile).N))
    _report(5, "family (p-2, q-3): r_1 - r_3 = 1/2, r matches the closed forms "
               "and level 12q / gcd(3, p-q), p,q <= 40",
            r_failures + level_failures, checked)


def test_criterion_06_benchmarks():
    failures = []
    lee_yang = validate_model(5, 2)
    profile = rep_profile(lee_yang, ModuleLabel(1, 1))
    if set(profile.r) != {F(-1, 60), F(11, 60)}:
        failures.append("lee-yang exponents")
    if level(profile).N != 60:
        failures.append("lee-yang level")
    if congruence_verdict(profile).status != CONGRUENCE:
        failures.append("lee-yang verdict")

    ising = validate_model(3, 4)
    vac = rep_profile(ising, ModuleLabel(1, 1))
    if set(vac.lam) != {F(-1, 48), F(1, 24), F(23, 48)}:
        failures.append("ising vacuum exponents")
    energy = rep_profile(ising, ModuleLabel(1, 3))
    if energy.r != (F(0),) or level(energy).N != 1:
        failures.append("ising (1,3) trivial rho(T)")
    if space_comparison(energy).status != EQUAL:
        failures.append("ising (1,3) spaces not equal")
    _report(6, "Lee-Yang and Ising benchmarks", failures, 6)


def test_criterion_07_valuation_lemmas(lemmas_suite):
    _report(7, "nu_r(N) = nu_r(p) resp. nu_r(q) for primes r > 3, p,q <= 60",
            lemmas_suite.failures, lemmas_suite.checked)


def test_criterion_08_distinct_prime_reproduction():
    primes = [5, 7, 11, 13, 17, 19, 23]
    failures = []
    checked = 0
    for p in primes:
        for q in primes:
            if p == q:
                continue
            model = validate_model(p, q)
            exceptional = {(1, 1), (1, q - 2), (p - 2, 1), (p - 2, q - 2)}
            for label in _acting(model):
                if (label.m, label.n) in exceptional:
                    continue
                checked += 1
                verdict = congruence_verdict(rep_profile(model, label))
                ok = (verdict.status == NONCONGRUENCE
                      and NW_DIMENSION_BOUND in verdict.details["agreeing_criteria"])
                if not ok:
                    failures.append((p, q, label.m, label.n, verdict.status))
    _report(8, "distinct primes 3 < p,q <= 23: noncongruence with dimension-bound "
               "certificate outside the four exceptional pairs", failures, checked)


def test_criterion_09_criterion_consistency():
    failures = []
    checked = 0
    for model in models(60, 60):
        p, q = model.p, model.q
        for label in _acting(model):
            m, n = label.m, label.n
            s = (p - m) * (q - n) // 2
            N = fast_level(p, q, m, n)
            cert_fires = s < min_congruence_dim(Level(N, factorize(N)))
            # the criteria and the classification read only the model, the
            # label and s of a profile, never its box, y or h_num
            # (test_congruence.py::test_verdict_reads_no_exponent_data);
            # this grid has 66 million partners, and building their
            # exponents through rep_profile takes ten times as long as the
            # rest of this test
            profile = RepProfile(model, label, s, (), 48 * p * q, (), None)
            checked += 1
            if prime_power_criterion(profile).holds and not cert_fires:
                failures.append(("prime-power", p, q, m, n))
            if boundary_prime_power_criterion(profile).holds and not cert_fires:
                failures.append(("boundary", p, q, m, n))
            if distinct_primes_criterion(profile) and not cert_fires:
                failures.append(("distinct", p, q, m, n))
            if s <= 3:
                low = classify_low_dim(profile)
                if low.status == CONGRUENCE and cert_fires:
                    failures.append(("low-dim-conflict", p, q, m, n))
            if (m, n) == (1, 1) and cert_fires:
                failures.append(("vacuum-conflict", p, q, m, n))
    _report(9, "arithmetic criteria imply the dimension-bound certificate and no "
               "congruence classification conflicts with it, p,q <= 60",
            failures, checked)


def test_criterion_10_ratio_windows(ratios_suite):
    _report(10, "q/p window membership agrees with the exponent window, p,q <= 60",
            ratios_suite.failures, ratios_suite.checked)


def test_selftest_check_counts_are_pinned(monic_suite, lemmas_suite, ratios_suite):
    # a sweep that drops labels still reports no failures; its count does not
    assert (monic_suite.checked, lemmas_suite.checked, ratios_suite.checked) == (
        7315, 577308, 3405)
    assert [suite.checked for suite in run_selftests("all", 30)] == [1766, 26659, 792, 33]


def test_criterion_11_qseries_identities():
    suite = suite_qseries(40)
    failures = list(suite.failures)
    # re-derive the two identity constants from the series themselves
    g4 = eisenstein(4, 40)
    g6 = eisenstein(6, 40)
    derived = series_ratio(modular_derivative(4, g4.series), g6.series)
    if derived != 14:
        failures.append("derived D_4 G4 / G6 = %s" % derived)
    derived = series_ratio(modular_derivative(6, g6.series), g4.series * g4.series)
    if derived != F(60, 7):
        failures.append("derived D_6 G6 / G4^2 = %s" % derived)
    for w in range(1, 25):
        eta = eta_power(w, 40)
        if not modular_derivative(F(w, 2), eta.series).is_zero():
            failures.append("eta^%d not annihilated" % w)
    _report(11, "q-series identities at order 40 with oracle-derived constants",
            failures, suite.checked + 26)


def test_criterion_12_scan_determinism(capsys):
    args = ["scan", "--p-max", "20", "--q-max", "20"]
    assert cli.main(args + ["--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert cli.main(args + ["--jobs", "8"]) == 0
    second = capsys.readouterr().out
    failures = [] if first.encode() == second.encode() else ["outputs differ"]
    # the stream must be valid JSONL, and every record must round-trip
    # losslessly (all rationals travel as exact strings)
    rows = [json.loads(line) for line in first.splitlines()]
    if not rows:
        failures.append("empty scan")
    for row in rows:
        if json.loads(json.dumps(row)) != row:
            failures.append("round-trip failure at %s" % (row,))
            break
    _report(12, "scan output is byte-identical for --jobs 1 and --jobs 8, p,q <= 20",
            failures, len(rows))
