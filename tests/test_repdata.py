"""Exponent profiles, closed forms, minimal weight data, irreducibility."""

import copy
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from minrep import (ModuleLabel, analysis, irreducibility_certificate,
                    minimal_weight_identity, minimal_weight_profile,
                    prime_case_closed_forms, rep_profile, selftest,
                    validate_model)
from minrep.core import MAX_INDEX, list_modules, models
from minrep.fusion import MAX_DIMENSION, rep_dimension
from minrep.errors import (NotPrimeCase, OutOfRange, OutOfScopeDimension,
                           SubsetBlowup)
from minrep.repdata import INCONCLUSIVE, IRREDUCIBLE, SUBSET_CAP, RepProfile
from oracles import (brute_certificate, fraction_minimal_weight, kac_central_charge,
                     kac_exponents, kac_weight)


def F(a, b=1):
    return Fraction(a, b)


def test_ising_vacuum_profile():
    model = validate_model(3, 4)
    profile = rep_profile(model, ModuleLabel(1, 1))
    assert profile.s == 3
    assert profile.lam == (F(23, 48), F(1, 24), F(-1, 48))
    assert profile.r == profile.lam          # h_{1,1} = 0
    assert profile.c == F(1, 2)


def test_lee_yang_vacuum_profile():
    profile = rep_profile(validate_model(5, 2), ModuleLabel(1, 1))
    assert profile.r == (F(-1, 60), F(11, 60))


def test_two_dim_constant_family_profile():
    profile = rep_profile(validate_model(5, 7), ModuleLabel(3, 5))
    assert profile.r == (F(5, 24), F(-1, 24))
    assert profile.h == F(3, 35)


def test_r_lambda_offset_is_constant():
    # h and r - lam both derive from h_num, so each is held against the
    # Kac formula of the oracle, on every acting label up to grid 20
    checked = 0
    for model in models(20, 20):
        p, q = model.p, model.q
        for label in list_modules(model):
            if not label.is_acting:
                continue
            profile = rep_profile(model, label)
            h = kac_weight(p, q, label.m, label.n)
            assert profile.h == h, (p, q, label)
            offsets = {rj - lj for rj, lj in zip(profile.r, profile.lam)}
            assert offsets == {-h / 12}, (p, q, label)
            checked += 1
    assert checked > 0


def test_r_exponent_single_fraction_form():
    # r_j = (12 (n_j p - m_j q)^2 - (n p - m q)^2 + (p - q)^2 - 2 p q) / (48 p q)
    for p, q, m, n in [(3, 4, 1, 1), (5, 7, 1, 3), (7, 4, 5, 1), (9, 8, 3, 5)]:
        profile = rep_profile(validate_model(p, q), ModuleLabel(m, n))
        for (mj, nj), rj in zip(profile.box, profile.r):
            x = (12 * (nj * p - mj * q) ** 2 - (n * p - m * q) ** 2
                 + (p - q) ** 2 - 2 * p * q)
            assert rj == F(x, 48 * p * q)


def test_prime_case_examples():
    # numerators over big = 48 p q
    case, y, _ = prime_case_closed_forms(validate_model(5, 2), ModuleLabel(3, 1))
    assert case == "coincident"
    assert y == (-8,)                               # big = 480

    case, y, _ = prime_case_closed_forms(validate_model(3, 4), ModuleLabel(1, 3))
    assert case == "coincident"
    assert y == (24,)                               # big = 576
    assert y[0] == 4 * (3 * 4 - 2 * 3)

    case, _, x = prime_case_closed_forms(validate_model(3, 8), ModuleLabel(1, 5))
    assert case == "i"
    assert x[0] - x[2] == 1152 // 2                 # big = 1152


def test_prime_case_matches_general_computation():
    # every acting label on a one-wide box (m = p - 2 or n = q - 1), which
    # holds every label with s = 1 or prime and many with composite s
    composite = 0
    for model in models(40, 40):
        p, q = model.p, model.q
        for label in list_modules(model):
            if not label.is_acting or (label.m != p - 2 and label.n != q - 1):
                continue
            profile = rep_profile(model, label)
            _, y, x = prime_case_closed_forms(model, label)
            assert y == profile.y, (p, q, label)
            assert x == tuple(v - profile.h_num for v in profile.y), (p, q, label)
            # the Fraction edge: the numerators read back as lam, r
            assert tuple(F(v, profile.big) for v in y) == profile.lam
            assert tuple(F(v, profile.big) for v in x) == profile.r
            composite += profile.s > 3 and not _is_prime(profile.s)
    assert composite > 0


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_prime_case_rejects_composite():
    with pytest.raises(NotPrimeCase):
        prime_case_closed_forms(validate_model(5, 7), ModuleLabel(1, 3))   # s = 8


def _identity_in_fractions(profile):
    """h = 12 (sum lambda)/s + 1 - s in Fractions, with h from the oracle."""
    h = kac_weight(profile.model.p, profile.model.q, profile.label.m, profile.label.n)
    return h == Fraction(12 * sum(profile.y), profile.s * profile.big) + 1 - profile.s


def test_minimal_weight_identity_examples():
    # h = 12 (sum lambda)/s + 1 - s, checked by hand on three labels
    for p, q, m, n in [(5, 2, 3, 1), (5, 7, 3, 5), (3, 4, 1, 3)]:
        profile = rep_profile(validate_model(p, q), ModuleLabel(m, n))
        assert minimal_weight_identity(profile)
    # and on every acting label of a small grid, composite s included; the
    # integer cross-multiplication agrees with the Fraction form there and
    # on the same profile with one exponent moved
    composite = 0
    for model in models(20, 20):
        for label in list_modules(model):
            if label.is_acting:
                profile = rep_profile(model, label)
                assert minimal_weight_identity(profile), (model, label)
                assert _identity_in_fractions(profile), (model, label)
                bumped = profile._replace(y=(profile.y[0] + 1,) + profile.y[1:])
                assert (minimal_weight_identity(bumped)
                        is _identity_in_fractions(bumped)), (model, label)
                composite += profile.s > 3 and not _is_prime(profile.s)
    assert composite > 0


def test_minimal_weight_identity_detects_a_wrong_exponent():
    for p, q, m, n in [(5, 2, 3, 1), (5, 7, 3, 5), (3, 4, 1, 1), (9, 8, 3, 5)]:
        profile = rep_profile(validate_model(p, q), ModuleLabel(m, n))
        assert minimal_weight_identity(profile)
        bumped = profile._replace(y=(profile.y[0] + 1,) + profile.y[1:])
        assert not minimal_weight_identity(bumped), (p, q, m, n)
        bumped = profile._replace(h_num=profile.h_num + 1)
        assert not minimal_weight_identity(bumped), (p, q, m, n)


def test_monic_sweep_visits_every_prime_dimension_label(monkeypatch):
    # the sweep enumerates the shapes (p - 2s, q - 1) and (p - 2, q - s);
    # it must visit exactly the acting labels with s = 1 or prime, in the
    # (p, q, m, n) order of a sweep over list_modules
    visited = []

    def record(model, label):
        visited.append((model.p, model.q, label.m, label.n))
        return prime_case_closed_forms(model, label)

    monkeypatch.setattr(selftest, "prime_case_closed_forms", record)
    result = selftest.suite_monic(50)
    expected = []
    for model in models(50, 50):
        for label in list_modules(model):
            s = rep_dimension(model, label) if label.is_acting else 0
            if s == 1 or _is_prime(s):
                expected.append((model.p, model.q, label.m, label.n))
    assert len(expected) == 7315
    assert visited == expected
    assert result.checked == len(expected) and not result.failures


def test_dimension_cap_before_the_partner_box():
    # s = 224 * 447 = 100128 > MAX_DIMENSION; the box is never built
    assert rep_dimension(validate_model(449, 448), ModuleLabel(1, 1)) > MAX_DIMENSION
    with pytest.raises(OutOfRange, match="MAX_DIMENSION"):
        rep_profile(validate_model(449, 448), ModuleLabel(1, 1))


def test_minimal_weight_profile_examples():
    profile = rep_profile(validate_model(3, 4), ModuleLabel(1, 3))
    data = minimal_weight_profile(profile)
    assert data.alpha == (F(1, 24),)
    assert data.k0 == F(1, 2) == profile.h

    profile = rep_profile(validate_model(5, 2), ModuleLabel(3, 1))
    data = minimal_weight_profile(profile)
    assert data.alpha == (F(59, 60),)
    assert data.k0 == F(59, 5)


def test_minimal_weight_profile_alpha_window():
    for p, q, m, n in [(3, 4, 1, 1), (5, 2, 1, 1), (7, 4, 5, 1), (5, 7, 3, 5)]:
        profile = rep_profile(validate_model(p, q), ModuleLabel(m, n))
        data = minimal_weight_profile(profile)
        for a, l in zip(data.alpha, profile.lam):
            assert 0 <= a < 1
            assert (l - a).denominator == 1


def test_minimal_weight_profile_matches_fraction_oracle():
    # every acting label with s <= 3 up to grid 60: (p - m)(q - n) <= 6
    # with m and n odd
    checked = 0
    for model in models(60, 60):
        p, q = model.p, model.q
        for m in range(max(1, p - 6), p, 2):
            for n in range(max(1, q - 6 // (p - m)) | 1, q, 2):
                profile = rep_profile(model, ModuleLabel(m, n))
                assert profile.s <= 3
                data = minimal_weight_profile(profile)
                assert (data.alpha, data.k0) == fraction_minimal_weight(profile.lam), (
                    p, q, m, n)
                checked += 1
    assert checked == 3405


def test_minimal_weight_profile_guards():
    big = rep_profile(validate_model(5, 7), ModuleLabel(1, 3))
    with pytest.raises(OutOfScopeDimension):
        minimal_weight_profile(big)


def test_irreducibility_examples():
    assert irreducibility_certificate(
        rep_profile(validate_model(3, 4), ModuleLabel(1, 1))) == IRREDUCIBLE
    # dimension one is vacuously irreducible even with r_1 = 0
    assert irreducibility_certificate(
        rep_profile(validate_model(3, 4), ModuleLabel(1, 3))) == IRREDUCIBLE
    # (9, 2) vacuum has r_2 = 1/12, a twelfth root of unity on a singleton
    profile = rep_profile(validate_model(9, 2), ModuleLabel(1, 1))
    assert F(1, 12) in profile.r
    assert irreducibility_certificate(profile) == INCONCLUSIVE


def test_profile_and_certificate_match_kac_oracle():
    # every canonical label at p, q <= 14: the record's c and h against the
    # Kac formula; on every acting label, whatever its s, the partner h and
    # lambda strings (rendered once per model) and the r strings; with
    # s <= 12 also lam and r of the profile, and the residue-bitset
    # certificate against listing all subsets
    seen = set()
    certificates = set()
    largest_s = 0
    for model in models(14, 14):
        p, q = model.p, model.q
        for label in list_modules(model):
            m, n = label.m, label.n
            record = analysis.analyze(p, q, m, n)
            assert record["c"] == analysis.frac_str(kac_central_charge(p, q))
            assert record["h"] == analysis.frac_str(kac_weight(p, q, m, n))
            if not label.is_acting:
                continue
            profile = rep_profile(model, label)
            largest_s = max(largest_s, profile.s)
            assert profile.big == 48 * p * q
            oracle = kac_exponents(p, q, m, n)
            keys = [min((a, b), (p - a, q - b)) for a, b in profile.box]
            assert sorted(keys) == sorted(oracle)
            expected = [oracle[key] for key in keys]
            assert profile.lam == tuple(lam for _, lam, _ in expected)
            assert profile.r == tuple(r for _, _, r in expected)
            assert [x["h"] for x in record["partners"]] == [
                analysis.frac_str(h) for h, _, _ in expected]
            assert record["lambda"] == [analysis.frac_str(lam) for _, lam, _ in expected]
            assert record["r"] == [analysis.frac_str(r) for _, _, r in expected]
            if profile.s > 12:
                continue
            seen.add((p, q, m, n))
            cert = brute_certificate(profile.r)
            assert irreducibility_certificate(profile) == cert, (p, q, m, n)
            certificates.add(cert)
            assert record["irreducibility"] == cert
    assert len(seen) == 537
    # the string table is not bounded by the certificate's cap on s
    assert largest_s > SUBSET_CAP
    assert certificates == {IRREDUCIBLE, INCONCLUSIVE}
    # hand-picked labels with s = 2 .. 8, (9, 2, 1, 1) having r_2 = 1/12
    assert {(3, 4, 1, 1), (5, 2, 1, 1), (9, 2, 1, 1), (5, 7, 1, 3),
            (5, 4, 1, 1), (7, 2, 1, 1), (3, 8, 1, 1)} <= seen

    # a table hit, then an eviction by one model more than the table
    # keeps: each rebuilt record equals the first, which a caller may
    # change without touching later records
    tables = analysis._model_table
    first = analysis.analyze(5, 7, 1, 3)
    kept = copy.deepcopy(first)
    first["partners"][0]["h"] = first["lambda"][0] = "changed"
    hits = tables.cache_info().hits
    assert analysis.analyze(5, 7, 1, 3) == kept
    assert tables.cache_info().hits == hits + 1
    others = [model for model in models(14, 14) if (model.p, model.q) != (5, 7)]
    for model in others[:analysis._MODEL_TABLES + 1]:
        analysis.analyze(model.p, model.q, 1, 1)
    misses = tables.cache_info().misses
    assert analysis.analyze(5, 7, 1, 3) == kept
    assert tables.cache_info().misses == misses + 1


def test_certificate_matches_subset_listing_on_all_small_residue_tuples():
    # big = 72 puts 12 r_j = x_j / 6; every tuple of up to four x_j in
    # [-2, 7).  Real profiles up to p, q <= 40 never need the sum(x)
    # complement test; tuples such as (1, 6), where only {x_s} qualifies, do.
    # D = 6 takes the bitset store from s = 3 on, D = 40 keeps every s <= 4
    # on the residue set, so both stores see every tuple.  Each tuple is
    # passed as y = x + h_num at three weight numerators, so that both
    # stores also take the x_j = y_j - h_num route with a nonzero shift.
    from itertools import product
    for big in (72, 480):
        for s in range(1, 5):
            for xs in product(range(-2, 7), repeat=s):
                expected = brute_certificate([F(x, big) for x in xs])
                for h in (0, 5, -7 * big):
                    ys = tuple(x + h for x in xs)
                    profile = RepProfile(None, None, s, None, big, ys, h)
                    assert irreducibility_certificate(profile) == expected, (big, xs, h)


def test_small_dimension_analysis_at_large_indices_stays_small():
    # at p, q ~ 10^5 the modulus D = 4pq is ~4 * 10^10, so a D-bit store
    # would need gigabytes; under a 256 MB address-space cap every small-s
    # label must still be analyzed, and its certificate must match listing
    # all subsets of its r_j
    src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
    script = textwrap.dedent("""
        import json, resource
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
        from minrep.analysis import analyze
        p, q = 100003, 100000
        out = []
        for a in range(1, 5):
            for b in (1, 3, 5, 7):
                if a * b <= 12:
                    out.append(analyze(p, q, p - 2 * a, q - b))
        print(json.dumps(out))
        """)
    run = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    records = json.loads(run.stdout)
    assert sorted(rec["s"] for rec in records) == [1, 2, 3, 3, 4, 5, 6, 7, 9, 10, 12]
    certificates = set()
    for rec in records:
        cert = brute_certificate([Fraction(r) for r in rec["r"]])
        assert rec["irreducibility"] == cert, (rec["m"], rec["n"])
        certificates.add(cert)
    assert certificates == {IRREDUCIBLE, INCONCLUSIVE}


def test_irreducibility_cap():
    profile = rep_profile(validate_model(23, 24), ModuleLabel(1, 1))
    assert profile.s == 253
    with pytest.raises(SubsetBlowup):
        irreducibility_certificate(profile)


#: (p - m, q - n) of each s <= 3 shape, and the residues of x_j mod
#: D = 4pq that the proof in minimal_weight_profile reads off the closed
#: forms (None for s = 1, where no proper nonempty subset exists)
_LOW_DIM_RESIDUES = {
    (2, 1): None,
    (2, 2): lambda p, q: (10 * p * q, -2 * p * q),
    (4, 1): lambda p, q: (-12 * q * q, 12 * q * q),
    (2, 3): lambda p, q: (4 * p * p, -8 * p * p, 4 * p * p),
    (6, 1): lambda p, q: (-32 * q * q, -8 * q * q, 40 * q * q),
}


def _assert_certified_irreducible(p, q, gap):
    profile = rep_profile(validate_model(p, q), ModuleLabel(p - gap[0], q - gap[1]))
    residues = _LOW_DIM_RESIDUES[gap]
    d = 4 * p * q
    if residues is not None:
        xs = [v - profile.h_num for v in profile.y]
        assert [v % d for v in xs] == [v % d for v in residues(p, q)], (p, q, gap)
    assert irreducibility_certificate(profile) == IRREDUCIBLE, (p, q, gap)
    data = minimal_weight_profile(profile)
    assert len(data.alpha) == profile.s <= 3


def test_low_dim_families_are_certified_irreducible():
    # every acting label of the five s <= 3 shapes up to grid 60, s = 1
    # included, has the proof's residues and passes the certificate
    checked = set()
    for model in models(60, 60):
        p, q = model.p, model.q
        for gap in _LOW_DIM_RESIDUES:
            m, n = p - gap[0], q - gap[1]
            if m >= 1 and n >= 1 and n % 2 == 1:
                _assert_certified_irreducible(p, q, gap)
                checked.add(gap)
    assert checked == set(_LOW_DIM_RESIDUES)


@given(st.sampled_from(sorted(_LOW_DIM_RESIDUES)),
       st.integers(min_value=1, max_value=MAX_INDEX // 2 - 1),
       st.integers(min_value=0, max_value=MAX_INDEX // 2 - 2))
@settings(max_examples=200, deadline=None)
def test_low_dim_families_are_certified_irreducible_up_to_max_index(gap, a, b):
    # p odd and q of the parity that makes n = q - gap[1] odd, both at most
    # MAX_INDEX; the label is acting when m = p - gap[0] >= 1
    p, q = 2 * a + 1, gap[1] + 1 + 2 * b
    assume(p - gap[0] >= 1 and gcd(p, q) == 1)
    _assert_certified_irreducible(p, q, gap)
