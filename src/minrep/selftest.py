"""Built-in verification sweeps, shared by the CLI and the test suite.

Each suite returns a SuiteResult with the number of checks performed and a
list of failure descriptions (empty when everything holds).  The sweeps are
exact; there are no tolerances anywhere.
"""

from fractions import Fraction
from typing import NamedTuple

from . import qseries
from .congruence import factorize, fast_level, nu
from .core import ModuleLabel, models
from .repdata import minimal_weight_identity, prime_case_closed_forms, rep_profile
from .spaces import SHAPES, ratio_lambda_consistency

#: frozen constants of the two derivative identities on the Eisenstein
#: generators, in the G-normalisation used here; both were derived by an
#: independent series oracle before being pinned
D4_G4_OVER_G6 = Fraction(14)
D6_G6_OVER_G4SQ = Fraction(60, 7)


class SuiteResult(NamedTuple):
    name: str
    checked: int
    failures: list

    @property
    def ok(self):
        """A suite passes only when it ran at least one check and none failed."""
        return self.checked > 0 and not self.failures


def suite_monic(grid):
    """Minimal weight identity and closed forms, for prime dimensions.

    Sweeps every acting label with s in {1} union primes over coprime
    p, q <= grid, checking h = 12 (sum lambda)/s + 1 - s exactly and that
    the closed-form exponents reproduce the general computation entrywise.
    Since s = ((p - m)/2)(q - n), s is 1 or prime exactly on the two shapes
    (p - 2s, q - 1) and (p - 2, q - s), which are enumerated directly, in
    (m, n) order and with s = 1 once.
    """
    checked = 0
    failures = []
    primes = [s for s in range(grid, 1, -1) if factorize(s) == ((s, 1),)]
    for model in models(grid, grid):
        p, q = model.p, model.q
        cells = [(p - 2 * s, q - 1) for s in primes if 2 * s < p] if q % 2 == 0 else []
        cells += [(p - 2, q - s) for s in primes + [1] if s < q and (q - s) % 2]
        for m, n in cells:
            label = ModuleLabel(m, n)
            profile = rep_profile(model, label)
            checked += 1
            if not minimal_weight_identity(profile):
                failures.append("identity fails at (%s,%s,%s,%s)" % (p, q, m, n))
            _, y, x = prime_case_closed_forms(model, label)
            if y != profile.y or x != profile.x:
                failures.append("closed forms differ at (%s,%s,%s,%s)" % (p, q, m, n))
    return SuiteResult("monic", checked, failures)


def suite_lemmas(grid):
    """Valuation lemmas: nu_r(N) = nu_r(p) resp. nu_r(q) for primes r > 3.

    The acting canonical labels are exactly the odd (m, n), so the sweep
    runs over those directly.  Uses congruence.fast_level; its agreement
    with an exact Fraction oracle is covered separately by the test suite.
    """
    checked = 0
    failures = []
    for model in models(grid, grid):
        p, q = model.p, model.q
        p_primes = [(r, t) for r, t in factorize(p) if r > 3]
        q_primes = [(r, t) for r, t in factorize(q) if r > 3]
        if not p_primes and not q_primes:
            continue
        for m in range(1, p, 2):
            p_wanted = p_primes if m <= p - 4 else []
            for n in range(1, q, 2):
                wanted = p_wanted + q_primes if n <= q - 3 else p_wanted
                if not wanted:
                    continue
                level_n = fast_level(p, q, m, n)
                for r, t in wanted:
                    checked += 1
                    seen = nu(r, level_n)
                    if seen != t:
                        failures.append(
                            "nu_%s mismatch at (%s,%s,%s,%s): N=%s has %s, expected %s"
                            % (r, p, q, m, n, level_n, seen, t)
                        )
    return SuiteResult("lemmas", checked, failures)


def suite_ratios(grid):
    """Window/exponent agreement for the five classified s <= 3 shapes.

    The shape (p-6, q-1) has no window, so there the check is that its
    exponents are never all in [0, 1).
    """
    checked = 0
    failures = []
    for model in models(grid, grid):
        p, q = model.p, model.q
        for dm, dn in SHAPES.values():
            label = ModuleLabel(p - dm, q - dn)
            if label.m < 1 or label.n < 1 or not label.is_acting:
                continue
            checked += 1
            if not ratio_lambda_consistency(model, label):
                failures.append("window mismatch at (%s,%s,%s,%s)" % (p, q, label.m, label.n))
    return SuiteResult("ratios", checked, failures)


def suite_qseries(order=qseries.DEFAULT_ORDER):
    """Exact q-expansion identities at the given truncation order."""
    checked = 0
    failures = []

    def check(condition, message):
        nonlocal checked
        checked += 1
        if not condition:
            failures.append(message)

    for w in range(1, 25):
        check(qseries.eta_power(w, order).derivative().is_zero(), "D eta^%s is not zero" % w)

    g2 = qseries.eisenstein(2, order)
    g4 = qseries.eisenstein(4, order)
    g6 = qseries.eisenstein(6, order)
    check(g2.series.coefficient(0) == Fraction(-1, 12), "G2 constant term")
    check(g4.series.coefficient(0) == Fraction(1, 720), "G4 constant term")
    check(g6.series.coefficient(0) == Fraction(-1, 30240), "G6 constant term")

    check((g4.derivative().series - g6.series * D4_G4_OVER_G6).is_zero(), "D_4 G4 != 14 G6")
    d6g6 = g6.derivative().series
    g4sq = g4.series * g4.series
    check((d6g6 - g4sq * D6_G6_OVER_G4SQ).is_zero(), "D_6 G6 != (60/7) G4^2")

    # operator ring: Leibniz composition matches application order, on a
    # probe that D does not kill (D eta^w = 0 would make two pairs 0 == 0)
    der = qseries.ModularOperator.derivative(order)
    mult_g4 = qseries.ModularOperator({0: g4})
    for a, b in [(der, mult_g4), (mult_g4, der), (der, der)]:
        left = qseries.apply_operator(a.compose(b), g4)
        right = qseries.apply_operator(a, qseries.apply_operator(b, g4))
        check((left.series - right.series).is_zero(), "compose/apply mismatch")

    # associativity on a degree-3 product
    comp_ab = der.compose(mult_g4)
    check(
        _operators_agree(comp_ab.compose(der), der.compose(mult_g4.compose(der))),
        "composition is not associative",
    )
    return SuiteResult("qseries", checked, failures)


def _operators_agree(a, b):
    """a == b degree by degree: every entry of a - b is zero.  Operators
    with different raises disagree; __add__ would reject their sum."""
    if a.weight_raise != b.weight_raise:
        return False
    diff = a + qseries.ModularOperator({i: y * -1 for i, y in b.coeffs.items()})
    return all(x.is_zero() for x in diff.coeffs.values())


_SUITES = {
    "monic": (suite_monic, 50),
    "lemmas": (suite_lemmas, 60),
    "ratios": (suite_ratios, 60),
    "qseries": (suite_qseries, None),
}


def run_selftests(suite="all", grid=None):
    """Run the named suite (or all of them); returns a list of SuiteResult."""
    names = list(_SUITES) if suite == "all" else [suite]
    out = []
    for name in names:
        func, default_grid = _SUITES[name]
        if default_grid is None:
            out.append(func())
        else:
            out.append(func(grid if grid is not None else default_grid))
    return out
