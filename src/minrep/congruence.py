"""Level computation and congruence/noncongruence certificates.

The level of rho_{m,n} is the order N of rho(T) in the image group; rho(T)
is diagonal with entries e^{2 pi i r_j}, so N is the lcm of the reduced
denominators of the r_j, and it always divides 48 p q.

A congruence representation of level N factors through SL2(Z/NZ), which
splits as a product over the prime powers r^t dividing N exactly.  By the
Nobs-Wolfart classification the smallest dimension of a nontrivial
irreducible representation of SL2(Z/r^t Z) is

    1            for r = 2, t <= 2,
    2            for r = 2, t = 3,
    3 * 2^(t-4)  for r = 2, t >= 4,
    (r-1)/2      for r > 2, t = 1,
    (r^2-1) r^(t-2) / 2   for r > 2, t > 1,

and multiplying these minima over the prime powers in N lower-bounds the
dimension of any *irreducible* congruence representation of that level,
which factors as a tensor product over the prime powers.  A reducible one
can split the prime powers across its constituents (a level-5 piece of
dimension 2 plus a level-7 piece of dimension 3 is congruence of level 35
and dimension 5 < 2 * 3), so without irreducibility the sound bound is
max(1, sum of the minima m(r, t) >= 2).  Whenever the actual dimension s
falls below the product, an irreducible representation cannot be
congruence; that certificate, with its irreducibility premise, drives all
the arithmetic noncongruence criteria here.

Two valuation facts pin the level down: for a prime r > 3 dividing p with
m <= p - 4 one has nu_r(N) = nu_r(p), and for r > 3 dividing q with
n <= q - 3 one has nu_r(N) = nu_r(q).  The "lemmas" suite of selftest
checks both on every acting label of its grid.  Combined with the exact
2-adic count (for p, q, m, n all odd every numerator of r_j is divisible
by 2 but not 4, so nu_2(N) = 3), these give clean noncongruence
statements when p and q are powers of primes exceeding 3.

Every stage here after the profile takes the RepProfile of an acting
label alone (rep_profile has validated its model and label): level,
classify_low_dim, the three arithmetic criteria and congruence_verdict.
congruence_verdict reads the verdict off one ordered table of rows: the
explicit classification for s <= 3, the vacuum label (1, 1), the
dimension bound, and the three arithmetic criteria.  The first row that
holds with a status other than unknown decides.  The bound and the
arithmetic criteria are listed in agreeing_criteria when they hold; the
arithmetic criteria never decide, since the bound is their proof.
"""

from functools import lru_cache
from math import gcd, isqrt, prod
from types import MappingProxyType
from typing import NamedTuple

from .core import _check_int
from .errors import NotPrime, OutOfRange, OutOfScopeDimension
# rep_dimension and rep_profile stay bound here so that call-site wrappers
# of congruence.rep_dimension and congruence.rep_profile resolve
from .fusion import rep_dimension
from .repdata import rep_profile
from .spaces import DIM1, DIM2_I, DIM2_II, DIM3_I, low_dim_case

CONGRUENCE = "congruence"
NONCONGRUENCE = "noncongruence"
UNKNOWN = "unknown"

# criterion tags carried by verdicts
VACUUM = "vacuum"
ONE_DIMENSIONAL = "one-dimensional"
DIM2_CONSTANT_REP = "dim2-constant-rep"
DIM2_P5 = "dim2-p5"
DIM2_INFINITE_IMAGE = "dim2-infinite-image"
DIM3_UNDETERMINED = "dim3-undetermined"
DIM3_LEVEL_DIVISOR = "dim3-level-divisor"
DIM3_INFINITE_IMAGE = "dim3-infinite-image"
NW_DIMENSION_BOUND = "nw-dimension-bound"
PRIME_POWER_BOUND = "prime-power-bound"
BOUNDARY_PRIME_POWER = "boundary-prime-power"
DISTINCT_PRIMES = "distinct-primes"
NO_CRITERION = "none"

#: 2^6 * 3^3 * 5^2 * 7^2; the finite-image three-dimensional family at
#: (p-2, q-3) is noncongruence whenever q does not divide this number
DIM3_DIVISOR_BOUND = 2 ** 6 * 3 ** 3 * 5 ** 2 * 7 ** 2

#: levels, and their Nobs-Wolfart products, kept; a grid-16 scan meets 96
#: distinct levels over its 1,372 acting labels
_LEVELS = 1024


class Level(NamedTuple):
    """Order N of rho(T) with its prime factorization."""

    N: int
    factorization: tuple


def factorize(n):
    """Prime factorization of the int n >= 1 by trial division, as a tuple
    of (prime, exp)."""
    _check_int("the number to factorize", n)
    if n < 1:
        raise OutOfRange("can only factorize n >= 1, got %s" % n)
    out = []
    for r in range(2, isqrt(n) + 1):
        if r * r > n:
            break
        t = 0
        while n % r == 0:
            n //= r
            t += 1
        if t:
            out.append((r, t))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def fast_level(p, q, m, n):
    """Level N of rho_{m,n} for an acting label, in O(1) integer steps.

    With M = 48 p q the exponents are r_j = x_j / M for

        x_j = 12 (n_j p - m_j q)^2 - (n p - m q)^2 + (p - q)^2 - 2 p q,

    so N = lcm_j (M / gcd(M, x_j)) = M / gcd(M, gcd_j x_j).  The partners
    fill the box m_j = (p+1)/2 + i, n_j = (n+1)/2 + j with
    0 <= i < (p-m)/2 and 0 <= j < q-n, on which x is an integer quadratic
    f(i, j).  By Newton's forward differences,
    f(i, j) = sum over a + b <= 2 of C(i, a) C(j, b) (D^a_i D^b_j f)(0, 0),
    and each difference is an integer combination of values at points
    (a', b') with a' <= a, b' <= b.  Terms with a or b past the box width
    vanish (C(i, a) = 0 for i < a), so every box value is an integer
    combination of the values at the box points with i + j <= 2, and the
    gcd over the whole box is the gcd over that corner (Polya's fixed
    divisor, 1915).  The corner must be clipped to the box: boxes one or
    two wide are common (m = p - 2 gives width 1).  The gcd is read off the
    difference table itself, with f = 12 (a0 + j p - i q)^2 + const:
    f(0, 0), D_j f = 12 p (2 a0 + p), D_j^2 f = 24 p^2, D_i f = 12 q (q - 2 a0),
    D_i^2 f = 24 q^2 and D_i D_j f = -24 p q, each kept only inside the box
    (a dropped difference enters the gcd as 0).

    The last two never change the gcd g with M, so they are omitted, and so
    are D_j f at wj <= 3 and D_j^2 f at wj <= 4.  Here p is odd and
    a0 = (n + 1)/2 p - (p + 1)/2 q.
    - 24 p q (both widths > 1): at wj > 3, D_j f is present and 2 a0 + p
      is odd, so v_2(D_j f) = 2; at odd primes v_r(M) = v_r(24 p q).
      Hence g already divides 24 p q.  At wj = 2 and 3 the cases below
      show that gcd(M, f(0, 0)) divides 12 p q.
    - 24 q^2 (wi > 2): then D_i f is present, and for a prime r | p,
      q - 2 a0 = (p + 2) q - (n + 1) p = 2 q (mod r), so D_i f shares
      with p only the one 3 in 12.  At r = 2, v_2(D_i f) = 2 for odd q,
      and v_2(M) = 4 + v_2(q) <= 3 + 2 v_2(q) for even q; at every other
      odd prime, v_r(M) = v_r(3 q) <= v_r(24 q^2).  Hence g already
      divides 24 q^2.
    - D_j f at wj = 2: then n = q - 2 and q is odd, so D_j f = -12 p q.
      f(0, 0) = 2 (mod 4) as p, q, m, n are odd, so v_2(g) <= 1, and at odd
      primes v_r(M) = v_r(12 p q).  Hence g already divides 12 p q.
    - D_j f and D_j^2 f at wj = 3: then n = q - 3, q is even, a0 = -p - q/2
      and f(0, 0) = 4 B with B = (p + q)^2 - wi^2 q^2 + 3 wi p q.  B is odd,
      and B = p^2 (mod r) for every prime r | q, so no prime of q divides
      B.  Hence v_2(gcd(M, f(0, 0))) = 2, no odd prime of q divides it,
      and at the other odd primes v_r(M) = v_r(3 p): gcd(M, f(0, 0))
      divides 12 p, which divides both D_j f and D_j^2 f = 24 p^2.
    - D_j^2 f = 24 p^2 at wj = 4: then n = q - 4, q is odd and
      D_j f = -12 p (2 p + q) with 2 p + q odd and prime to q.  So
      v_2(g) <= 2; 3 divides at most one of q and 2 p + q, so
      v_3(g) <= 1 + v_3(p); and no prime r > 3 of q divides D_j f, so
      v_r(g) <= v_r(p) for r > 3.  Hence g already divides 24 p^2.
    """
    big = 48 * p * q
    a0 = (n + 1) // 2 * p - (p + 1) // 2 * q
    wi, wj = (p - m) // 2, q - n
    return big // gcd(
        big,
        12 * a0 * a0 + (p - q) ** 2 - 2 * p * q - (n * p - m * q) ** 2,
        12 * p * (2 * a0 + p) if wj > 3 else 0,
        24 * p * p if wj > 4 else 0,
        12 * q * (q - 2 * a0) if wi > 1 else 0,
    )


def level(profile):
    """Level of rho_{m,n}: the lcm of the reduced denominators of the r_j.

    Since rho(T) is diagonal this equals the order of rho(T) in the image
    group.  It divides 48 p q and is computed by fast_level; each N is
    factorized once.
    """
    return _level(fast_level(*profile.model, *profile.label))


@lru_cache(maxsize=_LEVELS)
def _level(n):
    return Level(n, factorize(n))


def nu(r, x):
    """r-adic valuation of the nonzero int x, for an int r >= 2."""
    # the type test alone is inlined: selftest runs nu tens of thousands of times
    if type(r) is not int or type(x) is not int:
        _check_int("the base r and the number x of nu", r, x)
    if x == 0 or r < 2:
        raise OutOfRange("nu(r, x) needs r >= 2 and x != 0, got (%s, %s)" % (r, x))
    t = 0
    while x % r == 0:
        x //= r
        t += 1
    return t


def nw_min_dim(r, t):
    """Smallest dimension of a nontrivial irreducible representation of
    SL2(Z/r^t Z) (Nobs-Wolfart), for ints r and t."""
    _check_int("the prime r and the exponent t", r, t)
    if r < 2 or factorize(r) != ((r, 1),):
        raise NotPrime("%s is not prime" % r)
    if t < 1:
        raise NotPrime("exponent must be >= 1, got %s" % t)
    if r == 2:
        if t <= 2:
            return 1
        if t == 3:
            return 2
        return 3 * 2 ** (t - 4)
    if t == 1:
        return (r - 1) // 2
    return (r * r - 1) * r ** (t - 2) // 2


@lru_cache(maxsize=_LEVELS)
def min_congruence_dim(lv):
    """Product of the Nobs-Wolfart minima over the prime powers of N.

    Lower-bounds the dimension of a congruence representation whose T-image
    has order N, for the Level lv of N; returns 1 for N = 1.
    """
    return prod(nw_min_dim(r, t) for r, t in lv.factorization)


@lru_cache(maxsize=8)
def _large_prime_powers(model):
    """((r, a) or None, (s, b) or None) for p = r^a and q = s^b, keeping
    only primes r, s > 3.  Cached so that a scan factorizes p and q once
    per model, not once per label and criterion."""
    out = []
    for x in (model.p, model.q):
        factors = factorize(x)
        out.append(factors[0] if len(factors) == 1 and factors[0][0] > 3 else None)
    return tuple(out)


def _ceil_power(r, a):
    # ceil(r^(a-2)): 1 for a <= 2, else the integer power
    return 1 if a <= 2 else r ** (a - 2)


class CriterionResult(NamedTuple):
    """Outcome of an arithmetic noncongruence predicate with its trace."""

    holds: bool
    trace: dict = MappingProxyType({})   # read-only; the criteria pass their own

    def __bool__(self):
        return self.holds


def prime_power_criterion(profile):
    """Noncongruence test on the profile of (m, n) in V(p, q), when p = r^a
    and q = s^b for distinct primes r, s > 3.

    With alpha = ceil(r^(a-2)) and beta = ceil(s^(b-2)), the representation
    is noncongruence whenever

        alpha <= m <= p - 4,   beta <= n <= q - 4,

    and at least one of alpha < m, beta < n holds.  Returns a
    CriterionResult whose trace records the shape data or the reason for
    failure.
    """
    (p, q), (m, n) = profile.model, profile.label
    pp, qq = _large_prime_powers(profile.model)
    if pp is None:
        return CriterionResult(False, {"reason": "p is not a power of a prime > 3"})
    if qq is None:
        return CriterionResult(False, {"reason": "q is not a power of a prime > 3"})
    alpha = _ceil_power(*pp)
    beta = _ceil_power(*qq)
    trace = {"alpha": alpha, "beta": beta, "p_base": pp[0], "q_base": qq[0]}
    if not (alpha <= m <= p - 4):
        trace["reason"] = "m outside [alpha, p-4]"
        return CriterionResult(False, trace)
    if not (beta <= n <= q - 4):
        trace["reason"] = "n outside [beta, q-4]"
        return CriterionResult(False, trace)
    if not (alpha < m or beta < n):
        trace["reason"] = "neither alpha < m nor beta < n"
        return CriterionResult(False, trace)
    return CriterionResult(True, trace)


def boundary_prime_power_criterion(profile):
    """Noncongruence test on the profile of (m, n) in V(p, q), for the
    boundary shapes m = p-2 and n = q-2.

    Case "i": m = p - 2 and q = s^b a power of a prime s > 3 with
    beta < n <= q - 4.  Case "ii": n = q - 2 and p = r^a a power of a
    prime r > 3 with alpha < m <= p - 4.  Returns a CriterionResult whose
    trace holds the case ("i" or "ii") when it fires, else a reason.
    """
    (p, q), (m, n) = profile.model, profile.label
    pp, qq = _large_prime_powers(profile.model)
    if m == p - 2 and qq is not None and _ceil_power(*qq) < n <= q - 4:
        return CriterionResult(True, {"case": "i"})
    if n == q - 2 and pp is not None and _ceil_power(*pp) < m <= p - 4:
        return CriterionResult(True, {"case": "ii"})
    if m != p - 2 and n != q - 2:
        return CriterionResult(False, {"reason": "neither m = p-2 nor n = q-2"})
    return CriterionResult(False, {"reason": "no boundary case meets its prime-power window"})


def distinct_primes_criterion(profile):
    """Noncongruence on the profile of (m, n) in V(p, q), for p, q distinct
    primes > 3 and (m, n) outside the four exceptional pairs (1,1),
    (1,q-2), (p-2,1), (p-2,q-2).  Returns a CriterionResult; p != q always
    holds, since p and q are coprime."""
    (p, q), (m, n) = profile.model, profile.label
    pp, qq = _large_prime_powers(profile.model)
    if pp is None or qq is None or pp[1] != 1 or qq[1] != 1:
        return CriterionResult(False, {"reason": "p and q are not both primes > 3"})
    if (m, n) in {(1, 1), (1, q - 2), (p - 2, 1), (p - 2, q - 2)}:
        return CriterionResult(False, {"reason": "(m, n) is an exceptional pair"})
    return CriterionResult(True, {})


class CongruenceVerdict(NamedTuple):
    """Congruence status with the criterion that decided it."""

    status: str
    criterion: str
    details: dict


def classify_low_dim(profile):
    """Classification of the representations of dimension s <= 3, from the
    profile of (m, n) in V(p, q).

    s = 1 (label (p-2, q-1)): the trivial representation, congruence.
    s = 2, (p-2, q-2): one fixed congruence representation with
        rho(T) = diag(e(5/24), e(-1/24)) for every p, q.
    s = 2, (p-4, q-1): congruence iff p = 5; infinite image otherwise.
    s = 3, (p-2, q-3): finite image, level 12q / gcd(3, p-q) (12q, or 4q
        when 3 divides p - q); noncongruence when q does not divide
        2^6 3^3 5^2 7^2, undetermined otherwise.
    s = 3, (p-6, q-1): infinite image, noncongruence.
    """
    if profile.s > 3:
        raise OutOfScopeDimension("low-dimension classification needs s <= 3, got %s"
                                  % profile.s)
    model = profile.model
    case = low_dim_case(model, profile.label)
    if case == DIM1:
        return CongruenceVerdict(CONGRUENCE, ONE_DIMENSIONAL, {"rho_T": "1"})
    if case == DIM2_I:
        details = {"r": ["5/24", "-1/24"]}
        if model.p < 5 or model.q < 5:
            # the classification is stated for p, q >= 5; the closed
            # forms still apply to this shape
            details["outside_stated_range"] = True
        return CongruenceVerdict(CONGRUENCE, DIM2_CONSTANT_REP, details)
    if case == DIM2_II:
        if model.p == 5:
            return CongruenceVerdict(CONGRUENCE, DIM2_P5, {"level": 60})
        return CongruenceVerdict(NONCONGRUENCE, DIM2_INFINITE_IMAGE, {})
    if case == DIM3_I:
        if DIM3_DIVISOR_BOUND % model.q != 0:
            return CongruenceVerdict(
                NONCONGRUENCE, DIM3_LEVEL_DIVISOR,
                {"q": model.q, "divisor_bound": DIM3_DIVISOR_BOUND},
            )
        return CongruenceVerdict(
            UNKNOWN, DIM3_UNDETERMINED,
            {"note": "finite image; congruence status undetermined"},
        )
    # an acting label with s <= 3 has a tag, so the one left is DIM3_II
    return CongruenceVerdict(NONCONGRUENCE, DIM3_INFINITE_IMAGE, {})


#: the fixed verdicts of the vacuum and bound rows, and the verdict when no
#: row decides; congruence_verdict only reads their empty details
_VACUUM_VERDICT = CongruenceVerdict(CONGRUENCE, VACUUM, {})
_NW_VERDICT = CongruenceVerdict(NONCONGRUENCE, NW_DIMENSION_BOUND, {})
_UNDECIDED = CongruenceVerdict(UNKNOWN, NO_CRITERION, {})


def congruence_verdict(profile):
    """Verdict on the profile of an acting label, from one ordered table of
    rows, with attributed provenance.

    Each row is (tag listed in agreeing_criteria or None, whether it holds,
    the verdict it decides or None).  In order:

      1. the low-dimension classification classify_low_dim, when s <= 3;
      2. the vacuum label (1, 1), classically congruence;
      3. the Nobs-Wolfart dimension bound s < min_congruence_dim, listed
         as nw-dimension-bound and decisive;
      4. the three arithmetic criteria prime-power-bound,
         boundary-prime-power and distinct-primes, listed but never
         decisive: each is proved through the bound, so it only agrees.

    agreeing_criteria lists the tagged rows that hold.  The first row that
    holds with a status other than unknown decides; if none does, the
    verdict is (unknown, none).  Three invariants are checked on the
    chosen row and raise AssertionError, also under python -O: no tagged
    row holds without the bound, no congruence verdict meets a certified
    bound, and no low-dimension level differs from the computed one.
    Every row reads the profile alone, so s, the level and the label of a
    verdict are those of one profile.  classify_low_dim and the criteria
    are looked up at call time, so a patched one takes effect.
    """
    s = profile.s
    lv = level(profile)
    bound = min_congruence_dim(lv)
    certified = s < bound
    rows = (
        (None, s <= 3, classify_low_dim(profile) if s <= 3 else None),
        (None, profile.label == (1, 1), _VACUUM_VERDICT),
        (NW_DIMENSION_BOUND, certified, _NW_VERDICT),
        # a CriterionResult is truthy exactly when it holds
        (PRIME_POWER_BOUND, prime_power_criterion(profile), None),
        (BOUNDARY_PRIME_POWER, boundary_prime_power_criterion(profile), None),
        (DISTINCT_PRIMES, distinct_primes_criterion(profile), None),
    )
    agreeing = [tag for tag, holds, _ in rows if tag and holds]
    for _, holds, chosen in rows:
        if chosen is not None and holds and chosen.status != UNKNOWN:
            break
    else:
        chosen = _UNDECIDED
    if agreeing and not certified:
        raise AssertionError("arithmetic criterion fired without the dimension bound")
    if chosen.status == CONGRUENCE and certified:
        raise AssertionError("congruence verdict contradicts the dimension bound")
    if chosen.details.get("level", lv.N) != lv.N:
        raise AssertionError("low-dimension classification contradicts the computed level")
    details = {
        "s": s,
        "level": lv.N,
        "level_factorization": [list(ft) for ft in lv.factorization],
        "min_congruence_dim": bound,
        "agreeing_criteria": agreeing,
    }
    details.update(chosen.details)
    return CongruenceVerdict(chosen.status, chosen.criterion, details)
