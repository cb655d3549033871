"""Independent brute-force oracles.

These deliberately re-implement the definitions from scratch (no calls into
the library paths they check) so that agreement is a genuine cross-check.
"""

from fractions import Fraction
from math import floor, isqrt, lcm


def admissible(p, q, triple):
    """The fusion rules, literally, for ((m, n), (m_j, n_j), (m_k, n_k)).

    Range, triangle, perimeter and parity; out-of-range indices give
    False.  No flip branch: the flip trades the perimeter inequality with
    the first triangle inequality and the other two triangle inequalities
    with each other, and keeps the parity.
    """
    (m, n), (mj, nj), (mk, nk) = triple
    for a, b, c, bound in ((m, mj, mk, p), (n, nj, nk, q)):
        if not (0 < a < bound and 0 < b < bound and 0 < c < bound):
            return False
        if not (a < b + c and b < a + c and c < a + b):
            return False
        if not (a + b + c < 2 * bound and (a + b + c) % 2 == 1):
            return False
    return True


def brute_self_coupled(p, q, m, n):
    """All self-coupled partner classes of (m, n), by exhaustive search.

    Enumerates every (a, b) in the full admissibility box 0 < a < p,
    0 < b < q, keeps those for which {(m,n),(a,b),(a,b)} satisfies the
    rules literally, and dedupes by the flip identification
    (a, b) ~ (p-a, q-b).  Returns a set of canonical-key pairs
    min((a,b), (p-a,q-b)).
    """
    found = set()
    for a in range(1, p):
        sa = m + 2 * a
        # triangle, perimeter and parity on the m side; range is the loop bound
        if not (m < 2 * a and sa < 2 * p and sa % 2 == 1):
            continue
        for b in range(1, q):
            sb = n + 2 * b
            if n < 2 * b and sb < 2 * q and sb % 2 == 1:
                found.add(min((a, b), (p - a, q - b)))
    return found


def kac_central_charge(p, q):
    """c = 1 - 6(p-q)^2 / (pq), an exact Fraction."""
    return 1 - Fraction(6 * (p - q) ** 2, p * q)


def kac_weight(p, q, a, b):
    """h_{a,b} = ((bp - aq)^2 - (p-q)^2) / (4pq), an exact Fraction."""
    return Fraction((b * p - a * q) ** 2 - (p - q) ** 2, 4 * p * q)


def kac_exponents(p, q, m, n):
    """Exponent data of the acting label (m, n), straight from the Kac formula.

    Returns {key: (h, lam, r)} over the partner classes found by
    brute_self_coupled, with exact Fractions: h = h_{a,b} (kac_weight),
    lam = h - c/24 (c from kac_central_charge), and r = lam - h_{m,n}/12.
    h_{a,b} is invariant under the flip, so the values do not depend on
    the class representative.
    """
    c = kac_central_charge(p, q)
    h_mn = kac_weight(p, q, m, n)
    out = {}
    for key in brute_self_coupled(p, q, m, n):
        h = kac_weight(p, q, *key)
        lam = h - c / 24
        out[key] = (h, lam, lam - h_mn / 12)
    return out


def fraction_level(p, q, m, n):
    """Level of rho_{m,n}: the lcm of the reduced denominators of the r_j,
    with every r_j an exact Fraction from kac_exponents."""
    out = 1
    for _, _, r in kac_exponents(p, q, m, n).values():
        out = lcm(out, r.denominator)
    return out


def surd_sign(t, c, d):
    """Sign of t - c*sqrt(d) for integers t, c and d >= 0, by isqrt.

    For c >= 0, c*sqrt(d) = sqrt(X) with X = c^2 d and root = isqrt(X) <=
    sqrt(X) < root + 1, equality only when root^2 = X; so t > root gives
    +1, t < root gives -1, and t = root gives 0 or -1.  Negative c is the
    mirror image: t + |c| sqrt(d) = -((-t) - |c| sqrt(d)).
    """
    if c < 0:
        return -surd_sign(-t, -c, d)
    x = c * c * d
    root = isqrt(x)
    if t != root:
        return 1 if t > root else -1
    return 0 if root * root == x else -1


def _valuation(r, x):
    t = 0
    while x % r == 0:
        x //= r
        t += 1
    return t


def _primes_above_3(x):
    return [r for r in range(5, x + 1)
            if x % r == 0 and all(r % d for d in range(2, r))]


def valuation_lemma(p, q, m, n):
    """(r, nu_r(N), nu_r(p or q)) for each prime r > 3 whose lemma hypothesis
    holds at the acting label (m, n): r | p with m <= p - 4, or r | q with
    n <= q - 3.  N is fraction_level(p, q, m, n); the lemma says the last
    two entries agree.
    """
    cases = [(r, p) for r in _primes_above_3(p) if m <= p - 4]
    cases += [(r, q) for r in _primes_above_3(q) if n <= q - 3]
    if not cases:
        return []
    level = fraction_level(p, q, m, n)
    return [(r, _valuation(r, level), _valuation(r, x)) for r, x in cases]


def brute_certificate(rs):
    """"inconclusive" when some proper nonempty subset of the exponents rs
    has 12 * sum integral, "irreducible" otherwise, by listing all subsets.

    With d the lcm of the denominators of the 12 r, sums[mask] is d times
    12 times the sum of the rs picked by the bits of mask, so sums[0] is the
    empty set and sums[-1] the full one.
    """
    d = lcm(*((12 * r).denominator for r in rs))
    sums = [0]
    for r in rs:
        v = int(12 * r * d)
        sums += [t + v for t in sums]
    if any(t % d == 0 for t in sums[1:-1]):
        return "inconclusive"
    return "irreducible"


def fraction_minimal_weight(lams):
    """Reduced exponents alpha_j = lambda_j - floor(lambda_j) and the
    minimal weight k0 = 12/s * sum(alpha_j) + 1 - s, in Fractions, from
    the leading exponents lams of an s-dimensional representation."""
    s = len(lams)
    alpha = tuple(lam - floor(lam) for lam in lams)
    return alpha, Fraction(12, s) * sum(alpha) + 1 - s


def partner_canonical_keys(p, q, pairs):
    """Map library partner pairs to the oracle's canonical keys."""
    return {min((a, b), (p - a, q - b)) for a, b in pairs}


def series_ratio(numer, denom):
    """The constant c with numer = c * denom coefficientwise, or None.

    Both arguments are QSeries; the ratio is taken over the overlap of the
    two windows and must be consistent on every coefficient.
    """
    if numer.is_zero():
        return 0
    if numer.offset != denom.offset:
        return None
    n = min(numer.order, denom.order)
    ratio = None
    for j in range(n + 1):
        a, b = numer.coeffs[j], denom.coeffs[j]
        if b == 0:
            if a != 0:
                return None
            continue
        c = a / b
        if ratio is None:
            ratio = c
        elif c != ratio:
            return None
    return ratio


def integer_product(xs, ys):
    """The first min(len(xs), len(ys)) coefficients of the product of the
    integer polynomials xs and ys, by the schoolbook double loop."""
    n = min(len(xs), len(ys))
    return [sum(xs[i] * ys[k - i] for i in range(k + 1)) for k in range(n)]


def euler_product(order):
    """The coefficients of prod_{1 <= n <= order} (1 - q^n) through q^order,
    multiplied out one factor at a time on a list of integers."""
    out = [1] + [0] * order
    for n in range(1, order + 1):
        # times (1 - q^n), from the top so that each term is read unchanged
        for j in range(order, n - 1, -1):
            out[j] -= out[j - n]
    return out


def series_product(off_a, coeffs_a, off_b, coeffs_b):
    """(offset, coefficients) of the truncated product of two q-series.

    The literal Fraction schoolbook product: the series q^off_a sum a_i q^i
    and q^off_b sum b_j q^j are known through relative order
    n = min(len(coeffs_a), len(coeffs_b)) - 1, so the product is known for
    q^(off_a + off_b + k) with 0 <= k <= n and has coefficient
    sum_{i + j = k} a_i b_j there.
    """
    a = [Fraction(c) for c in coeffs_a]
    b = [Fraction(c) for c in coeffs_b]
    n = min(len(a), len(b)) - 1
    out = [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
           for k in range(n + 1)]
    return Fraction(off_a) + Fraction(off_b), out


def dim3_case_i_exponents(p, q):
    """Closed-form rho(T) exponents (r_1, r_2, r_3) of the label (p-2, q-3).

    For p odd and q even the self-coupled partners of (p-2, q-3) are the
    three classes of (a, b) = ((p-1)/2, q/2 + k) with k = 1, 0, -1, in that
    order.  With h_{a,b} = ((bp - aq)^2 - (p-q)^2) / (4pq),
    c = 1 - 6(p-q)^2 / (pq) and r = h_{a,b} - c/24 - h_{p-2,q-3}/12, one has
    bp - aq = (2kp + q)/2 and (q-3)p - (p-2)q = 2q - 3p.  Over the common
    denominator 48pq the numerator of r_k is p (12k^2 p - 8p + 12kq + 8q), so

        r_k = (12k^2 p - 8p + 12kq + 8q) / (48q),

    that is

        r = ((p+5q)/(12q), (q-p)/(6q), (p-q)/(12q)).

    Level: the numerators p + 5q, q - p and p - q are odd and, since
    gcd(p, q) = 1, coprime to q; their gcd with 3 is g = gcd(3, p-q),
    because p + 5q = p - q (mod 3).  The reduced denominators are 12q/g,
    6q/g and 12q/g, so their lcm is N = 12q / gcd(3, p-q): 12q when 3 does
    not divide p - q, and 4q when it does (smallest case (7, 4):
    r = (9/16, -1/8, 1/16), N = 16).
    """
    return (Fraction(p + 5 * q, 12 * q), Fraction(q - p, 6 * q),
            Fraction(p - q, 12 * q))
