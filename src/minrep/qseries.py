"""Exact truncated q-expansions, Eisenstein series, eta powers and the ring
of modular differential operators.

A QSeries stores a rational leading exponent e, integer numerators
a_0..a_T and one positive integer denominator d, representing

    q^e (a_0 + a_1 q + ... + a_T q^T) / d,

in a canonical form: gcd(d, a_0, ..., a_T) = 1, and a_0 != 0 unless the
series is zero through its window (leading zeros move into e).  Equal
series therefore have equal (e, d, numerators), and every zero series
equals every other.  Addition requires the two exponents to differ by an
integer (the series live on a common fractional lattice), except that a
zero series on another lattice is absorbed exactly; a sum is known only
as far as both summands are.  A product is known through the shorter
window.

Arithmetic runs on the integers: a sum scales both numerator lists to
the lcm of the denominators, a scalar scales the numerators and the
denominator, q d/dq multiplies a_j by (e + j) over the denominator of e,
and a product is one integer convolution over the product of the
denominators, each followed by one gcd reduction.  The convolution is a
Kronecker substitution: each operand is packed into one big integer with
slots wide enough for the largest product coefficient, the two integers
are multiplied once, and the low slots are read back.  Fractions appear
only at the edges: the public constructor, the coeffs view, coefficient,
serialize and the rational exponent.

The graded ring M = C[G4, G6] of level-one modular forms is generated by
the Eisenstein series, normalised as

    G_k = -B_k / k! + (2 / (k-1)!) * sum_{n>=1} sigma_{k-1}(n) q^n,

with B_k the k-th Bernoulli number; the quasimodular G2 = -1/12 + 2 q + ...
enters the modular derivative in weight k,

    D_k = q d/dq + k G2,

which raises weight by two.  Dedekind's eta function q^{1/24} prod (1-q^n)
satisfies D_k eta^{2k} = 0, the normalisation anchor for the multiplier
convention used throughout (eta^{2k} transforms in weight k with
T-multiplier e^{2 pi i k / 12}; the multiplier is bookkeeping only and
never enters series arithmetic).

Operators phi_0 + phi_1 D + ... + phi_n D^n with phi_i in M compose by the
Leibniz rule D phi = phi D + (D_k phi) for phi of weight k.  Operators are
kept weight homogeneous: phi_i must have weight w - 2i for a fixed w so
the operator raises any input weight by w.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, floor, gcd, lcm
from operator import add
from types import MappingProxyType

from .core import _EXACT, _check_exact, _check_int
from .errors import (ExponentMismatch, InhomogeneousOperator, OddWeight, OutOfRange,
                     WeightMismatch)

#: default truncation order for q-expansions
DEFAULT_ORDER = 40
#: largest truncation order the qseries command accepts
MAX_ORDER = 10_000
#: largest G4, G6 or D exponent and eta power the qseries command accepts
MAX_POWER = 100
#: entries kept by each per-order cache (Bernoulli lists, Eisenstein series,
#: Euler coefficients), so that a long-lived process cannot grow them without
#: end: a command uses at most 4 keys of each (G2, G4, G6 and the --apply
#: target G_k, at one order), and selftest 3, 3 and 1
_CACHED_ORDERS = 8

class QSeries:
    """Truncated q-expansion q^offset * (nums[0] + nums[1] q + ...) / den,
    with integer numerators over one positive denominator, in lowest
    terms, and a rational leading exponent."""

    __slots__ = ("offset", "nums", "den")

    def __init__(self, offset, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise OutOfRange("a QSeries needs at least one coefficient")
        for value in (offset,) + coeffs:
            _check_exact("q-series offsets and coefficients", value)
        den = lcm(*(c.denominator for c in coeffs))
        self._normalise(Fraction(offset),
                        [c.numerator * (den // c.denominator) for c in coeffs], den)

    def _normalise(self, offset, nums, den):
        """Store nums / den (den > 0) in canonical form."""
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        if not nums[0]:
            lead = next((i for i, x in enumerate(nums) if x), None)
            if lead:
                offset += lead
                nums = nums[lead:]
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @property
    def coeffs(self):
        """The coefficients as Fractions, from q^offset up."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    @property
    def order(self):
        """Relative truncation order T: coefficients cover q^offset..q^(offset+T)."""
        return len(self.nums) - 1

    def is_zero(self):
        return not self.nums[0]

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (self.offset, self.den, self.nums) == (other.offset, other.den, other.nums)

    def __hash__(self):
        if self.is_zero():
            return hash("qseries-zero")
        return hash((self.offset, self.den, self.nums))

    def __repr__(self):
        return "QSeries(%s)" % self.serialize()

    def coefficient(self, exponent):
        """Exact coefficient of q^exponent.

        Exponents below the window or off the lattice give 0 exactly;
        exponents beyond the truncation raise OutOfRange.
        """
        rel = Fraction(exponent) - self.offset
        if rel.denominator != 1:
            return Fraction(0)
        rel = int(rel)
        if rel < 0:
            return Fraction(0)
        if rel > self.order:
            raise OutOfRange("coefficient of q^%s lies beyond the truncation" % exponent)
        return Fraction(self.nums[rel], self.den)

    def __neg__(self):
        return _series(self.offset, [-x for x in self.nums], self.den)

    def __add__(self, other):
        if type(other) in _EXACT:
            # a scalar is exact: its window reaches as far as self's
            top = max(0, floor(self.offset) + self.order)
            num, den = other.as_integer_ratio()
            other = _series(Fraction(0), [num] + [0] * top, den)
        if not isinstance(other, QSeries):
            return NotImplemented
        shift = other.offset - self.offset
        if shift.denominator != 1:
            # a series vanishes off its lattice, so a zero on another
            # lattice adds nothing; on the same lattice its window bounds
            # the sum like any other summand's
            if other.is_zero():
                return self
            if self.is_zero():
                return other
            raise ExponentMismatch(
                "cannot add series with exponents %s and %s on different lattices"
                % (self.offset, other.offset)
            )
        a, b, shift = (self, other, int(shift)) if shift >= 0 else (other, self, -int(shift))
        # both series vanish below their windows, so the sum is known from
        # a's offset through relative order top
        top = min(a.order, shift + b.order)
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        out = [x * sa for x in a.nums[: top + 1]]
        ys = [y * sb for y in b.nums[: max(0, top + 1 - shift)]]
        out[shift:] = map(add, out[shift:], ys)
        return _series(a.offset, out, den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) in _EXACT:
            num, den = other.as_integer_ratio()
            return _series(self.offset, [x * num for x in self.nums], self.den * den)
        if not isinstance(other, QSeries):
            return NotImplemented
        return _series(self.offset + other.offset, _convolve(self.nums, other.nums),
                       self.den * other.den)

    def q_derivative(self):
        """q d/dq: multiplies the q^(offset+j) coefficient by offset + j."""
        a, b = self.offset.numerator, self.offset.denominator
        steps = range(a, a + b * len(self.nums), b)
        return _series(self.offset, [x * e for x, e in zip(self.nums, steps)], self.den * b)

    def serialize(self):
        """Render as "q^(a/b) * [c0, c1, ...]" with exact fractions."""
        off = Fraction(0) if self.is_zero() else self.offset
        body = ", ".join(map(str, self.coeffs))
        return "q^(%s/%s) * [%s]" % (off.numerator, off.denominator, body)


def _series(offset, nums, den):
    """The QSeries q^offset * nums / den for integer nums and den > 0: the
    one private constructor, which skips the public type checks."""
    series = object.__new__(QSeries)
    series._normalise(offset, nums, den)
    return series


def _convolve(xs, ys):
    """The first n = min(len(xs), len(ys)) coefficients of the product of
    the integer polynomials xs and ys, by Kronecker substitution.

    Every product coefficient is a sum of at most n terms x_i y_j, so its
    absolute value is at most bound = n * max|x| * max|y|.  With W a whole
    number of bytes and 2^(W-1) > bound, each operand is evaluated at 2^W
    and the two integers are multiplied once.  Adding the bias 2^(W-1) to
    each of the low n slots of the product makes every slot a W-bit digit
    with no borrow between slots; coefficient k is digit k minus the bias.
    """
    n = min(len(xs), len(ys))
    same = xs is ys
    xs = xs[:n]
    ys = xs if same else ys[:n]
    mx = max(map(abs, xs))
    bound = n * mx * (mx if same else max(map(abs, ys)))
    if not bound:
        return [0] * n
    wb = bound.bit_length() // 8 + 1
    width = 8 * wb
    # one bit at the bottom of each of the n slots
    ones = int.from_bytes((b"\1" + bytes(wb - 1)) * n, "little")
    px = _pack(xs, wb, ones)
    product = px * px if same else px * _pack(ys, wb, ones)
    product = (product + (ones << (width - 1))) & ((1 << (width * n)) - 1)
    data = product.to_bytes(wb * n, "little")
    half = 1 << (width - 1)
    return [int.from_bytes(data[k:k + wb], "little") - half for k in range(0, wb * n, wb)]


def _pack(xs, wb, ones):
    """sum x_i 2^(8 wb i) for integers |x_i| < 2^(8 wb - 1).

    Each x_i is written as wb two's-complement bytes, which stand for
    x_i + 2^(8 wb) when x_i < 0, that is when the slot's top bit is set;
    the packed integer subtracts that 2^(8 wb) again, one slot up.
    """
    width = 8 * wb
    packed = int.from_bytes(
        b"".join([x.to_bytes(wb, "little", signed=True) for x in xs]), "little")
    return packed - (((packed >> (width - 1)) & ones) << width)


def _pow_series(series, w):
    """series**w for integer w >= 0, preserving the truncation order.

    Squares the base while a higher bit of w is left and multiplies in the
    powers at the set bits: bit_length(w) - 1 squarings and popcount(w) - 1
    further products, none of them with the series 1.
    """
    if w < 0:
        raise OutOfRange("series power needs w >= 0, got %s" % w)
    if w < 2:
        return series if w else _series(Fraction(0), [1] + [0] * series.order, 1)
    half = _pow_series(series * series, w >> 1)
    return half * series if w & 1 else half


@lru_cache(maxsize=_CACHED_ORDERS)
def _bernoulli_list(kmax):
    """B_0..B_kmax via the defining recurrence sum C(m+1, j) B_j = 0."""
    values = [Fraction(1)]
    for m in range(1, kmax + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-Fraction(acc, m + 1))
    return tuple(values)


def bernoulli(k):
    """The k-th Bernoulli number for even int k >= 2, exactly."""
    _check_int("the Bernoulli index k", k)
    if k % 2 != 0 or k < 2:
        raise OddWeight("Bernoulli numbers are exposed for even k >= 2, got %s" % k)
    return _bernoulli_list(k)[k]


class ModularForm:
    """A q-expansion with a declared weight, an int or a Fraction.

    Multiplication adds weights; addition requires equal weights.  The
    implicit multiplier sends T to e(weight/12), the system of eta^{2k};
    it is metadata and never enters arithmetic.  Not a tuple, so that
    3 * form is a TypeError rather than a repetition.
    """

    __slots__ = ("weight", "series")

    def __init__(self, weight, series):
        _check_exact("a weight", weight)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("ModularForm is immutable")

    def __eq__(self, other):
        if type(other) is not ModularForm:
            return NotImplemented
        return self.weight == other.weight and self.series == other.series

    def __hash__(self):
        return hash((self.weight, self.series))

    def __repr__(self):
        return "ModularForm(weight=%r, series=%r)" % (self.weight, self.series)

    def __add__(self, other):
        if not isinstance(other, ModularForm):
            return NotImplemented
        if self.weight != other.weight:
            raise WeightMismatch(
                "cannot add forms of weights %s and %s" % (self.weight, other.weight)
            )
        return ModularForm(self.weight, self.series + other.series)

    def __mul__(self, other):
        if isinstance(other, ModularForm):
            return ModularForm(self.weight + other.weight, self.series * other.series)
        if type(other) in _EXACT:
            return ModularForm(self.weight, self.series * other)
        return NotImplemented

    def __pow__(self, w):
        _check_int("a form's power", w)
        return ModularForm(self.weight * w, _pow_series(self.series, w))

    def is_zero(self):
        return self.series.is_zero()

    def derivative(self):
        """The modular derivative in this form's weight; weight goes up by 2."""
        return ModularForm(self.weight + 2, modular_derivative(self.weight, self.series))


@lru_cache(maxsize=_CACHED_ORDERS)
def _eisenstein_series(k, order):
    """The QSeries of G_k through q^order, for even k >= 2."""
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        dk = d ** (k - 1)
        for n in range(d, order + 1, d):
            sigma[n] += dk
    # with B_k = b/c, G_k = (-b + 2kc sum sigma_{k-1}(n) q^n) / (c k!)
    b, c = _bernoulli_list(k)[k].as_integer_ratio()
    return _series(Fraction(0), [-b] + [2 * k * c * s for s in sigma[1:]], c * factorial(k))


def eisenstein(k, order=DEFAULT_ORDER):
    """Eisenstein series G_k = -B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n,
    for even int k >= 2 and int order >= 0."""
    _check_int("the Eisenstein weight k", k)
    _check_int("the truncation order", order)
    if k % 2 != 0 or k < 2:
        raise OddWeight("Eisenstein series need even weight >= 2, got %s" % k)
    if order < 0:
        raise OutOfRange("truncation order must be >= 0, got %s" % order)
    return ModularForm(Fraction(k), _eisenstein_series(k, order))


@lru_cache(maxsize=_CACHED_ORDERS)
def _euler_coeffs(order):
    """prod (1 - q^n) by the pentagonal number theorem, as integers."""
    out = [0] * (order + 1)
    k = 0
    # the generalised pentagonal numbers k(3k - 1)/2 < k(3k + 1)/2 are
    # distinct for k >= 1, and both are 0 for k = 0
    while k * (3 * k - 1) // 2 <= order:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= order:
                out[g] = -1 if k & 1 else 1
        k += 1
    return tuple(out)


def eta_power(w, order=DEFAULT_ORDER):
    """eta^w = q^(w/24) prod (1 - q^n)^w as a form of weight w/2, for int
    w >= 1 and int order >= 0."""
    _check_int("the eta power w", w)
    _check_int("the truncation order", order)
    if w < 1 or order < 0:
        raise OutOfRange("eta power needs w >= 1 and order >= 0, got %s and %s" % (w, order))
    return ModularForm(Fraction(1, 2), _series(Fraction(1, 24), _euler_coeffs(order), 1)) ** w


def modular_derivative(k, f):
    """D_k f = q df/dq + k G2 f for a QSeries f, exact to f's order; the
    weight k must be an int or a Fraction."""
    _check_exact("a weight", k)
    return f.q_derivative() + (_eisenstein_series(2, f.order) * f) * k


class ModularOperator:
    """phi_0 + phi_1 D + ... + phi_n D^n with coefficients in M.

    coeffs is a read-only mapping from each degree i >= 0 that has a term
    to its coefficient phi_i; a degree without a term has no entry.  The
    operator must be weight homogeneous: each phi_i carries weight w - 2i
    for one fixed w (the operator's weight raise), since D raises weight
    by two.
    """

    __slots__ = ("coeffs", "weight_raise")

    def __init__(self, coeffs):
        coeffs = dict(coeffs)
        _check_int("an operator degree", *coeffs)
        if min(coeffs, default=0) < 0:
            raise OutOfRange("operator degrees must be >= 0, got %s" % min(coeffs))
        raise_to = None
        for i, phi in sorted(coeffs.items()):
            w = phi.weight + 2 * i
            if raise_to is None:
                raise_to = w
            elif w != raise_to:
                raise InhomogeneousOperator(
                    "degree %s has weight %s, expected %s" % (i, phi.weight, raise_to - 2 * i)
                )
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))
        # how much the operator raises input weight; None for the zero map
        object.__setattr__(self, "weight_raise", raise_to)

    def __setattr__(self, name, value):
        raise AttributeError("ModularOperator is immutable")

    @classmethod
    def derivative(cls, order=DEFAULT_ORDER):
        """The bare D, a degree-1 operator whose coefficient 1 is known
        through q^order, for an int order >= 0."""
        _check_int("the truncation order", order)
        if order < 0:
            raise OutOfRange("truncation order must be >= 0, got %s" % order)
        one = ModularForm(Fraction(0), QSeries(0, (Fraction(1),) + (Fraction(0),) * order))
        return cls({1: one})

    def __add__(self, other):
        if not isinstance(other, ModularOperator):
            return NotImplemented
        ra, rb = self.weight_raise, other.weight_raise
        if ra is not None and rb is not None and ra != rb:
            raise InhomogeneousOperator(
                "cannot add operators raising weight by %s and %s" % (ra, rb)
            )
        # equal raises give degree i the weight raise - 2i on both sides
        coeffs = dict(self.coeffs)
        for i, psi in other.coeffs.items():
            coeffs[i] = coeffs[i] + psi if i in coeffs else psi
        return ModularOperator(coeffs)

    def compose(self, other):
        """self after other, via D phi = phi D + (D_wt phi)."""
        total = ModularOperator({})
        for i, phi in self.coeffs.items():
            for j, psi in other.coeffs.items():
                chain = psi
                for t in range(i + 1):
                    term = phi * chain * comb(i, t)
                    total = total + ModularOperator({i - t + j: term})
                    if t < i:
                        chain = chain.derivative()
        return total


def apply_operator(op, form):
    """Apply the operator to a form.

    Returns the ModularForm of weight form.weight + op.weight_raise.  An
    operator with no nonzero term gives the zero series on the input's
    window; the zero operator (weight_raise None) keeps the input weight.
    """
    acc = None
    df = form
    for i in range(max(op.coeffs, default=-1) + 1):
        if i:
            df = df.derivative()
        if i in op.coeffs and not op.coeffs[i].is_zero():
            term = op.coeffs[i].series * df.series
            acc = term if acc is None else acc + term
    if acc is None:
        acc = form.series * 0
    raised = op.weight_raise
    return ModularForm(form.weight if raised is None else form.weight + raised, acc)
