"""Exact truncated q-expansions, Eisenstein series, eta powers and the ring
of modular differential operators.

A QSeries stores a rational leading exponent e and exact rational
coefficients c_0..c_T, representing

    q^e (c_0 + c_1 q + ... + c_T q^T),

with c_0 != 0 unless the series is zero through its window.  Addition
requires the two exponents to differ by an integer (the series live on a
common fractional lattice), except that a zero series on another lattice
is absorbed exactly; a sum is known only as far as both summands are.
A product is known through the shorter window and is computed as one
integer convolution of the two windows' numerators over their lcm
denominators.

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
from itertools import zip_longest
from math import comb, factorial, floor, lcm

from .errors import (ExponentMismatch, InhomogeneousOperator, OddWeight,
                     OutOfRange, WeightMismatch)

#: default truncation order for q-expansions
DEFAULT_ORDER = 40
#: largest truncation order the qseries command accepts
MAX_ORDER = 10_000
#: largest G4, G6 or D exponent and eta power the qseries command accepts
MAX_POWER = 100


class QSeries:
    """Truncated q-expansion with exact rational coefficients and a
    rational leading exponent."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a QSeries needs at least one coefficient")
        offset = Fraction(offset)
        lead = next((i for i, c in enumerate(coeffs) if c), None)
        if lead:
            offset += lead
            coeffs = coeffs[lead:]
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @property
    def order(self):
        """Relative truncation order T: coefficients cover q^offset..q^(offset+T)."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_zero():
            return hash("qseries-zero")
        return hash((self.offset, self.coeffs))

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
        return self.coeffs[rel]

    def __neg__(self):
        return QSeries(self.offset, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar is exact: its window reaches as far as self's
            top = max(0, floor(self.offset) + self.order)
            other = QSeries(0, (other,) + (Fraction(0),) * top)
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
        shift = int(shift)
        # both series vanish below their windows, so the sum is known on
        # [lo, hi]
        lo = min(0, shift)
        hi = min(self.order, shift + other.order)
        out = [Fraction(0)] * (hi - lo + 1)
        for j in range(max(0, lo), min(self.order, hi) + 1):
            out[j - lo] += self.coeffs[j]
        for j in range(max(shift, lo), min(shift + other.order, hi) + 1):
            out[j - lo] += other.coeffs[j - shift]
        return QSeries(self.offset + lo, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(self.offset, tuple(c * other for c in self.coeffs))
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        xs, da = _scaled(self.coeffs[: n + 1])
        ys, db = _scaled(other.coeffs[: n + 1])
        out = [0] * (n + 1)
        for i, x in enumerate(xs):
            if not x:
                continue
            for j, y in enumerate(ys[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
        den = da * db
        return QSeries(self.offset + other.offset, (Fraction(c, den) for c in out))

    def q_derivative(self):
        """q d/dq: multiplies the q^(offset+j) coefficient by offset + j."""
        return QSeries(
            self.offset, tuple((self.offset + j) * c for j, c in enumerate(self.coeffs))
        )

    def serialize(self):
        """Render as "q^(a/b) * [c0, c1, ...]" with exact fractions."""
        off = Fraction(0) if self.is_zero() else self.offset
        body = ", ".join(str(c) for c in self.coeffs)
        return "q^(%s/%s) * [%s]" % (off.numerator, off.denominator, body)


def _scaled(coeffs):
    """(numerators, den): the coefficients as integers over their lcm den."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _pow_series(series, w):
    """series**w for integer w >= 0, preserving the truncation order."""
    if w < 0:
        raise OutOfRange("series power needs w >= 0, got %s" % w)
    out = QSeries(0, (Fraction(1),) + (Fraction(0),) * series.order)
    base = series
    while w:
        if w & 1:
            out = out * base
        base = base * base
        w >>= 1
    return out


@lru_cache(maxsize=None)
def _bernoulli_list(kmax):
    """B_0..B_kmax via the defining recurrence sum C(m+1, j) B_j = 0."""
    values = [Fraction(1)]
    for m in range(1, kmax + 1):
        acc = sum(comb(m + 1, j) * values[j] for j in range(m))
        values.append(-Fraction(acc, m + 1))
    return tuple(values)


def bernoulli(k):
    """The k-th Bernoulli number for even k >= 2, exactly."""
    if k % 2 != 0 or k < 2:
        raise OddWeight("Bernoulli numbers are exposed for even k >= 2, got %s" % k)
    return _bernoulli_list(k)[k]


class ModularForm:
    """A q-expansion with a declared weight.

    Multiplication adds weights; addition requires equal weights.  The
    implicit multiplier sends T to e(weight/12), the system of eta^{2k};
    it is metadata and never enters arithmetic.  Not a tuple, so that
    3 * form is a TypeError rather than a repetition.
    """

    __slots__ = ("weight", "series")

    def __init__(self, weight, series):
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
        if isinstance(other, (int, Fraction)):
            return ModularForm(self.weight, self.series * other)
        return NotImplemented

    def is_zero(self):
        return self.series.is_zero()

    def derivative(self):
        """The modular derivative in this form's weight; weight goes up by 2."""
        return ModularForm(self.weight + 2, modular_derivative(self.weight, self.series))


@lru_cache(maxsize=None)
def _eisenstein_coeffs(k, order):
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        dk = d ** (k - 1)
        for n in range(d, order + 1, d):
            sigma[n] += dk
    lead = Fraction(-_bernoulli_list(k)[k], factorial(k))
    scale = Fraction(2, factorial(k - 1))
    return (lead,) + tuple(scale * s for s in sigma[1:])


def eisenstein(k, order=DEFAULT_ORDER):
    """Eisenstein series G_k = -B_k/k! + (2/(k-1)!) sum sigma_{k-1}(n) q^n."""
    if k % 2 != 0 or k < 2:
        raise OddWeight("Eisenstein series need even weight >= 2, got %s" % k)
    return ModularForm(Fraction(k), QSeries(0, _eisenstein_coeffs(k, order)))


@lru_cache(maxsize=None)
def _euler_coeffs(order):
    """prod (1 - q^n) by the pentagonal number theorem."""
    out = [Fraction(0)] * (order + 1)
    k = 0
    while True:
        hit = False
        for kk in ((k, -k) if k else (0,)):
            g = kk * (3 * kk - 1) // 2
            if g <= order:
                out[g] += (-1) ** (kk & 1)
                hit = True
        if not hit:
            break
        k += 1
    return tuple(out)


def eta_power(w, order=DEFAULT_ORDER):
    """eta^w = q^(w/24) prod (1 - q^n)^w as a form of weight w/2."""
    if w < 1:
        raise OutOfRange("eta power needs w >= 1, got %s" % w)
    base = QSeries(0, _euler_coeffs(order))
    powered = _pow_series(base, w)
    return ModularForm(Fraction(w, 2), QSeries(Fraction(w, 24), powered.coeffs))


def modular_derivative(k, f):
    """D_k f = q df/dq + k G2 f for a QSeries f, exact to f's order."""
    g2 = QSeries(0, _eisenstein_coeffs(2, f.order))
    return f.q_derivative() + (g2 * f) * Fraction(k)


class ModularOperator:
    """phi_0 + phi_1 D + ... + phi_n D^n with coefficients in M.

    The operator must be weight homogeneous: each nonempty slot i carries
    weight w - 2i for one fixed w (the operator's weight raise), since D
    raises weight by two.
    """

    __slots__ = ("coeffs", "weight_raise")

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] is None:
            cs.pop()
        raise_to = None
        for i, phi in enumerate(cs):
            if phi is None:
                continue
            w = Fraction(phi.weight) + 2 * i
            if raise_to is None:
                raise_to = w
            elif w != raise_to:
                raise InhomogeneousOperator(
                    "slot %s has weight %s, expected %s" % (i, phi.weight, raise_to - 2 * i)
                )
        object.__setattr__(self, "coeffs", tuple(cs))
        # how much the operator raises input weight; None for the zero map
        object.__setattr__(self, "weight_raise", raise_to)

    def __setattr__(self, name, value):
        raise AttributeError("ModularOperator is immutable")

    @classmethod
    def from_form(cls, form):
        """Multiplication by a modular form, as a degree-0 operator."""
        return cls((form,))

    @classmethod
    def derivative(cls, order=DEFAULT_ORDER):
        """The bare D, a degree-1 operator with coefficient 1."""
        one = ModularForm(Fraction(0), QSeries(0, (Fraction(1),) + (Fraction(0),) * order))
        return cls((None, one))

    def __add__(self, other):
        if not isinstance(other, ModularOperator):
            return NotImplemented
        ra, rb = self.weight_raise, other.weight_raise
        if ra is not None and rb is not None and ra != rb:
            raise InhomogeneousOperator(
                "cannot add operators raising weight by %s and %s" % (ra, rb)
            )
        # equal raises give slot i the weight raise - 2i on both sides
        return ModularOperator(
            y if x is None else x if y is None else x + y
            for x, y in zip_longest(self.coeffs, other.coeffs)
        )

    def compose(self, other):
        """self after other, via D phi = phi D + (D_wt phi)."""
        total = ModularOperator(())
        for i, phi in enumerate(self.coeffs):
            if phi is None:
                continue
            for j, psi in enumerate(other.coeffs):
                if psi is None:
                    continue
                chain = psi
                for t in range(i + 1):
                    term = phi * chain * comb(i, t)
                    total = total + ModularOperator((None,) * (i - t + j) + (term,))
                    if t < i:
                        chain = chain.derivative()
        return total


def apply_operator(op, components, weight):
    """Apply the operator componentwise to QSeries of one declared weight.

    Returns a list of QSeries; the output weight is weight + raise.
    """
    weight = Fraction(weight)
    out = []
    for f in components:
        acc = None
        df, w = f, weight
        for i, phi in enumerate(op.coeffs):
            if i > 0:
                df = modular_derivative(w, df)
                w += 2
            if phi is None or phi.is_zero():
                continue
            term = phi.series * df
            acc = term if acc is None else acc + term
        if acc is None:
            acc = QSeries(f.offset, (Fraction(0),) * (f.order + 1))
        out.append(acc)
    return out
