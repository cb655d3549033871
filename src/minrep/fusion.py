"""Admissible triples, self-coupled partners and the dimension formula.

A triple of Kac labels {(m, n), (m_j, n_j), (m_k, n_k)} is admissible when

  range:     0 < m, m_j, m_k < p   and   0 < n, n_j, n_k < q;
  triangle:  each of m, m_j, m_k is less than the sum of the other two,
             and likewise for n, n_j, n_k;
  perimeter: m + m_j + m_k < 2p   and   n + n_j + n_k < 2q;
  parity:    m + m_j + m_k and n + n_j + n_k are both odd;
  flip:      triples are identified with their image under the simultaneous
             move (m_j, n_j), (m_k, n_k) -> (p - m_j, q - n_j), (p - m_k, q - n_k).

The fusion coefficient of a triple is 1 if it is admissible and 0 otherwise.
For an acting label (m, n odd), the self-coupled triples
{(m, n), (m_j, n_j), (m_j, n_j)} are parametrised exactly by the box

    (p+1)/2 <= m_j <= p - (m+1)/2,     (n+1)/2 <= n_j <= q - (n+1)/2,

one representative per flip class, so their number is (p-m)(q-n)/2.  The
partner list is kept in lexicographic (m_j, n_j) order and every exponent
vector computed downstream inherits that order.
"""

from dataclasses import dataclass

from .errors import NonCanonicalLabel, NotAdmissible, OutOfRange


def _rules_hold(p, q, triple):
    """Range, triangle, perimeter and parity for a literal triple
    (the flip identification is handled by the caller)."""
    (m, n), (mj, nj), (mk, nk) = triple
    if not (0 < m < p and 0 < mj < p and 0 < mk < p):
        return False
    if not (0 < n < q and 0 < nj < q and 0 < nk < q):
        return False
    if not (m < mj + mk and mj < m + mk and mk < m + mj):
        return False
    if not (n < nj + nk and nj < n + nk and nk < n + nj):
        return False
    if not (m + mj + mk < 2 * p and n + nj + nk < 2 * q):
        return False
    if (m + mj + mk) % 2 == 0 or (n + nj + nk) % 2 == 0:
        return False
    return True


def _flipped_tail(p, q, triple):
    first, (mj, nj), (mk, nk) = triple
    return (first, (p - mj, q - nj), (p - mk, q - nk))


def is_admissible(model, triple):
    """True when the triple, or its flip image, satisfies the rules.

    Out-of-range indices simply yield False.  The verdict is invariant
    under permuting the last two pairs and under the flip.
    """
    p, q = model.p, model.q
    return _rules_hold(p, q, triple) or _rules_hold(p, q, _flipped_tail(p, q, triple))


@dataclass(frozen=True)
class AdmissibleTriple:
    """An admissible triple stored in canonical form modulo the flip.

    Of the two flip representatives the one whose sorted tail is smaller
    is kept, so equal triples compare equal.
    """

    p: int
    q: int
    first: tuple
    second: tuple
    third: tuple

    @classmethod
    def create(cls, model, triple):
        if not is_admissible(model, triple):
            raise NotAdmissible("triple %s is not admissible for (p, q) = (%s, %s)"
                                % (triple, model.p, model.q))
        p, q = model.p, model.q
        first = tuple(triple[0])
        tail_a = tuple(sorted((tuple(triple[1]), tuple(triple[2]))))
        flipped = _flipped_tail(p, q, triple)
        tail_b = tuple(sorted((tuple(flipped[1]), tuple(flipped[2]))))
        tail = min(tail_a, tail_b)
        return cls(p, q, first, tail[0], tail[1])

    def as_tuple(self):
        return (self.first, self.second, self.third)


@dataclass(frozen=True)
class PartnerSet:
    """The acted-on labels (m_j, n_j) paired with an acting label.

    Pairs are listed in lexicographic order and live in the half-range
    m_j >= (p+1)/2; they are deliberately not canonicalised to odd m_j,
    which would double count flip classes.
    """

    label: object
    pairs: tuple

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _require_acting(model, label):
    m, n = label.m, label.n
    if not (1 <= m <= model.p - 1 and 1 <= n <= model.q - 1):
        raise OutOfRange("label (%s, %s) out of range for (p, q) = (%s, %s)"
                         % (m, n, model.p, model.q))
    if m % 2 == 0 or n % 2 == 0:
        raise NonCanonicalLabel(
            "label (%s, %s) is not an acting label: m and n must both be odd" % (m, n)
        )


def self_coupled_partners(model, label):
    """All partners (m_j, n_j) of the acting label, in lexicographic order.

    Completeness against brute force enumeration of the rules over the full
    index range modulo the flip is exercised by the test suite.
    """
    _require_acting(model, label)
    p, q, m, n = model.p, model.q, label.m, label.n
    pairs = tuple(
        (mj, nj)
        for mj in range((p + 1) // 2, p - (m + 1) // 2 + 1)
        for nj in range((n + 1) // 2, q - (n + 1) // 2 + 1)
    )
    if len(pairs) != (p - m) * (q - n) // 2:
        raise AssertionError("label (%s, %s) has %d partners, not (p - m)(q - n)/2"
                             % (m, n, len(pairs)))
    return PartnerSet(label, pairs)


def rep_dimension(model, label):
    """Dimension (p-m)(q-n)/2 of the space spanned by the 1-point functions."""
    _require_acting(model, label)
    return (model.p - label.m) * (model.q - label.n) // 2


def fusion_coefficient(model, i, j, k):
    """Fusion coefficient N_{i,j}^k: 1 for an admissible triple, else 0."""
    p, q = model.p, model.q
    for (a, b) in (i, j, k):
        if not (0 < a < p and 0 < b < q):
            raise OutOfRange("pair (%s, %s) outside the index range" % (a, b))
    return 1 if is_admissible(model, (tuple(i), tuple(j), tuple(k))) else 0
