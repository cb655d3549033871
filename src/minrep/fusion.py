"""Self-coupled partners of an acting label and the dimension formula.

A triple of Kac labels {(m, n), (m_j, n_j), (m_k, n_k)} is admissible when

  range:     0 < m, m_j, m_k < p   and   0 < n, n_j, n_k < q;
  triangle:  each of m, m_j, m_k is less than the sum of the other two,
             and likewise for n, n_j, n_k;
  perimeter: m + m_j + m_k < 2p   and   n + n_j + n_k < 2q;
  parity:    m + m_j + m_k and n + n_j + n_k are both odd;
  flip:      triples are identified with their image under the simultaneous
             move (m_j, n_j), (m_k, n_k) -> (p - m_j, q - n_j), (p - m_k, q - n_k).

The fusion coefficient of a triple is 1 if it is admissible and 0 otherwise.
The rules are themselves flip invariant (the flip swaps the perimeter
inequality with the first triangle inequality, swaps the other two, and
keeps the parity), so one representative decides its class; the literal
rule check is tests/oracles.py::admissible.  For an acting label (m, n
odd), the self-coupled triples {(m, n), (m_j, n_j), (m_j, n_j)} are
parametrised exactly by the box

    (p+1)/2 <= m_j <= p - (m+1)/2,     (n+1)/2 <= n_j <= q - (n+1)/2,

one representative per flip class, so their number is (p-m)(q-n)/2.
self_coupled_partners returns them as a PartnerBox: the two ranges of the
box, read as its cells in lexicographic (m_j, n_j) order, and every
exponent vector computed downstream inherits that order.
"""

from collections.abc import Sequence

from .core import _check_label_range
from .errors import NonCanonicalLabel, OutOfRange

#: the largest dimension s whose partner box is built
MAX_DIMENSION = 100_000


class PartnerBox(Sequence):
    """The partners (m_j, n_j) of an acting label, O(1) in size: the box
    rows x cols, read as its cells in lexicographic order, row by row.

    len is s, and an int index or iteration gives the pairs, so a caller
    that counts or walks the partners sees them without their being
    stored; rows (the m_j) and cols (the n_j) are the box's two ranges,
    which rep_profile reads.  Two boxes are equal when their ranges are;
    a box never equals a tuple (compare tuple(box)).
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows, cols):
        self.rows, self.cols = rows, cols

    def __len__(self):
        return len(self.rows) * len(self.cols)

    def __getitem__(self, index):
        i, j = divmod(range(len(self))[index], len(self.cols))
        return self.rows[i], self.cols[j]

    def __iter__(self):
        return ((mj, nj) for mj in self.rows for nj in self.cols)

    def __eq__(self, other):
        if not isinstance(other, PartnerBox):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols)

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return "PartnerBox(%r, %r)" % (self.rows, self.cols)


def self_coupled_partners(model, label):
    """All partners (m_j, n_j) of the acting label, as the PartnerBox of
    m_j from (p+1)/2 to p - (m+1)/2 and n_j from (n+1)/2 to q - (n+1)/2.

    The rows live in the half-range m_j >= (p+1)/2; they are deliberately
    not canonicalised to odd m_j, which would double count flip classes.
    Completeness against brute force enumeration of the rules over the full
    index range modulo the flip is exercised by the test suite.  The box
    has s = (p - m)(q - n)/2 cells but is O(1) in size, and what is read
    off it is not, so the cap is checked first: raises OutOfRange when s
    exceeds MAX_DIMENSION.
    """
    s = rep_dimension(model, label)
    if s > MAX_DIMENSION:
        raise OutOfRange("dimension %s exceeds MAX_DIMENSION = %d" % (s, MAX_DIMENSION))
    p, q, m, n = model.p, model.q, label.m, label.n
    box = PartnerBox(range((p + 1) // 2, p - (m + 1) // 2 + 1),
                     range((n + 1) // 2, q - (n + 1) // 2 + 1))
    if len(box) != s:
        raise AssertionError("label (%s, %s) has %d partners, not (p - m)(q - n)/2"
                             % (m, n, len(box)))
    return box


def rep_dimension(model, label):
    """Dimension (p-m)(q-n)/2 of the space spanned by the 1-point functions."""
    m, n = label.m, label.n
    _check_label_range(model, m, n)
    if m % 2 == 0 or n % 2 == 0:
        raise NonCanonicalLabel(
            "label (%s, %s) is not an acting label: m and n must both be odd" % (m, n)
        )
    return (model.p - m) * (model.q - n) // 2

