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

one representative per flip class, so their number is (p-m)(q-n)/2.  The
partner list is kept in lexicographic (m_j, n_j) order and every exponent
vector computed downstream inherits that order.
"""

from .core import _check_label_range
from .errors import NonCanonicalLabel, OutOfRange

#: the largest dimension s whose partner box is built
MAX_DIMENSION = 100_000


def self_coupled_partners(model, label):
    """All partners (m_j, n_j) of the acting label, as a tuple of pairs in
    lexicographic order.

    The pairs live in the half-range m_j >= (p+1)/2; they are deliberately
    not canonicalised to odd m_j, which would double count flip classes.
    Completeness against brute force enumeration of the rules over the full
    index range modulo the flip is exercised by the test suite.  Raises
    OutOfRange when s exceeds MAX_DIMENSION.
    """
    s = rep_dimension(model, label)
    if s > MAX_DIMENSION:
        raise OutOfRange("dimension %s exceeds MAX_DIMENSION = %d" % (s, MAX_DIMENSION))
    p, q, m, n = model.p, model.q, label.m, label.n
    pairs = tuple(
        (mj, nj)
        for mj in range((p + 1) // 2, p - (m + 1) // 2 + 1)
        for nj in range((n + 1) // 2, q - (n + 1) // 2 + 1)
    )
    if len(pairs) != s:
        raise AssertionError("label (%s, %s) has %d partners, not (p - m)(q - n)/2"
                             % (m, n, len(pairs)))
    return pairs


def rep_dimension(model, label):
    """Dimension (p-m)(q-n)/2 of the space spanned by the 1-point functions."""
    m, n = label.m, label.n
    _check_label_range(model, m, n)
    if m % 2 == 0 or n % 2 == 0:
        raise NonCanonicalLabel(
            "label (%s, %s) is not an acting label: m and n must both be odd" % (m, n)
        )
    return (model.p - m) * (model.q - n) // 2

