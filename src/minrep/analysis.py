"""Assembly of machine-readable analysis records.

A record collects everything the library computes for one canonical label:
central charge, conformal weight, partner exponents, level, irreducibility,
minimal weight data (dimension at most 3), the congruence verdict and the
space comparison.  All rationals serialize as exact "a/b" strings, never
floats, so records round-trip losslessly through JSON.

A record has a fixed key order, and every string in it is printable ASCII
with no '"' and no backslash (tests/test_cli.py checks both on grid 20), so
a line is rendered by filling one fixed template per format and kind of
record, acting or not, with no encoder and no escaping.

Canonical labels with even n are genuine modules but carry no self-coupled
intertwining action; their records keep only the bookkeeping fields and set
"acting" to false.
"""

from functools import lru_cache
from math import gcd

# level stays bound here so that call-site wrappers of analysis.level resolve
from .congruence import congruence_verdict, level
from .core import canonical_label, central_charge, conformal_weight, validate_model
from .errors import SubsetBlowup
from .repdata import irreducibility_certificate, minimal_weight_profile, rep_profile
from .spaces import space_comparison

NOT_COMPUTED = "not-computed"

#: models whose tables are kept; a scan visits the models in order, so a
#: few suffice, also for pool workers that take interleaved chunks
_MODEL_TABLES = 4

#: flat column order for CSV output; list-valued fields are ";"-joined
CSV_COLUMNS = [
    "p", "q", "m", "n", "acting", "c", "h", "s", "level", "irreducibility",
    "k0", "verdict_status", "verdict_criterion", "spaces_status",
    "ratio_check", "lambda", "r", "alpha",
]


def frac_str(x):
    """Exact "a/b" rendering of a rational (always with a denominator)."""
    return "%s/%s" % (x.numerator, x.denominator)


def ratio_str(num, den):
    """frac_str of num/den for integers num and den > 0, without a Fraction."""
    g = gcd(num, den)
    return "%d/%d" % (num // g, den // g)


@lru_cache(maxsize=_MODEL_TABLES, typed=True)
def _model_table(p, q):
    """What a record takes from the model alone, keyed by the raw (p, q).

    Returns (model, c, h_shift, rows): validate_model(p, q), the rendered
    central charge, the integer h_shift = 2pq - 12(p - q)^2 with
    h_j = (y_j + h_shift) / 48pq, and a dict from a partner row m_j to the
    list [c0, hs, lams, texts].  hs and lams are the rendered h_j and
    lambda_j of the partners (m_j, n_j) for n_j = c0 .. q - c0, and texts
    their JSON objects {"m": m_j, "n": n_j, "h": h_j}, None until a JSON
    line first needs them, so that CSV never builds them.

    _record builds a row from the profile of the label that first needs
    it, and builds it again only for a label whose box is wider (a
    smaller c0); so a row never spans more than a partner box that
    rep_profile has accepted, and the rows of a model hold at most
    (p - 1)(q - 1)/2 cells.  The model's whole box can hold billions of
    points, so it is never listed up front.  The key is typed, so that
    5.0 never hits the entry of 5; a pair that fails validation raises
    and is not kept.
    """
    model = validate_model(p, q)
    return model, frac_str(central_charge(model)), 2 * p * q - 12 * (p - q) ** 2, {}


def _record(p, q, m, n):
    """The record of analyze, with "partners": [] in its key position, and
    the label's cuts of its model's partner rows.

    A cut is (m_j, row, lo, hi): the label's partners in row m_j are
    n_j = row[0] + lo .. row[0] + hi - 1, rendered in row[1][lo:hi] and,
    once built, row[3][lo:hi].  The cuts follow the lexicographic partner
    order; a record that is not acting has none.
    """
    model, c, h_shift, rows = _model_table(p, q)
    if model.p != p:
        # validate_model stored V(q, p), and (m, n) of V(p, q) is (n, m) of V(q, p)
        m, n = n, m
    label = canonical_label(model, m, n)
    record = {
        "p": model.p,
        "q": model.q,
        "m": label.m,
        "n": label.n,
        "acting": label.is_acting,
        "c": c,
        "h": frac_str(conformal_weight(model, label.m, label.n)),
    }
    if not label.is_acting:
        return record, ()

    profile = rep_profile(model, label)
    try:
        cert = irreducibility_certificate(profile)
    except SubsetBlowup:
        cert = NOT_COMPUTED
    verdict = congruence_verdict(profile)
    big, y, h_num = profile.big, profile.y, profile.h_num
    box = profile.box
    c0, width = box.cols.start, len(box.cols)
    lam = []
    cuts = []
    start = 0
    for mj in box.rows:
        row = rows.get(mj)
        if row is None or row[0] > c0:
            ys = y[start:start + width]
            row = rows[mj] = [c0, [ratio_str(v + h_shift, big) for v in ys],
                              [ratio_str(v, big) for v in ys], None]
        lo = c0 - row[0]
        cuts.append((mj, row, lo, lo + width))
        lam += row[2][lo:lo + width]
        start += width

    record["s"] = profile.s
    record["partners"] = []
    record["lambda"] = lam
    record["r"] = ["%d/%d" % (xj // g, big // g)
                   for xj in map((-h_num).__add__, y) for g in [gcd(xj, big)]]
    record["level"] = verdict.details["level"]
    record["level_factorization"] = verdict.details["level_factorization"]
    record["irreducibility"] = cert

    if profile.s <= 3:
        mw = minimal_weight_profile(profile)
        record["k0"] = frac_str(mw.k0)
        record["alpha"] = [frac_str(a) for a in mw.alpha]
    else:
        record["k0"] = record["alpha"] = None

    record["verdict"] = verdict._asdict()
    record["spaces"] = space_comparison(profile)._asdict()
    return record, cuts


def analyze(p, q, m, n):
    """Full analysis record for the canonical label of (m, n) in V(p, q).

    Raises the usual validation errors on bad input; an in-range label
    that is not acting yields a reduced record with acting = false.  Each
    call returns fresh objects, the partner dicts included, which the
    caller may change.
    """
    record, cuts = _record(p, q, m, n)
    if cuts:
        record["partners"] = [{"m": mj, "n": nj, "h": h}
                              for mj, row, lo, hi in cuts
                              for nj, h in enumerate(row[1][lo:hi], row[0] + lo)]
    return record


def _kept(record, condition):
    key, value = condition
    if key == "verdict":
        return "verdict" in record and record["verdict"]["status"] == value
    return record.get(key) == value


def record_line(fmt, condition, cell):
    """The output line of the record of cell = (p, q, m, n), with its
    newline: JSON for fmt "jsonl" and a CSV row for "csv"; or "" if the
    filter condition, a (record key, value) pair or None, drops the record.

    Each line equals the one rendered from analyze(*cell), but no partner
    dict is built: record_to_json takes the partner JSON texts that their
    model's rows keep.  The cell is one argument, so that a pool can map a
    partial of this function over a scan's cells.
    """
    record, cuts = _record(*cell)
    if condition is not None and not _kept(record, condition):
        return ""
    if fmt == "csv":
        return record_to_csv_line(record)
    partners = []
    for mj, row, lo, hi in cuts:
        if row[3] is None:
            row[3] = ['{"m": %d, "n": %d, "h": "%s"}' % (mj, nj, h)
                      for nj, h in enumerate(row[1], row[0])]
        partners += row[3][lo:hi]
    return record_to_json(record, partners) + "\n"


def _strs(values):
    """JSON of a list of strings that need no escaping."""
    return '["%s"]' % '", "'.join(values) if values else "[]"


def _json(value):
    """JSON of a str, int, bool or list of str, as verdict details hold them."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"%s"' % value
    return _strs(value) if isinstance(value, list) else "%d" % value


#: ratio_check, the one field that is None or a bool, in each format
_JSON_CHECK = {None: "null", True: "true", False: "false"}
_CSV_CHECK = {None: "", True: "true", False: "false"}

_NOT_ACTING_JSON = '{"p": %d, "q": %d, "m": %d, "n": %d, "acting": false, "c": "%s", "h": "%s"}'

_ACTING_JSON = (
    '{"p": %d, "q": %d, "m": %d, "n": %d, "acting": true, "c": "%s", "h": "%s", "s": %d, '
    '"partners": [%s], "lambda": ["%s"], "r": ["%s"], "level": %d, "level_factorization": %s, '
    '"irreducibility": "%s", "k0": %s, "alpha": %s, '
    '"verdict": {"status": "%s", "criterion": "%s", "details": {"s": %d, "level": %d, '
    '"level_factorization": %s, "min_congruence_dim": %d, "agreeing_criteria": %s%s}}, '
    '"spaces": {"status": "%s", "lambda_flags": ["%s"], "ratio_check": %s}}'
)


def record_to_json(record, partners):
    """The JSON text of a record shaped as analyze returns it, whose
    partner objects are the JSON texts partners.

    The verdict details always start with the same five keys: the one key
    a low-dimension verdict may restate, "level", keeps its place and its
    value (congruence_verdict asserts that), and the keys such a verdict
    adds after the five go through _json.
    """
    p, q, m, n = record["p"], record["q"], record["m"], record["n"]
    if not record["acting"]:
        return _NOT_ACTING_JSON % (p, q, m, n, record["c"], record["h"])
    verdict, spaces = record["verdict"], record["spaces"]
    details = verdict["details"]
    extra = ""
    if len(details) > 5:
        extra = "".join(', "%s": %s' % (key, _json(value))
                        for key, value in list(details.items())[5:])
    k0, alpha = record["k0"], record["alpha"]
    return _ACTING_JSON % (
        p, q, m, n, record["c"], record["h"], record["s"], ", ".join(partners),
        '", "'.join(record["lambda"]), '", "'.join(record["r"]), record["level"],
        record["level_factorization"], record["irreducibility"],
        "null" if k0 is None else '"%s"' % k0, "null" if alpha is None else _strs(alpha),
        verdict["status"], verdict["criterion"], details["s"], details["level"],
        details["level_factorization"], details["min_congruence_dim"],
        _strs(details["agreeing_criteria"]), extra,
        spaces["status"], '", "'.join(spaces["lambda_flags"]),
        _JSON_CHECK[spaces["ratio_check"]])


def record_to_table(record):
    """Human-oriented key/value rendering of one record."""
    lines = []
    for key, value in record.items():
        if isinstance(value, dict):
            lines.append("%-16s" % (key + ":"))
            for sub, sval in value.items():
                lines.append("  %-14s %s" % (sub + ":", _plain(sval)))
        else:
            lines.append("%-16s %s" % (key + ":", _plain(value)))
    return "\n".join(lines)


def _plain(value):
    if isinstance(value, list):
        return "[" + ", ".join(_plain(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join("%s: %s" % (k, _plain(v)) for k, v in value.items()) + "}"
    if value is None:
        return "-"
    return str(value)


_NOT_ACTING_CSV = "%d,%d,%d,%d,false,%s,%s" + "," * (len(CSV_COLUMNS) - 7) + "\n"

_ACTING_CSV = "%d,%d,%d,%d,true,%s,%s,%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s\n"


def record_to_csv_line(record):
    """The CSV line of one record shaped as analyze returns it, with its
    newline: the CSV_COLUMNS cells, where None is "", a bool "true" or
    "false", and a list ";"-joined.

    The cells are joined as they are: each is empty or made of digits,
    lowercase letters, "/", "-" and ";", so none can need quoting.
    """
    p, q, m, n = record["p"], record["q"], record["m"], record["n"]
    if not record["acting"]:
        return _NOT_ACTING_CSV % (p, q, m, n, record["c"], record["h"])
    verdict, spaces = record["verdict"], record["spaces"]
    k0, alpha = record["k0"], record["alpha"]
    return _ACTING_CSV % (
        p, q, m, n, record["c"], record["h"], record["s"], record["level"],
        record["irreducibility"], "" if k0 is None else k0, verdict["status"],
        verdict["criterion"], spaces["status"],
        _CSV_CHECK[spaces["ratio_check"]],
        ";".join(record["lambda"]), ";".join(record["r"]),
        "" if alpha is None else ";".join(alpha))


def records_to_csv(records):
    """CSV lines of the records: the header line, then one line per record
    as it is drawn from the iterable records."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for record in records:
        yield record_to_csv_line(record)
