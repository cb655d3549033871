"""Analysis records and the scan lines that carry them.

A record collects everything the library computes for one canonical label:
central charge, conformal weight, partner exponents, level, irreducibility,
minimal weight data (dimension at most 3), the congruence verdict and the
space comparison.  All rationals serialize as exact "a/b" strings, never
floats, so records round-trip losslessly through JSON.

A record has one production route, its line: record_line computes the
stage results of a label once and fills them into one fixed template per
format and kind of record, acting or not, with no record dict, no encoder
and no escaping; analyze parses the JSON line.  That is sound because a
record has a fixed key order and every string in it is printable ASCII
with no '"' and no backslash (tests/test_cli.py checks both on grid 20).

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

    record_line builds a row from the profile of the label that first
    needs it, and builds it again only for a label whose box is wider (a
    smaller c0); so a row never spans more than a partner box that
    rep_profile has accepted, and the rows of a model hold at most
    (p - 1)(q - 1)/2 cells.  The model's whole box can hold billions of
    points, so it is never listed up front.  The key is typed, so that
    5.0 never hits the entry of 5; a pair that fails validation raises
    and is not kept.
    """
    model = validate_model(p, q)
    return model, frac_str(central_charge(model)), 2 * p * q - 12 * (p - q) ** 2, {}


def record_line(fmt, condition, cell):
    """The output line of the record of cell = (p, q, m, n), with its
    newline: JSON for fmt "jsonl" and a CSV row for "csv"; or "" if the
    filter condition drops the record.  condition is None or a pair as
    cli._parse_filter returns it: ("verdict", status), ("s", s) or
    ("level", N).

    The stage results (profile, verdict, certificate, spaces, minimal
    weight and the label's slices of its model's partner rows) are
    computed once and filled straight into the template; no record dict
    is built.  All three filter fields are known once the verdict has
    run, and it runs on every acting label, so that its invariants are
    checked on every label; a record the filter drops renders nothing
    else.  A record that is not acting has no s, level or verdict, so
    every filter drops it.  The cell is one argument, so that a pool can
    map a partial of this function over a scan's cells.
    """
    p, q, m, n = cell
    model, c, h_shift, rows = _model_table(p, q)
    if model.p != p:
        # validate_model stored V(q, p), and (m, n) of V(p, q) is (n, m) of V(q, p)
        m, n = n, m
    label = canonical_label(model, m, n)
    head = (model.p, model.q, label.m, label.n, c)
    if not label.is_acting:
        if condition is not None:
            return ""
        h = frac_str(conformal_weight(model, label.m, label.n))
        return (_NOT_ACTING_CSV if fmt == "csv" else _NOT_ACTING_JSON) % (head + (h,))

    profile = rep_profile(model, label)
    verdict = congruence_verdict(profile)
    details = verdict.details
    if condition is not None:
        # the filter keys "s" and "level" are keys of the verdict details
        key, value = condition
        if value != (verdict.status if key == "verdict" else details[key]):
            return ""
    try:
        cert = irreducibility_certificate(profile)
    except SubsetBlowup:
        cert = NOT_COMPUTED
    spaces = space_comparison(profile)
    big, y, h_num, box = profile.big, profile.y, profile.h_num, profile.box
    c0, width = box.cols.start, len(box.cols)
    jsonl = fmt != "csv"
    lam, partners = [], []
    start = 0
    for mj in box.rows:
        row = rows.get(mj)
        if row is None or row[0] > c0:
            ys = y[start:start + width]
            row = rows[mj] = [c0, [ratio_str(v + h_shift, big) for v in ys],
                              [ratio_str(v, big) for v in ys], None]
        lo = c0 - row[0]
        lam += row[2][lo:lo + width]
        if jsonl:
            if row[3] is None:
                row[3] = ['{"m": %d, "n": %d, "h": "%s"}' % (mj, nj, h)
                          for nj, h in enumerate(row[1], row[0])]
            partners += row[3][lo:lo + width]
        start += width
    r = ["%d/%d" % (xj // g, big // g)
         for xj in map((-h_num).__add__, y) for g in [gcd(xj, big)]]
    if profile.s <= 3:
        mw = minimal_weight_profile(profile)
        k0, alpha = frac_str(mw.k0), [frac_str(a) for a in mw.alpha]
    else:
        k0 = alpha = None
    # h = h_num / 4pq, so no second copy of the weight formula runs
    head += (ratio_str(h_num, big // 12), profile.s)
    if jsonl:
        return record_to_json(head, partners, lam, r, cert, k0, alpha, verdict, spaces)
    return _ACTING_CSV % (head + (
        details["level"], cert, "" if k0 is None else k0, verdict.status,
        verdict.criterion, spaces.status, _CSV_CHECK[spaces.ratio_check],
        ";".join(lam), ";".join(r), "" if alpha is None else ";".join(alpha)))


def analyze(p, q, m, n):
    """Full analysis record for the canonical label of (m, n) in V(p, q):
    the JSON line of record_line, parsed, so that a record has one
    production route.

    Raises the usual validation errors on bad input; an in-range label
    that is not acting yields a reduced record with acting = false.  Each
    call returns fresh objects, which the caller may change.
    """
    import json
    return json.loads(record_line("jsonl", None, (p, q, m, n)))


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

_NOT_ACTING_JSON = '{"p": %d, "q": %d, "m": %d, "n": %d, "acting": false, "c": "%s", "h": "%s"}\n'

_ACTING_JSON = (
    '{"p": %d, "q": %d, "m": %d, "n": %d, "acting": true, "c": "%s", "h": "%s", "s": %d, '
    '"partners": [%s], "lambda": ["%s"], "r": ["%s"], "level": %d, "level_factorization": %s, '
    '"irreducibility": "%s", "k0": %s, "alpha": %s, '
    '"verdict": {"status": "%s", "criterion": "%s", "details": {"s": %d, "level": %d, '
    '"level_factorization": %s, "min_congruence_dim": %d, "agreeing_criteria": %s%s}}, '
    '"spaces": {"status": "%s", "lambda_flags": ["%s"], "ratio_check": %s}}\n'
)


def record_to_json(head, partners, lam, r, cert, k0, alpha, verdict, spaces):
    """The JSON line of an acting label's record, with its newline, from
    the stage results as record_line holds them: head = (p, q, m, n, c, h,
    s) with c and h rendered, the partner JSON texts, the rendered lambda
    and r lists, the certificate, k0 and alpha rendered or None, and the
    verdict and space comparison as their stage functions return them.

    The verdict details always start with the same five keys: the one key
    a low-dimension verdict may restate, "level", keeps its place and its
    value (congruence_verdict asserts that), and the keys such a verdict
    adds after the five go through _json.
    """
    details = verdict.details
    extra = ""
    if len(details) > 5:
        extra = "".join(', "%s": %s' % (key, _json(value))
                        for key, value in list(details.items())[5:])
    factors = "%s" % details["level_factorization"]
    return _ACTING_JSON % (head + (
        ", ".join(partners), '", "'.join(lam), '", "'.join(r), details["level"], factors,
        cert, "null" if k0 is None else '"%s"' % k0, "null" if alpha is None else _strs(alpha),
        verdict.status, verdict.criterion, details["s"], details["level"], factors,
        details["min_congruence_dim"], _strs(details["agreeing_criteria"]), extra,
        spaces.status, '", "'.join(spaces.lambda_flags), _JSON_CHECK[spaces.ratio_check]))


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


def records_to_csv(cells):
    """CSV lines of the records of cells, (p, q, m, n) tuples: the header
    line, then record_line's row for each cell as it is drawn.

    The cells of a row are joined as they are: each is empty or made of
    digits, lowercase letters, "/", "-" and ";", so none can need quoting.
    """
    yield ",".join(CSV_COLUMNS) + "\n"
    for cell in cells:
        yield record_line("csv", None, cell)
