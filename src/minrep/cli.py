"""Command line interface.

Subcommands: analyze (one label), scan (grid atlas), qseries (operator
expressions applied to builtin series), selftest (verification sweeps).

Exit codes: 0 success, 1 selftest failure, 2 validation error, 64 usage
error, 65 expression parse error.  The MINREP_TRUNCATION environment
variable overrides the default truncation order 40 for qseries; from
either source the order must lie in [1, qseries.MAX_ORDER = 10000].
"""

import argparse
import os
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from multiprocessing import Pool

from . import analysis, qseries, selftest
from .core import list_modules, models
from .errors import ExpressionError, InhomogeneousOperator, MinrepError

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_EXPRESSION = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; we need 64
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="minrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a single Kac label")
    pa.add_argument("--p", type=int, required=True)
    pa.add_argument("--q", type=int, required=True)
    pa.add_argument("--m", type=int, required=True)
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--format", choices=["json", "table"], default="json")

    ps = sub.add_parser("scan", help="analyze every canonical label on a grid")
    ps.add_argument("--p-max", type=int, required=True)
    ps.add_argument("--q-max", type=int, required=True)
    ps.add_argument("--filter", default=None,
                    help="verdict=STATUS, dim=N or level=N")
    ps.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    ps.add_argument("--jobs", type=int, default=1)

    pq = sub.add_parser("qseries", help="apply an operator expression to a builtin series")
    pq.add_argument("--expr", required=True,
                    help="sums of terms coeff*G4^a*G6^b*D^n (each term multiplies "
                         "by the form after differentiating n times)")
    pq.add_argument("--apply", required=True, dest="target",
                    help="builtin series: eta^w or G<even k>")
    pq.add_argument("--order", type=int, default=None)

    pt = sub.add_parser("selftest", help="run the verification sweeps")
    pt.add_argument("--suite", choices=["all", "monic", "lemmas", "ratios", "qseries"],
                    default="all")
    pt.add_argument("--grid", type=int, default=None)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "qseries":
            return cmd_qseries(args)
        return cmd_selftest(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MinrepError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


def entry():
    sys.exit(main())


def cmd_analyze(args):
    record = analysis.analyze(args.p, args.q, args.m, args.n)
    if args.format == "json":
        print(analysis.record_to_json(record))
    else:
        print(analysis.record_to_table(record))
    return EXIT_OK


def _parse_filter(spec):
    """The filter as (key, value), or None for no filter: key is the record
    field to compare, "verdict" standing for its verdict's status."""
    if spec is None:
        return None
    match = re.fullmatch(r"verdict=([a-z]+)|(dim|level)=([0-9]+)", spec)
    if match is None:
        raise _UsageError("bad filter %r; expected verdict=..., dim=N or level=N" % spec)
    status, key, number = match.groups()
    if key is None:
        if status not in ("congruence", "noncongruence", "unknown"):
            raise _UsageError("unknown verdict %r" % status)
        return "verdict", status
    return ("s" if key == "dim" else "level"), int(number)


def _kept(record, condition):
    key, value = condition
    if key == "verdict":
        return "verdict" in record and record["verdict"]["status"] == value
    return record.get(key) == value


def _scan_cell(fmt, condition, cell):
    """The output text of one cell: its record's line in the format fmt,
    or "" if the filter condition drops the record."""
    record = analysis.analyze(*cell)
    if condition is not None and not _kept(record, condition):
        return ""
    if fmt == "jsonl":
        return analysis.record_to_json(record) + "\n"
    return analysis.record_to_csv_line(record)


def cmd_scan(args):
    if args.p_max < 2 or args.q_max < 2:
        raise _UsageError("scan bounds must be >= 2")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1, got %s" % args.jobs)
    # a picklable function, so that each line is rendered where its cell
    # is analyzed and only text crosses the pool's pipe
    scan_cell = partial(_scan_cell, args.format, _parse_filter(args.filter))
    cells = (
        (model.p, model.q, label.m, label.n)
        for model in models(args.p_max, args.q_max)
        for label in list_modules(model)
    )
    # more workers than CPUs or cells only adds start-up cost
    jobs = min(args.jobs, os.cpu_count() or 1)
    head = list(islice(cells, jobs))
    jobs = min(jobs, len(head))
    cells = chain(head, cells)
    if args.format == "csv":
        # the CSV of no records is its header line
        sys.stdout.writelines(analysis.records_to_csv(()))
    if jobs > 1:
        with Pool(jobs) as pool:
            sys.stdout.writelines(_pool_records(pool, scan_cell, cells))
    else:
        sys.stdout.writelines(map(scan_cell, cells))
    return EXIT_OK


#: cells per pool task, and cells handed to the pool at once
_CHUNK = 64
_WINDOW = 8 * _CHUNK


def _pool_records(pool, scan_cell, cells):
    """scan_cell of each cell from the pool, in order.

    Pool.imap reads all of its input at once and queues every result the
    writer has not yet taken, so a writer slower than the workers would
    hold a backlog that grows with the grid.  The cells go to the pool a
    window at a time instead, one window ahead of the writer, so that at
    most two windows of results are held.
    """
    windows = iter(lambda: list(islice(cells, _WINDOW)), [])
    ahead = iter(())
    for window in windows:
        current, ahead = ahead, pool.imap(scan_cell, window, chunksize=_CHUNK)
        yield from current
    yield from ahead


_FACTOR_RE = re.compile(r"(?:(\d+(?:/\d+)?)|(G4|G6|D)(?:\^(\d+))?)$")


def parse_operator(expr, order):
    """Parse sums of coeff*G4^a*G6^b*D^n, with a, b, n <= MAX_POWER, into a ModularOperator."""
    text = expr.replace(" ", "")
    if not text:
        raise ExpressionError("empty expression")
    terms = re.findall(r"[+-]?[^+-]+", text)
    if "".join(terms) != text:
        raise ExpressionError("cannot parse %r" % expr)
    total = None
    for term in terms:
        sign = Fraction(1)
        if term[0] in "+-":
            if term[0] == "-":
                sign = Fraction(-1)
            term = term[1:]
        coeff = sign
        g4 = g6 = ndeg = 0
        for factor in term.split("*"):
            match = _FACTOR_RE.fullmatch(factor)
            if match is None:
                raise ExpressionError("bad factor %r" % factor)
            number, name, power = match.groups()
            if number is not None:
                try:
                    coeff *= Fraction(number)
                except (ZeroDivisionError, ValueError):
                    raise ExpressionError("zero denominator or too many digits in %.20r"
                                          % factor) from None
            else:
                power = _int(power) if power else 1
                if name == "G4":
                    g4 += power
                elif name == "G6":
                    g6 += power
                else:
                    ndeg += power
        if max(g4, g6, ndeg) > qseries.MAX_POWER:
            raise ExpressionError("a power of G4, G6 or D is over %d" % qseries.MAX_POWER)
        form = qseries.ModularForm(
            Fraction(0), qseries.QSeries(0, (coeff,) + (Fraction(0),) * order)
        )
        for k, power in ((4, g4), (6, g6)):
            if power:
                g = qseries.eisenstein(k, order)
                form *= qseries.ModularForm(g.weight * power, qseries._pow_series(g.series, power))
        op = qseries.ModularOperator((None,) * ndeg + (form,))
        total = op if total is None else total + op
    return total


def _int(digits):
    try:  # int() refuses strings of more than sys.get_int_max_str_digits() digits
        return int(digits)
    except ValueError:
        raise ExpressionError("a number has too many digits") from None


_BUILTIN_RE = re.compile(r"eta(?:\^(\d+))?$|G(\d+)$")


def parse_builtin_series(name, order):
    match = _BUILTIN_RE.fullmatch(name.replace(" ", ""))
    if match is None:
        raise ExpressionError("unknown builtin series %r" % name)
    eta_pow, g_weight = match.groups()
    if g_weight is not None:
        k = _int(g_weight)
        if k % 2 != 0 or not 2 <= k <= qseries.MAX_POWER:
            raise ExpressionError("Eisenstein weight must be even and in [2, %d]"
                                  % qseries.MAX_POWER)
        return qseries.eisenstein(k, order)
    w = _int(eta_pow) if eta_pow else 1
    if not 1 <= w <= qseries.MAX_POWER:
        raise ExpressionError("eta power must be in [1, %d]" % qseries.MAX_POWER)
    return qseries.eta_power(w, order)


def cmd_qseries(args):
    order = args.order
    if order is None:
        env = os.environ.get("MINREP_TRUNCATION")
        try:
            order = int(env) if env else qseries.DEFAULT_ORDER
        except ValueError:
            raise _UsageError("MINREP_TRUNCATION must be an integer, got %r" % env) from None
    if not 1 <= order <= qseries.MAX_ORDER:
        raise _UsageError("order must be in [1, %d], got %s" % (qseries.MAX_ORDER, order))
    try:
        target = parse_builtin_series(args.target, order)
        operator = parse_operator(args.expr, order)
        result = qseries.apply_operator(operator, [target.series], target.weight)[0]
    except (ExpressionError, InhomogeneousOperator) as exc:
        print("expression error: %s" % exc, file=sys.stderr)
        return EXIT_EXPRESSION
    print(result.serialize())
    return EXIT_OK


def cmd_selftest(args):
    results = selftest.run_selftests(args.suite, args.grid)
    for result in results:
        status = "ok" if result.ok else "FAIL"
        print("%s: %d checks, %d failures [%s]"
              % (result.name, result.checked, len(result.failures), status))
        if not result.checked:
            print("  no checks ran; the grid is too small")
        for message in result.failures[:10]:
            print("  " + message)
    return EXIT_OK if all(result.ok for result in results) else EXIT_SELFTEST


if __name__ == "__main__":
    entry()
