"""Command line interface.

Subcommands: analyze (one label), scan (grid atlas), qseries (operator
expressions applied to builtin series), selftest (verification sweeps).
Each command imports what only it needs when it runs: the q-series
engine for qseries and selftest, and the sweeps for selftest; so analyze
and scan start without them.  scan --jobs N runs its cells in N forked
workers (Pool), which send back rendered text over pipes; where os.fork
is missing it runs serially.

Exit codes: 0 success, 1 selftest failure, 2 validation error, 64 usage
error (scan bounds and --grid above core.MAX_INDEX included, and a
numeric option that is not a sign and 1 to 640 ASCII digits), 65
expression parse error, 70 internal error (an unexpected exception; its
traceback goes to stderr), 141 broken pipe (stdout was closed before all
output was written: 128 + SIGPIPE, with no traceback and no worker left
running).  The qseries truncation order is --order, 40 by default, and
must lie in [1, qseries.MAX_ORDER = 10000].
"""

import argparse
import os
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import chain, islice

from . import analysis
from .core import MAX_INDEX, list_modules, models
from .errors import ExpressionError, InhomogeneousOperator, MinrepError

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_EXPRESSION = 65
EXIT_INTERNAL = 70
EXIT_BROKEN_PIPE = 141

#: the quantifier of every digit run in --expr, --apply and --filter: 640
#: digits is the smallest limit that PYTHONINTMAXSTRDIGITS can set, so
#: int() and Fraction() convert every run the grammar accepts, under any
#: setting
_DIGITS = "{1,640}"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; we need 64.  Its
    # message quotes the offending argument in full, so a long one keeps
    # only its first and last 100 characters
    def error(self, message):
        if len(message) > 200:
            message = message[:100] + " ... " + message[-100:]
        raise _UsageError(message)


def _integer(text):
    """The type of every numeric option: an int written as [+-]? and at
    most 640 ASCII digits, so that int() converts it under any
    PYTHONINTMAXSTRDIGITS setting."""
    if re.fullmatch(r"[+-]?[0-9]" + _DIGITS, text) is None:
        raise argparse.ArgumentTypeError("expected an integer of at most 640 digits, got %.20r"
                                         % text)
    return int(text)


def build_parser():
    parser = _Parser(prog="minrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a single Kac label")
    for name in ("--p", "--q", "--m", "--n"):
        pa.add_argument(name, type=_integer, required=True)
    pa.add_argument("--format", choices=["json", "table"], default="json")
    pa.set_defaults(run=cmd_analyze)

    ps = sub.add_parser("scan", help="analyze every canonical label on a grid")
    ps.add_argument("--p-max", type=_integer, required=True)
    ps.add_argument("--q-max", type=_integer, required=True)
    ps.add_argument("--filter", default=None,
                    help="verdict=STATUS, dim=N or level=N")
    ps.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    ps.add_argument("--jobs", type=_integer, default=1)
    ps.set_defaults(run=cmd_scan)

    pq = sub.add_parser("qseries", help="apply an operator expression to a builtin series")
    pq.add_argument("--expr", required=True,
                    help="sums of terms coeff*G4^a*G6^b*D^n (each term multiplies "
                         "by the form after differentiating n times)")
    pq.add_argument("--apply", required=True, dest="target",
                    help="builtin series: eta^w or G<even k>")
    pq.add_argument("--order", type=_integer, default=None)
    pq.set_defaults(run=cmd_qseries)

    pt = sub.add_parser("selftest", help="run the verification sweeps")
    pt.add_argument("--suite", choices=["all", "monic", "lemmas", "ratios", "qseries"],
                    default="all")
    pt.add_argument("--grid", type=_integer, default=None,
                    help="grid of the monic (default 50), lemmas and ratios "
                         "(default 60) suites; the qseries suite has no grid "
                         "and ignores it")
    pt.set_defaults(run=cmd_selftest)
    return parser


def main(argv=None):
    try:
        # the parser is built here, so that it binds the cmd_* functions
        # as they stand when main runs
        args = build_parser().parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # so that a closed stdout is met here
        return code
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # devnull, so that the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ExpressionError, InhomogeneousOperator) as exc:
        print("expression error: %s" % exc, file=sys.stderr)
        return EXIT_EXPRESSION
    except MinrepError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except Exception:
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


def cmd_analyze(args):
    if args.format == "json":
        sys.stdout.write(analysis.record_line("jsonl", None, (args.p, args.q, args.m, args.n)))
    else:
        print(analysis.record_to_table(analysis.analyze(args.p, args.q, args.m, args.n)))
    return EXIT_OK


def _parse_filter(spec):
    """The filter as (key, value), or None for no filter: key is the record
    field to compare, "verdict" standing for its verdict's status."""
    if spec is None:
        return None
    match = re.fullmatch(r"verdict=([a-z]+)|(dim|level)=([0-9]{0})".format(_DIGITS), spec)
    if match is None:
        raise _UsageError("bad filter %.20r; expected verdict=..., dim=N or level=N" % spec)
    status, key, number = match.groups()
    if key is None:
        if status not in ("congruence", "noncongruence", "unknown"):
            raise _UsageError("unknown verdict %.20r" % status)
        return "verdict", status
    return ("s" if key == "dim" else "level"), int(number)


def cmd_scan(args):
    if not (2 <= args.p_max <= MAX_INDEX and 2 <= args.q_max <= MAX_INDEX):
        raise _UsageError("scan bounds must lie in [2, MAX_INDEX = %d]" % MAX_INDEX)
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1, got %s" % args.jobs)
    # each line is rendered where its cell is analyzed, so that only text
    # crosses the pool's pipes; a partial of a module function, so that a
    # multiprocessing pool put in Pool's place can pickle it too
    scan_cell = partial(analysis.record_line, args.format, _parse_filter(args.filter))
    cells = (
        (model.p, model.q, label.m, label.n)
        for model in models(args.p_max, args.q_max)
        for label in list_modules(model)
    )
    # more workers than CPUs or cells only adds start-up cost, and the
    # pool needs os.fork
    jobs = min(args.jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    head = list(islice(cells, jobs))
    jobs = min(jobs, len(head))
    cells = chain(head, cells)
    if args.format == "csv":
        # the CSV of no records is its header line
        sys.stdout.writelines(analysis.records_to_csv(()))
    if jobs > 1:
        with Pool(jobs) as pool:
            sys.stdout.writelines(pool.imap(scan_cell, cells, chunksize=_CHUNK))
    else:
        sys.stdout.writelines(map(scan_cell, cells))
    return EXIT_OK


class Pool:
    """A pool of forked workers for one imap; a context manager.

    imap forks the workers once.  Each worker inherits the input iterator
    as it stands at the fork, cuts it into the same chunks as the parent
    and renders chunk k only when k % processes is its index.  Chunks are
    the only unit: a worker writes each of its chunks as one
    length-prefixed frame of UTF-8 text, the concatenation of func over
    the chunk's items, to its own pipe; the parent reads chunk k from
    worker k % processes and imap yields that frame's text, so results
    come back in input order and nothing is pickled.  A worker, and the
    parent, hold one chunk's text at a time, and a worker runs ahead of
    the reader only by what its pipe holds (_PIPE_BYTES where the kernel
    allows it), so memory stays bounded however long the input.

    func must return str.  cmd_scan looks this binding up when it runs,
    so tests and perfbench's tracer replace it by name.  On leaving the
    with block the pool closes its pipes and waits for every worker; on
    an exception it kills them first.
    """

    def __init__(self, processes):
        self._processes = processes
        self._workers = []  # (pid, read end of its pipe)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            import signal
            for pid, _ in self._workers:
                os.kill(pid, signal.SIGKILL)
        for _, reader in self._workers:
            reader.close()  # a worker still writing gets EPIPE and ends
        for pid, _ in self._workers:
            os.waitpid(pid, 0)
        self._workers = []
        return False

    def imap(self, func, iterable, chunksize=1):
        import fcntl
        items = iter(iterable)
        chunks = iter(lambda: list(islice(items, chunksize)), [])
        for index in range(self._processes):
            read_fd, write_fd = os.pipe()
            try:
                # a default 64 KiB pipe holds less than one chunk of long
                # JSON lines, so a worker would wait for the reader instead
                # of rendering its next chunk; where the size cannot be set
                # (not Linux, or over the user's pipe quota) it stays
                fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (AttributeError, OSError):
                pass
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                self._work(func, chunks, index, read_fd, write_fd)
            os.close(write_fd)
            self._workers.append((pid, open(read_fd, "rb")))
        return self._results(chunks)

    def _results(self, chunks):
        for k, _ in enumerate(chunks):
            pid, reader = self._workers[k % self._processes]
            size = int.from_bytes(_read(reader, _FRAME_BYTES, pid), "little")
            yield _read(reader, size, pid).decode()

    def _work(self, func, chunks, index, read_fd, write_fd):
        """Render this worker's chunks into write_fd, then end the process.

        The pipe is closed only by os._exit, so that the parent meets its
        end only after a traceback has been written.  os._exit also keeps
        the worker from flushing the stdout buffer it inherited and from
        running the parent's exit handlers."""
        code = 1
        try:
            os.close(read_fd)
            for _, reader in self._workers:
                reader.close()
            pipe = open(write_fd, "wb")
            for k, chunk in enumerate(chunks):
                if k % self._processes == index:
                    data = "".join(map(func, chunk)).encode()
                    pipe.write(len(data).to_bytes(_FRAME_BYTES, "little") + data)
            pipe.flush()
            code = 0
        except BrokenPipeError:
            pass  # the parent stopped reading
        except BaseException:
            import traceback
            traceback.print_exc()
        finally:
            try:
                sys.stderr.flush()
            finally:
                os._exit(code)


def _read(reader, size, pid):
    data = reader.read(size)
    if len(data) < size:
        raise RuntimeError("pool worker %d ended before sending all its results" % pid)
    return data


#: cells per pool chunk, bytes of the length prefix of each chunk's frame,
#: and bytes each worker's pipe is asked to hold (Linux's unprivileged
#: maximum)
_CHUNK = 64
_FRAME_BYTES = 4
_PIPE_BYTES = 1 << 20


_FACTOR_RE = re.compile(r"(?:([0-9]{0}(?:/[0-9]{0})?)|(G4|G6|D)(?:\^([0-9]{0}))?)$"
                        .format(_DIGITS))


def parse_operator(expr, order):
    """Parse sums of coeff*G4^a*G6^b*D^n, with a, b, n <= MAX_POWER, into a ModularOperator."""
    from . import qseries
    text = expr.replace(" ", "")
    if not text:
        raise ExpressionError("empty expression")
    terms = re.findall(r"[+-]?[^+-]+", text)
    if "".join(terms) != text:
        raise ExpressionError("cannot parse %.20r" % expr)
    total = qseries.ModularOperator({})
    for term in terms:
        coeff = Fraction(-1 if term[0] == "-" else 1)
        powers = dict.fromkeys(("G4", "G6", "D"), 0)
        for factor in term.lstrip("+-").split("*"):
            match = _FACTOR_RE.fullmatch(factor)
            if match is None:
                raise ExpressionError("bad factor %.20r" % factor)
            number, name, power = match.groups()
            if number is not None:
                try:
                    coeff *= Fraction(number)
                except ZeroDivisionError:
                    raise ExpressionError("zero denominator in %.20r" % factor) from None
            else:
                powers[name] += int(power) if power else 1
        if max(powers.values()) > qseries.MAX_POWER:
            raise ExpressionError("a power of G4, G6 or D is over %d" % qseries.MAX_POWER)
        form = qseries.ModularForm(Fraction(0), qseries.QSeries(0, [coeff] + [0] * order))
        for k, name in ((4, "G4"), (6, "G6")):
            if powers[name]:
                form *= qseries.eisenstein(k, order) ** powers[name]
        total = total + qseries.ModularOperator({powers["D"]: form})
    return total


_BUILTIN_RE = re.compile(r"eta(?:\^([0-9]{0}))?$|G([0-9]{0})$".format(_DIGITS))


def parse_builtin_series(name, order):
    from . import qseries
    match = _BUILTIN_RE.fullmatch(name.replace(" ", ""))
    if match is None:
        raise ExpressionError("unknown builtin series %.20r" % name)
    eta_pow, g_weight = match.groups()
    if g_weight is not None:
        k = int(g_weight)
        if k % 2 != 0 or not 2 <= k <= qseries.MAX_POWER:
            raise ExpressionError("Eisenstein weight must be even and in [2, %d]"
                                  % qseries.MAX_POWER)
        return qseries.eisenstein(k, order)
    w = int(eta_pow) if eta_pow else 1
    if not 1 <= w <= qseries.MAX_POWER:
        raise ExpressionError("eta power must be in [1, %d]" % qseries.MAX_POWER)
    return qseries.eta_power(w, order)


def cmd_qseries(args):
    from . import qseries
    order = qseries.DEFAULT_ORDER if args.order is None else args.order
    if not 1 <= order <= qseries.MAX_ORDER:
        raise _UsageError("order must be in [1, %d], got %s" % (qseries.MAX_ORDER, order))
    target = parse_builtin_series(args.target, order)
    operator = parse_operator(args.expr, order)
    print(qseries.apply_operator(operator, target).series.serialize())
    return EXIT_OK


def cmd_selftest(args):
    if args.grid is not None and args.grid > MAX_INDEX:
        raise _UsageError("--grid must be at most MAX_INDEX = %d, got %s"
                          % (MAX_INDEX, args.grid))
    from . import selftest
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
