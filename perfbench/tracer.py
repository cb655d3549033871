"""Traced run of one minrep command, with spans around calls into each layer.

    python3 perfbench/tracer.py SPAN_DIR [minrep arguments ...]

runs ``minrep.cli.main`` in this process after wrapping the public
functions listed in SITES at the places where another layer calls them,
and writes its spans to SPAN_DIR when the command has returned.  The
minrep sources are not modified: every wrapper is installed from here.

A span is (name, start, end, parent) with times from the monotonic clock,
which all processes share.  Spans are held in memory and written once at
the end, one file per process (the main process and each pool worker).
The layers are minrep's modules; a span's name starts with the module
that owns the wrapped function.

Leaf functions called once per partner or per check (for example
``core.conformal_weight`` inside ``rep_profile`` or ``congruence.nu``
inside the lemma sweep) are left unwrapped, because a span per call
would cost more than the work it measures; their time counts as the
caller's self time.  Generators (``sweeps.models`` and the label
enumerators) are not wrapped either, since their work interleaves with
the consumer's.
"""

import functools
import json
import os
import pickle
import sys
import time
from collections import Counter

#: (module whose binding is replaced, attribute, span name).  A binding is
#: replaced where the caller looks it up, so ``analysis.rep_profile`` wraps
#: the calls from analysis into repdata and nothing else.
SITES = [
    ("minrep.cli", "cmd_scan", "cli.cmd_scan"),
    ("minrep.cli", "cmd_selftest", "cli.cmd_selftest"),
    ("minrep.cli", "cmd_qseries", "cli.cmd_qseries"),
    ("minrep.cli", "parse_operator", "cli.parse_operator"),
    ("minrep.cli", "parse_builtin_series", "cli.parse_builtin_series"),
    ("minrep.analysis", "analyze", "analysis.analyze"),
    ("minrep.analysis", "record_to_json", "analysis.record_to_json"),
    ("minrep.analysis", "records_to_csv", "analysis.records_to_csv"),
    ("minrep.analysis", "validate_model", "core.validate_model"),
    ("minrep.analysis", "canonical_label", "core.canonical_label"),
    ("minrep.analysis", "central_charge", "core.central_charge"),
    ("minrep.analysis", "conformal_weight", "core.conformal_weight"),
    ("minrep.analysis", "rep_profile", "repdata.rep_profile"),
    ("minrep.analysis", "irreducibility_certificate", "repdata.irreducibility_certificate"),
    ("minrep.analysis", "minimal_weight_profile", "repdata.minimal_weight_profile"),
    ("minrep.analysis", "level", "congruence.level"),
    ("minrep.analysis", "congruence_verdict", "congruence.congruence_verdict"),
    ("minrep.analysis", "space_comparison", "spaces.space_comparison"),
    ("minrep.repdata", "self_coupled_partners", "fusion.self_coupled_partners"),
    ("minrep.repdata", "central_charge", "core.central_charge"),
    ("minrep.congruence", "rep_profile", "repdata.rep_profile"),
    ("minrep.congruence", "rep_dimension", "fusion.rep_dimension"),
    ("minrep.spaces", "rep_profile", "repdata.rep_profile"),
    ("minrep.spaces", "irreducibility_certificate", "repdata.irreducibility_certificate"),
    ("minrep.selftest", "run_selftests", "selftest.run_selftests"),
    ("minrep.selftest", "rep_profile", "repdata.rep_profile"),
    ("minrep.selftest", "minimal_weight_identity", "repdata.minimal_weight_identity"),
    ("minrep.selftest", "prime_case_closed_forms", "repdata.prime_case_closed_forms"),
    ("minrep.selftest", "fast_level", "sweeps.fast_level"),
    ("minrep.selftest", "factorize", "congruence.factorize"),
    ("minrep.selftest", "ratio_lambda_consistency", "spaces.ratio_lambda_consistency"),
    ("minrep.qseries", "eta_power", "qseries.eta_power"),
    ("minrep.qseries", "eisenstein", "qseries.eisenstein"),
    ("minrep.qseries", "modular_derivative", "qseries.modular_derivative"),
    ("minrep.qseries", "apply_operator", "qseries.apply_operator"),
]

SUITES = ["monic", "lemmas", "ratios", "qseries"]


def _count_partners(counts, result, args):
    counts["fusion.partners"] += len(result)


def _count_certificate(counts, result, args):
    counts["repdata.certificate." + result] += 1


def _count_verdict(counts, result, args):
    counts["congruence.criterion." + result.criterion] += 1
    counts["congruence.verdict." + result.status] += 1


def _count_checks(counts, result, args):
    counts["selftest.checks"] += result.checked


def _count_products(counts, result, args):
    """Coefficient products QSeries.__mul__ performed: it skips zeros."""
    a, b = args
    if not (hasattr(a, "coeffs") and hasattr(b, "coeffs")):
        return
    if a.is_zero() or b.is_zero():
        return
    n = min(a.order, b.order)
    nonzero_prefix = [0]
    for c in b.coeffs[: n + 1]:
        nonzero_prefix.append(nonzero_prefix[-1] + (1 if c else 0))
    counts["qseries.mul.coeff_products"] += sum(
        nonzero_prefix[n + 1 - i] for i, c in enumerate(a.coeffs[: n + 1]) if c
    )


HOOKS = {
    "fusion.self_coupled_partners": _count_partners,
    "repdata.irreducibility_certificate": _count_certificate,
    "congruence.congruence_verdict": _count_verdict,
    "qseries.QSeries.__mul__": _count_products,
}
HOOKS.update({"selftest.suite_" + s: _count_checks for s in SUITES})


class Tracer:
    """Spans and counters of one process, kept in flat lists."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [-1]
        self.counts = Counter()
        self.pool_batches = []  # (tasks, results, chunksize) of each pool map

    def reset(self):
        """Forget everything recorded, keeping the wrappers valid."""
        for seq in (self.name, self.start, self.end, self.parent):
            del seq[:]
        del self.stack[1:]
        self.counts.clear()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name):
        """fn with a span around each call, plus the name's counter hook.

        The body repeats open() and close() inline, on local names, to
        keep the cost per call low."""
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self.stack)
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                counts[name + ".raised"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        return functools.wraps(fn)(traced)

    def dump(self, path, post_ns=0):
        """Write the spans: a JSON header line, then one line per span."""
        header = {"names": self.names, "counts": dict(self.counts), "post_ns": post_ns}
        rows = zip(self.name, self.start, self.end, self.parent)
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            out.write("".join("%d %d %d %d\n" % row for row in rows))


def install(tracer, span_dir):
    """Wrap every site, the selftest suites, QSeries.__mul__ and the pool."""
    import importlib
    import multiprocessing.pool
    import multiprocessing.util

    for module_name, attr, span_name in SITES:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), span_name))

    selftest = importlib.import_module("minrep.selftest")
    for suite in SUITES:
        func, grid = selftest._SUITES[suite]
        traced = tracer.wrap(func, "selftest.suite_" + suite)
        selftest._SUITES[suite] = (traced, grid)
        setattr(selftest, "suite_" + suite, traced)

    qseries = importlib.import_module("minrep.qseries")
    qseries.QSeries.__mul__ = tracer.wrap(qseries.QSeries.__mul__, "qseries.QSeries.__mul__")

    def worker_start():
        # a forked worker inherits the parent's spans; it keeps only its own
        tracer.reset()
        root = tracer.open("cli.pool.worker")

        def dump():
            tracer.close(root)
            tracer.dump(os.path.join(span_dir, "spans-%d.txt" % os.getpid()))

        multiprocessing.util.Finalize(None, dump, exitpriority=10)

    class TracedPool(multiprocessing.pool.Pool):
        """The CLI's pool with worker tracing.  On exit it closes and joins
        instead of terminating, so that each worker writes its spans."""

        def __init__(self, processes=None):
            super().__init__(processes, initializer=worker_start)

        def map(self, func, iterable, chunksize=None):
            tasks = list(iterable)
            idx = tracer.open("cli.pool.map")
            try:
                result = super().map(func, tasks, chunksize)
            finally:
                tracer.close(idx)
            tracer.pool_batches.append((tasks, result, chunksize or 1))
            return result

        def __exit__(self, *exc):
            self.close()
            self.join()

    importlib.import_module("minrep.cli").Pool = TracedPool


def pickled_bytes(batches):
    """Bytes the pool pickles: each chunk of tasks and each chunk of
    results.  Computed after the run from the same objects, not measured
    on the pipe."""
    total = 0
    for tasks, results, chunk in batches:
        for i in range(0, len(tasks), chunk):
            total += len(pickle.dumps(tasks[i:i + chunk]))
            total += len(pickle.dumps(results[i:i + chunk]))
    return total


def main(argv):
    span_dir, cli_args = argv[0], argv[1:]
    os.makedirs(span_dir, exist_ok=True)
    from minrep import cli

    tracer = Tracer()
    install(tracer, span_dir)
    root = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(root)
        sys.stdout.flush()
    post_start = time.perf_counter_ns()
    tracer.counts["cli.pool.pickle_bytes"] = pickled_bytes(tracer.pool_batches)
    tracer.pool_batches = []
    tracer.dump(os.path.join(span_dir, "spans-main.txt"),
                post_ns=time.perf_counter_ns() - post_start)
    return code


def load(span_dir):
    """All spans of a traced run, merged over processes.

    Returns (names, counts, post_ns, spans) where spans is a list of
    (name, start_ns, end_ns, parent index or -1); within one process a
    parent always precedes its children.
    """
    names, spans, counts, post_ns = [], [], Counter(), 0
    ids = {}
    files = sorted(os.listdir(span_dir)) if os.path.isdir(span_dir) else []
    for fname in files:
        if not fname.startswith("spans-"):
            continue
        with open(os.path.join(span_dir, fname)) as src:
            header = json.loads(src.readline())
            local = []
            for n in header["names"]:
                if n not in ids:
                    ids[n] = len(names)
                    names.append(n)
                local.append(ids[n])
            counts.update(header["counts"])
            if fname == "spans-main.txt":
                post_ns = header["post_ns"]
            base = len(spans)
            for line in src:
                nid, start, end, parent = map(int, line.split())
                spans.append((local[nid], start, end, parent + base if parent >= 0 else -1))
    return names, counts, post_ns, spans


def self_times(spans):
    """Each span's duration minus the time its children cover.

    Children of one span run one after another in the same process, so
    the time they cover is the sum of their durations.
    """
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
