"""Benchmark of the minrep command line, end to end and layer by layer.

    python3 perfbench/run.py --workload atlas --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced
    python3 perfbench/run.py --workload atlas --full --trace 1  # grid 30, traced
    python3 perfbench/run.py --manifest          # rewrite BENCHMARK.json

Run it from the root of a minrep checkout; it runs the sources under
src/ as they are, so there is nothing to build.  The workloads and their
seeds are in workloads.py, the output checks in oracle.py and the
traced run in tracer.py.

--trace 0 times the real CLI (``python -m minrep.cli``) in a child
process, in a closed loop: at least one command, and another only while
it is expected to end within --seconds.  Every output is checked by the
oracle after its command has ended, outside the timed region.

On a shared machine a command's time is its own work times the
contention it meets, which comes and goes within seconds and lengthens
the same command by up to 70%.  So the benchmark also times, right
before and right after every command, a fixed pure-Python calibration
loop of its own (calibrate), and scales each command's time by
CALIBRATION_S / (mean of the two calibration times): the result reads in
seconds on a machine where the loop takes CALIBRATION_S.  A time metric
is the median of the scaled times of the run's commands.  The unscaled
medians are printed too.  The imports of setup_s, and the commands of a
workload that computes in one process, run pinned to one CPU with the
loop, so that the loop meets the contention the command met.

--trace 1 runs the command once untraced and once under tracer.py, each
between calibration passes, and reports the per-layer metrics from the
traced run's spans together with the tracing overhead (traced minus
untraced wall time, both scaled).

The last line printed is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric by
name and unit.
"""

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from oracle import check_output, expected
from tracer import SUITES, load, self_times
from workloads import TIMED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")
OUT_DIR = ".perfbench_out"
RUN_SECONDS = 35
SETUP_SAMPLES = 9
#: the calibration loop's wall time on the reference machine; scaled
#: times read in seconds on a machine where the loop takes this long
CALIBRATION_S = 0.15
CALIBRATION_ROUNDS = 120000

#: (name, unit, better, bound); README.md says what each one measures.  A
#: bound is the share of the parent's median by which a metric may worsen
#: before a change counts as a regression.  The times get the largest
#: bound: on a shared 2-core box even the scaled times of the same input
#: spread by about 10% from one run to the next.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("output_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

#: per-layer metrics of the traced run, by layer and with their unit
SPAN_BUSY = [
    "repdata.rep_profile", "fusion.self_coupled_partners",
    "repdata.irreducibility_certificate", "congruence.level",
    "congruence.congruence_verdict", "sweeps.fast_level", "spaces.space_comparison",
    "analysis.analyze", "analysis.record_to_json", "analysis.records_to_csv",
    "cli.pool.map", "cli.parse_operator",
    "qseries.QSeries.__mul__", "qseries.modular_derivative", "qseries.eta_power",
    "qseries.eisenstein",
] + ["selftest.suite_" + s for s in SUITES]
SPAN_CALLS = [
    "repdata.rep_profile", "repdata.irreducibility_certificate",
    "congruence.congruence_verdict", "sweeps.fast_level", "qseries.QSeries.__mul__",
]
SPAN_PERCENTILES = ["repdata.rep_profile", "analysis.analyze"]
LAYERS = ["core", "fusion", "repdata", "congruence", "spaces", "analysis",
          "sweeps", "selftest", "qseries", "cli"]
CRITERIA = [
    "nw-dimension-bound", "none", "vacuum", "one-dimensional", "dim2-constant-rep",
    "dim3-infinite-image", "dim2-infinite-image", "dim3-level-divisor", "dim2-p5",
    "dim3-undetermined", "prime-power-bound", "boundary-prime-power", "distinct-primes",
]
CERTIFICATES = ["irreducible", "inconclusive", "not-computed"]

PER_LAYER = (
    [(n + ".busy_s", "s") for n in SPAN_BUSY]
    + [(n + ".calls", "count") for n in SPAN_CALLS]
    + [(n + suffix, "us") for n in SPAN_PERCENTILES for suffix in (".us_p50", ".us_p99")]
    + [("sweeps.fast_level.us_per_call", "us"),
       ("analysis.assembly.self_s", "s"),
       ("fusion.partners.count", "count"),
       ("repdata.certificate.computed_ratio", "ratio"),
       ("congruence.verdict.decided_ratio", "ratio"),
       ("cli.pool.pickle_mb", "MB"),
       ("selftest.checks", "count"),
       ("qseries.mul.coeff_products", "count")]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [("congruence.criterion.%s.count" % c, "count") for c in CRITERIA]
    + [("repdata.certificate.%s.count" % c, "count") for c in CERTIFICATES]
    + [("trace.overhead_s", "s"), ("trace.spans", "count")]
)


@dataclass
class Command:
    """One finished child process and what it used."""

    code: int
    wall: float
    cpu: float
    peak_rss_mb: float
    output_mb: float


def run_command(argv, out_path, env):
    """Run argv with stdout to out_path; resources come from wait4, which
    also covers the children the command waited for (pool workers)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss * 1024 / 1e6, os.path.getsize(out_path) / 1e6)


def child_env(root):
    env = dict(os.environ)
    env.pop("MINREP_TRUNCATION", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def calibrate(rounds=CALIBRATION_ROUNDS):
    """Wall and CPU time of one pass of a fixed pure-Python loop of the
    kind of work minrep does most (small-integer arithmetic, gcd, exact
    fractions, dict and string work); it uses none of minrep's code."""
    start, cpu = time.perf_counter(), time.process_time()
    counts, total, parts = {}, Fraction(0), []
    for i in range(1, rounds):
        a = (i * 7919) % 1009 + 1
        b = (i * 104729) % 997 + 1
        key = (a % 37, b % 41)
        counts[key] = counts.get(key, 0) + math.gcd(a * i, b * (i + 3))
        if i % 16 == 0:
            total += Fraction(a, b)
            parts.append("%d/%d" % (a, b))
    assert len(counts) == 37 * 41 and total > 0 and parts
    return time.perf_counter() - start, time.process_time() - cpu


def _calibration_helper(conn, cpu):
    """Run a calibration pass on cpu each time the parent asks for one."""
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(calibrate())


class Calibrator:
    """Calibration passes on several CPUs at once, for a command that
    computes on several: this process runs one on the first CPU while a
    helper process runs one on each other CPU; a pass's times are the
    means over the CPUs."""

    def __init__(self, cpus):
        self.cpu = cpus[0]
        self.helpers = []
        fork = multiprocessing.get_context("fork")
        for cpu in cpus[1:]:
            here, there = fork.Pipe()
            proc = fork.Process(target=_calibration_helper, args=(there, cpu))
            proc.start()
            self.helpers.append((proc, here))

    def __call__(self):
        own = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        for _, conn in self.helpers:
            conn.send(True)
        passes = [calibrate()] + [conn.recv() for _, conn in self.helpers]
        os.sched_setaffinity(0, own)
        return (statistics.mean(w for w, _ in passes), statistics.mean(c for _, c in passes))

    def close(self):
        for proc, conn in self.helpers:
            conn.send(False)
            proc.join()
        self.helpers = []


class Calibrated:
    """Times measured between calibration passes: each one is kept with
    the mean calibration time before and after it."""

    def __init__(self, calibration=None):
        self.calibration = calibration or calibrate
        self.before = self.calibration()
        self.samples = []  # (wall, cpu, calibration wall, calibration cpu)

    def add(self, wall, cpu=0.0):
        after = self.calibration()
        self.samples.append((wall, cpu, (self.before[0] + after[0]) / 2,
                             (self.before[1] + after[1]) / 2))
        self.before = after

    def scaled(self):
        """(wall, cpu) of each sample, scaled by its calibration."""
        return [(w * CALIBRATION_S / cw, c * CALIBRATION_S / cc) for w, c, cw, cc in self.samples]

    def scaled_wall(self):
        return statistics.median(w for w, _ in self.scaled())

    def scaled_cpu(self):
        return statistics.median(c for _, c in self.scaled())

    def median(self, index):
        return statistics.median(s[index] for s in self.samples)


@contextlib.contextmanager
def placement(processes):
    """Pin this process, and so the commands it starts, to one CPU if a
    command computes in one process; yield a Calibrator for the CPUs the
    command computes on.  Restores the CPUs and stops the helpers."""
    cpus = sorted(os.sched_getaffinity(0))
    calibrator = Calibrator(cpus[:processes])
    try:
        if processes == 1:
            os.sched_setaffinity(0, {cpus[0]})
        yield calibrator
    finally:
        calibrator.close()
        os.sched_setaffinity(0, set(cpus))


def measure_setup(env, samples=SETUP_SAMPLES):
    """Wall times of fresh interpreters importing minrep.cli, pinned to
    one CPU between calibration passes, after one unmeasured import that
    compiles the bytecode cache."""
    argv = [sys.executable, "-c", "import minrep.cli"]
    subprocess.run(argv, env=env, check=True)
    with placement(1) as calibrator:
        setup = Calibrated(calibrator)
        for _ in range(samples):
            start = time.perf_counter()
            subprocess.run(argv, env=env, check=True)
            setup.add(time.perf_counter() - start)
    return setup


def report_checks(inp, checks):
    """Lines describing the oracle results, with the last output's flags
    against the seed commit."""
    lines = []
    for check in checks:
        lines.append("  oracle: %d attempted, %d failed" % (check.attempted, check.failed))
        lines += ["    " + p for p in check.problems]
    check = checks[-1]
    pinned = expected()
    if inp.grid is not None:
        digest = pinned["atlas_digests"][inp.fmt].get("%d,%d" % inp.grid)
        lines.append("  output bytes match the seed commit: %s"
                     % ("yes" if check.digest == digest else "no"))
        counts = pinned["atlas_counts"].get("%d,%d" % inp.grid)
        if counts:
            same = (check.facts["criteria"] == counts["criteria"]
                    and check.facts["certificates"] == counts["certificates"])
            lines.append("  verdict and certificate counts match the seed commit: %s"
                         % ("yes" if same else "no"))
    return lines


def untraced(inp, seconds, root, env):
    """Closed loop of untraced commands between calibration passes, placed
    as placement() says; returns (metrics, unscaled medians, checks,
    commands run)."""
    out = os.path.join(root, OUT_DIR, inp.workload + ".out")
    argv = [sys.executable, "-m", "minrep.cli"] + list(inp.args)
    calibrate()  # warm-up, not counted
    setup = measure_setup(env)
    commands, checks = [], []
    with placement(inp.processes) as calibrator:
        timed = Calibrated(calibrator)
        start = time.perf_counter()
        while True:
            cmd = run_command(argv, out, env)
            commands.append(cmd)
            timed.add(cmd.wall, cmd.cpu)
            checks.append(check_output(inp, out, cmd.code))
            spent = time.perf_counter() - start
            if spent * (len(commands) + 1) / len(commands) > seconds:
                break
    med = statistics.median
    wall = timed.scaled_wall()
    metrics = {
        "wall_s": wall,
        "cpu_s": timed.scaled_cpu(),
        "records_per_s": med(ch.items for ch in checks) / wall,
        "peak_rss_mb": med(c.peak_rss_mb for c in commands),
        "output_mb": med(c.output_mb for c in commands),
        "setup_s": setup.scaled_wall(),
    }
    medians = {"wall_s": timed.median(0), "cpu_s": timed.median(1),
               "setup_s": setup.median(0), "calibration_s": timed.median(2)}
    return metrics, medians, checks, len(commands)


def traced(inp, root, env):
    """One untraced and one traced command between calibration passes;
    returns (metrics, checks).  The overhead compares the two commands'
    scaled times, as the timed runs do."""
    out = os.path.join(root, OUT_DIR, inp.workload + ".out")
    span_dir = os.path.join(root, OUT_DIR, "spans-" + inp.workload)
    shutil.rmtree(span_dir, ignore_errors=True)
    with placement(inp.processes) as calibrator:
        timed = Calibrated(calibrator)
        ref = run_command([sys.executable, "-m", "minrep.cli"] + list(inp.args), out, env)
        timed.add(ref.wall)
        checks = [check_output(inp, out, ref.code)]
        run = run_command([sys.executable, TRACER, span_dir] + list(inp.args), out, env)
        names, counts, post_ns, spans = load(span_dir)
        timed.add(run.wall - post_ns / 1e9)
        checks.append(check_output(inp, out, run.code))
    (untraced_s, *_), (traced_s, *_) = timed.scaled()
    return layer_metrics(names, counts, spans, traced_s - untraced_s), checks


def layer_metrics(names, counts, spans, overhead_s):
    """Every PER_LAYER metric from the spans and counters of a traced run."""
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[names[span[0]]].append(i)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def busy(name):
        """Time inside spans of this name, not counting nested ones twice."""
        total = 0
        for i in by_name.get(name, ()):
            j = spans[i][3]
            while j >= 0 and spans[j][0] != spans[i][0]:
                j = spans[j][3]
            if j < 0:
                total += duration(i)
        return total / 1e9

    def percentile_us(name, q):
        d = sorted(duration(i) for i in by_name.get(name, ()))
        if not d:
            return 0.0
        return d[max(0, math.ceil(q * len(d)) - 1)] / 1e3

    selfs = self_times(spans)
    layer_self = defaultdict(int)
    for i, span in enumerate(spans):
        layer_self[names[span[0]].split(".")[0]] += selfs[i]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    calls = lambda name: len(by_name.get(name, ()))
    cert_calls = calls("repdata.irreducibility_certificate")
    verdict_calls = calls("congruence.congruence_verdict")
    decided = counts["congruence.verdict.congruence"] + counts["congruence.verdict.noncongruence"]
    m = {}
    m.update({n + ".busy_s": busy(n) for n in SPAN_BUSY})
    m.update({n + ".calls": calls(n) for n in SPAN_CALLS})
    for n in SPAN_PERCENTILES:
        m[n + ".us_p50"] = percentile_us(n, 0.5)
        m[n + ".us_p99"] = percentile_us(n, 0.99)
    m["sweeps.fast_level.us_per_call"] = ratio(
        busy("sweeps.fast_level") * 1e6, calls("sweeps.fast_level"))
    m["analysis.assembly.self_s"] = sum(selfs[i] for i in by_name.get("analysis.analyze", ())) / 1e9
    m["fusion.partners.count"] = counts["fusion.partners"]
    m["repdata.certificate.computed_ratio"] = ratio(
        cert_calls - counts["repdata.irreducibility_certificate.raised"], cert_calls)
    m["congruence.verdict.decided_ratio"] = ratio(decided, verdict_calls)
    m["cli.pool.pickle_mb"] = counts["cli.pool.pickle_bytes"] / 1e6
    m["selftest.checks"] = counts["selftest.checks"]
    m["qseries.mul.coeff_products"] = counts["qseries.mul.coeff_products"]
    m.update({layer + ".self_s": layer_self[layer] / 1e9 for layer in LAYERS})
    m.update({"congruence.criterion.%s.count" % c: counts["congruence.criterion." + c]
              for c in CRITERIA})
    m.update({"repdata.certificate.%s.count" % c: counts["repdata.certificate." + c]
              for c in CERTIFICATES[:2]})
    # analysis records a certificate that raised SubsetBlowup as not-computed
    m["repdata.certificate.not-computed.count"] = counts["repdata.irreducibility_certificate.raised"]
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(spans)
    assert set(m) == {name for name, _ in PER_LAYER}
    return m


def run_input(inp, seconds, trace, root):
    """Measure one generated input, print every metric with its unit and
    return the result object."""
    env = child_env(root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    print("workload %s: minrep %s" % (inp.workload, " ".join(inp.args)))
    if trace:
        values, checks = traced(inp, root, env)
        units = dict(PER_LAYER)
        print("  traced run (per layer; cli.pool.pickle_mb is computed, not measured)")
    else:
        values, medians, checks, n = untraced(inp, seconds, root, env)
        units = {m[0]: m[1] for m in END_TO_END}
        print("  untraced commands: %d" % n)
        print("  unscaled medians: " + ", ".join("%s %.6g s" % kv for kv in medians.items()))
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for line in report_checks(inp, checks):
        print(line)
    print("  failed_ratio = %.6g (%d of %d operations)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    for metric, unit in units.items():
        print("  %s = %.6g %s" % (metric, values[metric], unit))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in TIMED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if u == "ratio" else "lower"}
                      for n, u in PER_LAYER],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--full", action="store_true",
                        help="run the full-size inputs instead of the seed's (workloads.py)")
    parser.add_argument("--manifest", action="store_true",
                        help="write BENCHMARK.json from the definitions here and exit")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if args.manifest:
        with open(os.path.join(root, "BENCHMARK.json"), "w") as out:
            json.dump(manifest(), out, indent=2)
            out.write("\n")
        return 0
    if not os.path.isfile(os.path.join(root, "src", "minrep", "cli.py")):
        print("error: run from the root of a minrep checkout (no src/minrep/cli.py here)",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("seed %d, trace %d%s" % (args.seed, args.trace, ", full-size inputs" if args.full else ""))
    results = {n: run_input(WORKLOADS[n].make(args.seed, args.full), args.seconds,
                            args.trace, root)
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
