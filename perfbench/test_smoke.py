"""Smoke test of the benchmark at tiny sizes (scan grid 8, order 40).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric prints with its unit, that the atlas oracle
flags a corrupted level or r entry, and that a traced run writes spans
whose self times are non-negative and add up to their parent.
"""

import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

import oracle
import run
import tracer
from workloads import WORKLOADS, Input

ROOT = os.path.dirname(run.HERE)


def tiny(workload):
    if workload == "atlas":
        return Input("atlas", ("scan", "--p-max", "8", "--q-max", "8", "--format", "jsonl"),
                     grid=(8, 8), fmt="jsonl")
    if workload == "atlas-par":
        return Input("atlas-par", ("scan", "--p-max", "8", "--q-max", "8", "--jobs", "2",
                                   "--format", "csv"), grid=(8, 8), fmt="csv", processes=2)
    if workload == "verify":
        return Input("verify", ("selftest", "--grid", "8"), suite_grid=8)
    return Input("qseries", ("qseries", "--expr", "D", "--apply", "eta^2", "--order", "40"),
                 qseries=(2, 40))


def scan_output(tmp_path, fmt):
    inp = tiny("atlas" if fmt == "jsonl" else "atlas-par")
    path = str(tmp_path / ("scan." + fmt))
    cmd = run.run_command([sys.executable, "-m", "minrep.cli"] + list(inp.args), path,
                          run.child_env(ROOT))
    assert cmd.code == 0
    return inp, path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["atlas", "atlas-par", "verify"])
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    cpus = os.sched_getaffinity(0)
    result = run.run_input(tiny(workload), 0.1, trace, ROOT)
    assert os.sched_getaffinity(0) == cpus
    printed = capsys.readouterr().out
    wanted = run.PER_LAYER if trace else [m[:2] for m in run.END_TO_END]
    assert set(result["metrics"]) == {name for name, _ in wanted}
    for name, unit in wanted:
        assert result["metrics"][name]["unit"] == unit
        line = r"^  %s = \S+ %s$" % (re.escape(name), re.escape(unit))
        assert re.search(line, printed, re.M), name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("field", ["level", "r"])
def test_atlas_oracle_flags_corruption(tmp_path, fmt, field):
    inp, path = scan_output(tmp_path, fmt)
    assert oracle.check_atlas(inp, path).failed == 0
    with open(path) as src:
        lines = src.read().splitlines(True)
    target = next(i for i, line in enumerate(lines) if '"acting": true' in line
                  or line.count(",true,") == 1)
    if fmt == "jsonl":
        rec = json.loads(lines[target])
        if field == "level":
            rec["level"] += 1
        else:
            rec["r"][0] = "1/1000003"
        lines[target] = json.dumps(rec, separators=(", ", ": ")) + "\n"
    else:
        cells = lines[target].rstrip("\n").split(",")
        col = lines[0].rstrip("\n").split(",").index(field)
        if field == "level":
            cells[col] = str(int(cells[col]) + 1)
        else:
            cells[col] = ";".join(["1/1000003"] + cells[col].split(";")[1:])
        lines[target] = ",".join(cells) + "\n"
    with open(path, "w") as out:
        out.write("".join(lines))
    check = oracle.check_atlas(inp, path)
    assert check.attempted >= 1 and check.failed == 1


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_atlas_oracle_counts_a_truncated_output(tmp_path, fmt):
    inp, path = scan_output(tmp_path, fmt)
    with open(path) as src:
        text = src.read()
    with open(path, "w") as out:
        out.write(text[: text.rindex("\n", 0, -1) + 20])
    check = oracle.check_atlas(inp, path)
    assert check.failed == 1 and check.attempted == len(list(oracle.atlas_cells(8, 8)))


@pytest.mark.parametrize("workload", ["atlas-par", "verify", "qseries"])
def test_traced_spans_nest(tmp_path, workload):
    inp = tiny(workload)
    span_dir = str(tmp_path / "spans")
    cmd = run.run_command([sys.executable, run.TRACER, span_dir] + list(inp.args),
                          str(tmp_path / "out"), run.child_env(ROOT))
    assert cmd.code == 0
    names, counts, post_ns, spans = tracer.load(span_dir)
    assert spans and post_ns >= 0
    selfs = tracer.self_times(spans)
    assert all(s >= 0 for s in selfs)
    children = {}
    for i, (_, start, end, parent) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            children.setdefault(parent, []).append(i)
    for parent, kids in children.items():
        covered = sum(spans[k][2] - spans[k][1] for k in kids)
        assert selfs[parent] + covered == spans[parent][2] - spans[parent][1]
        ends = sorted((spans[k][1], spans[k][2]) for k in kids)
        assert all(a[1] <= b[0] for a, b in zip(ends, ends[1:])), "siblings overlap"
    if workload == "atlas-par":
        roots = [names[s[0]] for s in spans if s[3] < 0]
        assert roots.count("cli.main") == 1 and "cli.pool.worker" in roots
        assert counts["fusion.partners"] > 0


def test_selftest_recount_matches_pinned_counts():
    assert oracle.selftest_counts() == oracle.expected()["selftest_checks"]


def test_seeds_are_deterministic_and_seed_zero_is_the_reference():
    for name, workload in WORKLOADS.items():
        assert workload.make(5) == workload.make(5)
    assert WORKLOADS["atlas"].make(0).grid == (16, 16)
    assert WORKLOADS["verify"].make(0).args == ("selftest", "--grid", "30")
    assert WORKLOADS["qseries"].make(0).qseries == (24, 200)
    assert WORKLOADS["atlas"].make(7, full=True).grid == (30, 30)
    assert WORKLOADS["verify"].make(7, full=True).args == ("selftest",)
    assert WORKLOADS["qseries"].make(7, full=True).qseries == (24, 500)
    pinned = oracle.expected()
    for seed in range(50):
        assert "%d,%d" % WORKLOADS["qseries"].make(seed).qseries in pinned["qseries_digests"]
        grid = "%d,%d" % WORKLOADS["atlas"].make(seed).grid
        assert grid in pinned["atlas_digests"]["jsonl"] and grid in pinned["atlas_counts"]


def test_each_time_is_scaled_by_the_calibration_around_it(monkeypatch):
    passes = iter([(0.2, 0.1), (0.4, 0.3), (0.1, 0.1)])
    monkeypatch.setattr(run, "calibrate", lambda: next(passes))
    timed = run.Calibrated()
    timed.add(3.0, 2.0)
    timed.add(1.0, 1.0)
    s = run.CALIBRATION_S
    assert timed.samples == [(3.0, 2.0, pytest.approx(0.3), pytest.approx(0.2)),
                             (1.0, 1.0, pytest.approx(0.25), pytest.approx(0.2))]
    assert timed.scaled_wall() == pytest.approx((3.0 / 0.3 + 1.0 / 0.25) * s / 2)
    assert timed.scaled_cpu() == pytest.approx((2.0 / 0.2 + 1.0 / 0.2) * s / 2)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_calibrator_runs_a_pass_on_each_cpu_and_stops_its_helper():
    cpus = sorted(os.sched_getaffinity(0))
    calibrator = run.Calibrator(cpus[:2])
    try:
        wall, cpu = calibrator()
        assert wall > 0 and cpu > 0 and len(calibrator.helpers) == 1
        assert os.sched_getaffinity(0) == set(cpus)
    finally:
        calibrator.close()
    assert not calibrator.helpers and not multiprocessing.active_children()


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        assert json.load(src) == run.manifest()


def test_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", "qseries", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=str(tmp_path), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
