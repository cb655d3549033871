"""Analysis records, serialization round trips and the CLI surface."""

import ast
import csv
import glob
import importlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest

import minrep
from minrep import analysis, cli, errors, qseries, selftest
from minrep.core import MAX_INDEX, list_modules, models
from minrep.spaces import WINDOW_FACTS_ONLY


def test_analyze_record_structure():
    record = analysis.analyze(3, 4, 1, 3)
    assert record["acting"] is True
    assert record["s"] == 1
    assert record["c"] == "1/2"
    assert record["h"] == "1/2"
    assert record["lambda"] == ["1/24"]
    assert record["r"] == ["0/1"]
    assert record["level"] == 1
    assert record["k0"] == "1/2"
    assert record["verdict"]["status"] == "congruence"
    assert record["verdict"]["criterion"] == "one-dimensional"
    assert record["spaces"]["status"] == "equal"


def test_analyze_noncongruence_record():
    record = analysis.analyze(5, 7, 1, 3)
    assert record["verdict"]["status"] == "noncongruence"
    assert record["verdict"]["criterion"] == "nw-dimension-bound"
    assert record["level"] == 840
    assert record["irreducibility"] == "inconclusive"
    assert record["k0"] is None


def test_analyze_model_table_checks_each_raw_pair():
    # the per-model table is keyed by the raw (p, q) with their types, so
    # a float never hits the entry of its int, and a failed validation is
    # not kept
    assert analysis._model_table.cache_parameters() == {
        "maxsize": analysis._MODEL_TABLES, "typed": True}
    record = analysis.analyze(5, 7, 1, 3)
    for p, q in [(5.0, 7), (5, 7.0), (True, 7)]:
        with pytest.raises(errors.NotAnInteger):
            analysis.analyze(p, q, 1, 3)
    for _ in range(2):
        with pytest.raises(errors.NotCoprime):
            analysis.analyze(5, 10, 1, 3)
    assert analysis.analyze(5, 7, 1, 3) == record
    # both orders of a pair give one record, whichever entry was filled first
    assert analysis.analyze(4, 5, 1, 1) == analysis.analyze(5, 4, 1, 1)
    assert analysis.analyze(7, 2, 1, 1) == analysis.analyze(2, 7, 1, 1)


def test_analyze_non_acting_label():
    record = analysis.analyze(3, 4, 1, 2)
    assert record["acting"] is False
    assert record["h"] == "1/16"
    assert "verdict" not in record


def test_analyze_canonicalises_input():
    record = analysis.analyze(3, 4, 2, 1)
    assert (record["m"], record["n"]) == (1, 3)


def test_record_json_roundtrip_small_grid():
    from math import gcd
    for p in range(3, 15, 2):
        for q in range(2, 15):
            if q == p or gcd(p, q) != 1:
                continue
            for m in range(1, p, 2):
                for n in range(1, q):
                    record = analysis.analyze(p, q, m, n)
                    assert json.loads(analysis.record_to_json(record)) == record


def test_record_json_matches_json_dumps_byte_for_byte():
    # record_to_json skips json.dumps's cycle check; the text must not move
    count = 0
    for model in models(20, 20):
        for label in list_modules(model):
            record = analysis.analyze(model.p, model.q, label.m, label.n)
            assert analysis.record_to_json(record) == json.dumps(record)
            count += 1
    assert count == 7081


def _csv_module_line(cells):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def test_csv_lines_match_the_csv_module_byte_for_byte():
    # the rows are joined without quoting; csv.writer, which quotes only
    # where a cell needs it, must render every row of grid 20 the same
    assert next(analysis.records_to_csv(())) == _csv_module_line(analysis.CSV_COLUMNS)
    cell_chars = re.compile(r"[0-9a-z/;-]*")
    acting = set()
    for model in models(20, 20):
        for label in list_modules(model):
            record = analysis.analyze(model.p, model.q, label.m, label.n)
            verdict = record.get("verdict", {})
            spaces = record.get("spaces", {})
            row = dict(record, verdict_status=verdict.get("status"),
                       verdict_criterion=verdict.get("criterion"),
                       spaces_status=spaces.get("status"),
                       ratio_check=spaces.get("ratio_check"))
            cells = [analysis._csv_cell(row.get(col)) for col in analysis.CSV_COLUMNS]
            assert all(cell_chars.fullmatch(cell) for cell in cells), cells
            assert analysis.record_to_csv_line(record) == _csv_module_line(cells)
            acting.add(record["acting"])
    assert acting == {True, False}


def test_cli_analyze_json(capsys):
    code = cli.main(["analyze", "--p", "3", "--q", "4", "--m", "1", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["s"] == 1 and record["verdict"]["criterion"] == "one-dimensional"


def test_cli_analyze_table(capsys):
    code = cli.main(["analyze", "--p", "5", "--q", "7", "--m", "1", "--n", "3",
                     "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "noncongruence" in out


def test_cli_analyze_validation_error(capsys):
    code = cli.main(["analyze", "--p", "4", "--q", "6", "--m", "1", "--n", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "common factor" in err or "coprime" in err.lower() or "even" in err


def test_cli_usage_error(capsys):
    code = cli.main(["analyze", "--p", "3"])
    assert code == 64
    code = cli.main(["scan", "--p-max", "7", "--q-max", "8", "--filter", "bogus"])
    assert code == 64
    assert cli.main(["scan", "--p-max", "7", "--q-max", "8", "--filter", "verdict=bogus"]) == 64
    assert "unknown verdict 'bogus'" in capsys.readouterr().err
    # dim and level take digits only, and no more than int() converts,
    # checked before any worker starts
    for spec in ("dim=abc", "level=x1", "level=" + "7" * 5000, "dim=" + "1" * 5000):
        assert cli.main(["scan", "--p-max", "7", "--q-max", "8", "--filter", spec,
                         "--jobs", "2"]) == 64
        assert "bad filter" in capsys.readouterr().err
    assert cli.main(["scan", "--p-max", "9", "--q-max", "8", "--filter", "dim=007"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows and all(r["s"] == 7 for r in rows)


def test_cli_scan_includes_benchmarks(capsys):
    code = cli.main(["scan", "--p-max", "7", "--q-max", "8"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    keys = {(r["p"], r["q"], r["m"], r["n"]) for r in rows}
    assert (3, 4, 1, 1) in keys          # Ising vacuum
    assert (5, 2, 1, 1) in keys          # Lee-Yang vacuum
    assert (5, 4, 1, 1) in keys          # tricritical Ising vacuum
    # scans carry the non-acting labels too, marked as such
    assert any(not r["acting"] for r in rows)


def test_cli_scan_filter_and_csv(capsys):
    code = cli.main(["scan", "--p-max", "7", "--q-max", "8",
                     "--filter", "verdict=noncongruence", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p,q,m,n,acting")
    assert all(",noncongruence," in line for line in lines[1:])
    assert len(lines) > 1


def test_cli_scan_repeat_runs_identical(capsys, monkeypatch):
    args = ["scan", "--p-max", "9", "--q-max", "8"]
    # a repeated run, and CSV through the pool against CSV without it
    for extra_first, extra_second in [([], []),
                                      (["--format", "csv", "--jobs", "1"],
                                       ["--format", "csv", "--jobs", "2"])]:
        assert cli.main(args + extra_first) == 0
        first = capsys.readouterr().out
        assert cli.main(args + extra_second) == 0
        second = capsys.readouterr().out
        assert first.count("\n") > 50
        assert first == second
    # a real two-process pool over 2,556 cells, 40 chunks, against the
    # serial scan, in both formats and through the filter; at grid 20 the
    # dim=1 filter leaves most of the 111 chunks empty, and the last chunk
    # is short
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    grid16 = ["scan", "--p-max", "16", "--q-max", "16"]
    for args, lines in [(grid16, 2556),
                        (grid16 + ["--format", "csv", "--filter", "verdict=unknown"], 1 + 383),
                        (["scan", "--p-max", "20", "--q-max", "20", "--filter", "dim=1"], 76)]:
        assert cli.main(args + ["--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert first.count("\n") == lines
        assert cli.main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == first


def test_cli_scan_matches_the_pinned_digests(capsys, monkeypatch):
    # the grid-16, 27x9 and 29x8 scans in both formats, serially and through
    # the two-process pool, byte for byte against the digests the benchmark
    # pins; only grid 30 is left to the benchmark
    import hashlib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "expected.json")) as src:
        pinned = json.load(src)["atlas_digests"]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    for p_max, q_max in (("16", "16"), ("27", "9"), ("29", "8")):
        for fmt in ("jsonl", "csv"):
            for jobs in ("1", "2"):
                assert cli.main(["scan", "--p-max", p_max, "--q-max", q_max,
                                 "--format", fmt, "--jobs", jobs]) == 0
                digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
                assert digest == pinned[fmt][p_max + "," + q_max], (p_max, q_max, fmt, jobs)


def test_cli_qseries_matches_the_pinned_digests(capsys):
    # the benchmark's q-series expression on eta^w at order T, byte for
    # byte against the digests it pins; (24, 500) is its --full input
    import hashlib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "expected.json")) as src:
        pinned = json.load(src)["qseries_digests"]
    for w, order in [(24, 200), (20, 200), (24, 500)]:
        assert cli.main(["qseries", "--expr", "G6*D^2 + G4^2*D + 3/2*G4*G6",
                         "--apply", "eta^%d" % w, "--order", str(order)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == pinned["%d,%d" % (w, order)], (w, order)


def test_cli_scan_writes_each_record_before_the_next_cell(capsys, monkeypatch):
    # when analyze is called for cell k + 1, stdout holds the records of
    # the first k cells: a scan holds no list of records
    analyze = analysis.analyze
    written = []
    lines_before_call = []

    def spy(p, q, m, n):
        written.append(capsys.readouterr().out)
        lines_before_call.append("".join(written).count("\n"))
        return analyze(p, q, m, n)

    monkeypatch.setattr(cli.analysis, "analyze", spy)
    assert cli.main(["scan", "--p-max", "7", "--q-max", "6"]) == 0
    written.append(capsys.readouterr().out)
    assert len(lines_before_call) > 20
    assert lines_before_call == list(range(len(lines_before_call)))
    monkeypatch.undo()
    assert cli.main(["scan", "--p-max", "7", "--q-max", "6"]) == 0
    assert "".join(written) == capsys.readouterr().out


def test_cli_scan_filter_level(capsys):
    code = cli.main(["scan", "--p-max", "5", "--q-max", "4", "--filter", "level=48"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["level"] == 48 for r in rows)


def test_cli_scan_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        code = cli.main(["scan", "--p-max", "5", "--q-max", "4", "--jobs", jobs])
        assert code == cli.EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err


def test_cli_rejects_grid_bounds_over_max_index(capsys, monkeypatch):
    # refused before any work: models and the sweeps are never reached
    def unreachable(*args):
        raise AssertionError("a grid over MAX_INDEX was run")

    monkeypatch.setattr(cli, "models", unreachable)
    monkeypatch.setattr(selftest, "run_selftests", unreachable)
    over = str(MAX_INDEX + 1)
    for argv in (["scan", "--p-max", over, "--q-max", "3"],
                 ["scan", "--p-max", "3", "--q-max", over],
                 ["selftest", "--suite", "lemmas", "--grid", over]):
        assert cli.main(argv) == cli.EXIT_USAGE, argv
        assert "MAX_INDEX" in capsys.readouterr().err


def test_cli_scan_clamps_jobs_to_cpus_and_cells(capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for cli.Pool: records its size, maps serially."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=None):
            # only rendered text comes back from the workers
            for value in map(func, iterable):
                assert isinstance(value, str), value
                yield value

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.main(["scan", "--p-max", "20", "--q-max", "20", "--jobs", "1000",
                     "--filter", "dim=1"]) == 0
    clamped = capsys.readouterr().out
    # (3, 2) has one cell and (5, 2) two, so three cells in all
    assert cli.main(["scan", "--p-max", "5", "--q-max", "2", "--jobs", "8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    # an unknown CPU count means one process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.main(["scan", "--p-max", "5", "--q-max", "2", "--jobs", "8"]) == 0
    capsys.readouterr()
    assert sizes == [4, 3]
    assert cli.main(["scan", "--p-max", "20", "--q-max", "20", "--jobs", "1",
                     "--filter", "dim=1"]) == 0
    assert capsys.readouterr().out == clamped
    # the pool forks, so without os.fork the scan runs serially
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.delattr(cli.os, "fork")
    assert cli.main(["scan", "--p-max", "20", "--q-max", "20", "--jobs", "4",
                     "--filter", "dim=1"]) == 0
    assert capsys.readouterr().out == clamped
    assert sizes == [4, 3]


@pytest.mark.parametrize("processes", [2, 3])
def test_cli_pool_reads_its_input_lazily_and_reaps_its_workers(processes, capfd):
    # a worker runs ahead of the reader only by what its pipe holds: a pool
    # that read its input eagerly would never return on an endless iterator.
    # The workers, still writing, meet the closed pipes and end quietly.
    # imap yields one string per chunk, the results of its items joined.
    start = time.monotonic()
    with cli.Pool(processes) as pool:
        results = pool.imap(str, itertools.count(), chunksize=64)
        assert "".join(next(results) for _ in range(16)) == "".join(map(str, range(1024)))
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr().err == ""


def test_cli_pool_sends_a_frame_larger_than_its_pipe():
    # a 64-item chunk of 50 kB results is a 3.2 MB frame against a pipe of
    # at most _PIPE_BYTES; the last chunk holds two items
    def render(i):
        return "%d:" % i + "x" * 50_000

    with cli.Pool(2) as pool:
        pooled = "".join(pool.imap(render, range(130), chunksize=64))
    assert pooled == "".join(map(render, range(130)))
    assert len(pooled) > 3 * cli._PIPE_BYTES
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_scan_worker_failure_is_loud_and_leaves_no_child():
    # a cell that raises inside a worker: its traceback reaches stderr, the
    # scan fails on the output it wrote so far, and every worker is reaped
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    script = """if True:
        import os, sys
        from minrep import analysis, cli
        analyze = analysis.analyze

        def failing(p, q, m, n):
            if (p, q, m, n) == (11, 7, 1, 2):
                raise ValueError("cell %d %d %d %d fails" % (p, q, m, n))
            return analyze(p, q, m, n)

        analysis.analyze = failing
        cli.os.cpu_count = lambda: 2
        try:
            sys.exit(cli.main(sys.argv[1:]))
        finally:
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left", file=sys.stderr)
    """
    args = ["scan", "--p-max", "12", "--q-max", "12", "--jobs", "2"]
    failed = subprocess.run([sys.executable, "-c", script, *args],
                            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                            text=True, timeout=60)
    assert failed.returncode == cli.EXIT_INTERNAL
    assert "Traceback" in failed.stderr
    assert "in failing" in failed.stderr
    assert "ValueError: cell 11 7 1 2 fails" in failed.stderr
    assert "ended before sending all its results" in failed.stderr
    assert "no child left" in failed.stderr
    full = subprocess.run([sys.executable, "-m", "minrep.cli", *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60, check=True).stdout
    assert full.startswith(failed.stdout) and len(failed.stdout) < len(full)


def test_cli_internal_error_exits_70_with_its_traceback(capsys, monkeypatch):
    # an unexpected exception is an internal error, told apart from a
    # failed check (1) by its exit code
    def failing(p, q, m, n):
        raise ValueError("cell %d %d %d %d fails" % (p, q, m, n))

    monkeypatch.setattr(cli.analysis, "analyze", failing)
    assert cli.main(["scan", "--p-max", "5", "--q-max", "4"]) == cli.EXIT_INTERNAL == 70
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert "ValueError: cell 3 2 1 1 fails" in err
    assert cli.main(["selftest", "--suite", "lemmas", "--grid", "4"]) == cli.EXIT_SELFTEST
    assert capsys.readouterr().err == ""


def test_cli_broken_pipe_exits_141_without_traceback():
    # the reader closes stdout after the first line, or before any; the
    # command ends without a traceback, with exit code 141, and leaves no
    # process in its group.  stdout is block-buffered, as a user gets it,
    # so a small output meets the closed pipe only when it is flushed.
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    script = "from minrep import cli; cli.os.cpu_count = lambda: 2; cli.entry()"
    scan = ["scan", "--p-max", "16", "--q-max", "16", "--jobs"]
    for argv, lines in [(scan + ["1"], 1), (scan + ["2"], 1),
                        (["analyze", "--p", "5", "--q", "7", "--m", "1", "--n", "3"], 0)]:
        proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        for _ in range(lines):
            assert proc.stdout.readline().startswith(b'{"p": ')
        proc.stdout.close()
        try:
            assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
        finally:
            proc.kill()
            err = proc.stderr.read()
            proc.stderr.close()
        assert err == b"", err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


def test_cli_pool_kills_its_workers_on_an_exception():
    # worker 1 is busy for a minute on its first item; an exception in the
    # with block kills it instead of waiting for it
    def render(i):
        if i == 1:
            time.sleep(60)
        return str(i)

    start = time.monotonic()
    with pytest.raises(KeyError):
        with cli.Pool(2) as pool:
            assert next(pool.imap(render, range(4), chunksize=1)) == "0"
            raise KeyError("stop")
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_tracer_sites_resolve():
    # the benchmark's tracer replaces these bindings by name; a binding
    # dropped from a module would otherwise only fail under --trace 1
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    for module_name, attr, _ in tracer.SITES:
        assert callable(getattr(importlib.import_module(module_name), attr)), (
            module_name, attr)


def test_public_names_resolve_and_match_the_imports():
    # __all__ lists each name once, every one resolves, and nothing that
    # __init__ imports from a submodule is left out of it
    assert len(set(minrep.__all__)) == len(minrep.__all__)
    for name in minrep.__all__:
        getattr(minrep, name)
    with open(minrep.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert imported and imported <= set(minrep.__all__)


def test_package_modules_use_every_name_they_import():
    # no linter is installed, so unused imports and private helpers are
    # caught here; a binding that perfbench's tracer replaces by name counts
    # as used
    tracer_path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    kept = {(module, attr) for module, attr, _ in tracer.SITES}
    paths = glob.glob(os.path.join(os.path.dirname(minrep.__file__), "*.py"))
    assert len(paths) > 1
    excused = set()
    defined, referenced = set(), set()
    for path in paths:
        module = "minrep." + os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        referenced |= used | {node.attr for node in ast.walk(tree)
                              if isinstance(node, ast.Attribute)}
        if module == "minrep.__init__":
            continue
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        unused = {name for name in imported - used if (module, name) not in kept}
        assert not unused, (module, sorted(unused))
        excused |= {(module, name) for name in imported - used}
    # every private function, method and class is referenced, by name or by
    # attribute, somewhere in the package (dunder methods are called implicitly)
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert private and not private - referenced, sorted(private - referenced)
    # the bindings kept only for the tracer; each goes with its site
    assert excused == {("minrep.analysis", "level"),
                       ("minrep.spaces", "irreducibility_certificate"),
                       ("minrep.congruence", "rep_profile"),
                       ("minrep.congruence", "rep_dimension")}


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so invariants raise explicitly
    paths = glob.glob(os.path.join(os.path.dirname(minrep.__file__), "*.py"))
    assert paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, (path, asserts)


def test_cli_analyze_rejects_a_dimension_over_the_cap():
    # s = (p - 1)(q - 1)/2 is about 5 * 10^9 here: the cap must refuse it
    # before the partner box is built, so a 256 MB address-space limit is
    # never approached
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    script = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
              "from minrep import cli\n"
              "print(cli.main(['analyze', '--p', '100003', '--q', '100000', "
              "'--m', '1', '--n', '1']))\n")
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.stdout.strip() == "2", run.stderr
    assert "MAX_DIMENSION" in run.stderr


def test_cli_analyze_rejects_an_index_over_the_cap():
    # p = 1000000007 * 1000000009 and s = 1: without MAX_INDEX the
    # congruence criteria trial-divide p, which does not finish in minutes
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    run = subprocess.run([sys.executable, "-m", "minrep.cli", "analyze",
                          "--p", "1000000016000000063", "--q", "2",
                          "--m", "1000000016000000061", "--n", "1"],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=30)
    assert run.returncode == 2, run.stderr
    assert "MAX_INDEX" in run.stderr


def test_minimal_weight_and_space_status_follow_the_dimension_alone():
    # every s <= 3 label is certified irreducible, so k0 and alpha are set
    # exactly when s <= 3, and only s > 3 leaves window facts alone
    acting = 0
    for model in models(20, 20):
        for label in list_modules(model):
            if not label.is_acting:
                continue
            record = analysis.analyze(model.p, model.q, label.m, label.n)
            small = record["s"] <= 3
            assert (record["k0"] is not None) == small, record
            assert (record["alpha"] is not None) == small, record
            assert (record["spaces"]["status"] == WINDOW_FACTS_ONLY) == (not small), record
            acting += 1
    assert acting > 3000


def test_every_error_class_is_raised_somewhere():
    # a raise deleted from the package must take its exception class along
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.MinrepError)
               and obj is not errors.MinrepError}
    assert classes
    package = os.path.dirname(minrep.__file__)
    raised = set()
    for path in glob.glob(os.path.join(package, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= {sub.id for sub in ast.walk(node.exc) if isinstance(sub, ast.Name)}
    assert not classes - raised, sorted(classes - raised)


def test_every_private_module_name_is_referenced():
    # a private helper whose last caller is deleted must go with it
    package = os.path.dirname(minrep.__file__)
    trees = []
    for path in glob.glob(os.path.join(package, "*.py")):
        with open(path) as fh:
            trees.append(ast.parse(fh.read(), path))
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {sub.id for t in targets for sub in ast.walk(t)
                            if isinstance(sub, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert private
    assert not private - used, sorted(private - used)


def test_cli_qseries_annihilation(capsys):
    code = cli.main(["qseries", "--expr", "D", "--apply", "eta^8", "--order", "20"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out.startswith("q^(0/1) * [0")
    assert set(out.split("[")[1].rstrip("]").split(", ")) == {"0"}


def test_cli_qseries_identity_returns_input(capsys):
    code = cli.main(["qseries", "--expr", "1", "--apply", "G4", "--order", "6"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    # sigma_3 = 1, 9, 28, 73, 126, 252 scaled by 1/3
    assert out == "q^(0/1) * [1/720, 1/3, 3, 28/3, 73/3, 42, 84]"


def test_cli_qseries_derivative_of_g4(capsys):
    from minrep.qseries import eisenstein
    code = cli.main(["qseries", "--expr", "D", "--apply", "G4", "--order", "8"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == (eisenstein(6, 8).series * 14).serialize()


def test_cli_qseries_parse_errors(capsys):
    assert cli.main(["qseries", "--expr", "Q^2", "--apply", "G4"]) == 65
    capsys.readouterr()
    assert cli.main(["qseries", "--expr", "", "--apply", "G4"]) == 65
    assert capsys.readouterr().err == "expression error: empty expression\n"
    assert cli.main(["qseries", "--expr", "D", "--apply", "zeta"]) == 65
    capsys.readouterr()
    # inhomogeneous sums are rejected
    assert cli.main(["qseries", "--expr", "G4+G6", "--apply", "G4"]) == 65
    capsys.readouterr()
    assert cli.main(["qseries", "--expr", "D", "--apply", "G3"]) == 65
    capsys.readouterr()
    # a lone or stray sign leaves a term the parser cannot read
    for expr in ("+", "G4-", "G4++G6"):
        assert cli.main(["qseries", "--expr", expr, "--apply", "G4"]) == 65
        assert capsys.readouterr().err.startswith("expression error: ")
    assert cli.main(["qseries", "--expr", "3/0*G4", "--apply", "G4"]) == 65
    capsys.readouterr()
    assert cli.main(["qseries", "--expr", "D", "--apply", "eta^0"]) == 65
    capsys.readouterr()
    # powers over MAX_POWER and digit strings too long for int() are
    # expression errors, rejected before any series is built
    for expr, target in (("G4^%d" % (qseries.MAX_POWER + 1), "G4"),
                         ("G4^60*G4^41", "G4"),
                         ("D^%d" % (qseries.MAX_POWER + 1), "G4"),
                         ("D", "eta^%d" % (qseries.MAX_POWER + 1)),
                         ("1" * 5000 + "*G4", "G4"),
                         ("1/" + "1" * 5000, "G4"),
                         ("G4^" + "1" * 5000, "G4"),
                         ("D", "eta^" + "1" * 5000),
                         ("D", "G%d" % (qseries.MAX_POWER + 2)),
                         ("D", "G" + "2" * 5000)):
        assert cli.main(["qseries", "--expr", expr, "--apply", target, "--order", "10"]) == 65
        assert capsys.readouterr().err.startswith("expression error: ")
    top = qseries.MAX_POWER
    assert cli.main(["qseries", "--expr", "G4^%d*G6^%d*D^%d" % (top, top, top),
                     "--apply", "eta^%d" % top, "--order", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["qseries", "--expr", "D", "--apply", "G%d" % top, "--order", "3"]) == 0
    capsys.readouterr()
    # orders outside [1, MAX_ORDER] are usage errors, rejected before any work
    for order in (10 ** 30, qseries.MAX_ORDER + 1):
        assert cli.main(["qseries", "--expr", "D", "--apply", "eta",
                         "--order", str(order)]) == 64
        capsys.readouterr()


def test_cli_qseries_subtraction_and_a_leading_minus(capsys):
    from minrep.qseries import eisenstein
    # G4 * (D_4 G4) - 14 G6 * G4 = 0, since D_4 G4 = 14 G6
    assert cli.main(["qseries", "--expr", "G4*D - 14*G6", "--apply", "G4",
                     "--order", "6"]) == 0
    assert capsys.readouterr().out == "q^(0/1) * [0, 0, 0, 0, 0, 0, 0]\n"
    g4 = eisenstein(4, 6).series
    assert cli.main(["qseries", "--expr", "G4", "--apply", "G4", "--order", "6"]) == 0
    assert capsys.readouterr().out == (g4 * g4).serialize() + "\n"
    assert cli.main(["qseries", "--expr=-G4", "--apply", "G4", "--order", "6"]) == 0
    assert capsys.readouterr().out == (-(g4 * g4)).serialize() + "\n"
    # argparse reads a separate "-G4" as an option, not as the expression
    assert cli.main(["qseries", "--expr", "-G4", "--apply", "G4"]) == 64
    assert capsys.readouterr().err.startswith("usage error: ")


def test_cli_selftest_lists_the_first_ten_failures(capsys, monkeypatch):
    messages = ["failure %d" % i for i in range(12)]
    monkeypatch.setattr(selftest, "run_selftests",
                        lambda suite, grid: [selftest.SuiteResult("monic", 12, messages)])
    assert cli.main(["selftest", "--suite", "monic"]) == cli.EXIT_SELFTEST
    out = capsys.readouterr().out.splitlines()
    assert out == (["monic: 12 checks, 12 failures [FAIL]"]
                   + ["  failure %d" % i for i in range(10)])


def test_cli_qseries_compound_expression(capsys):
    # G4*D applied to G4 equals G4 * (D_4 G4) = 14 G4 G6
    from minrep.qseries import eisenstein
    code = cli.main(["qseries", "--expr", "G4*D", "--apply", "G4", "--order", "10"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    expected = eisenstein(4, 10).series * eisenstein(6, 10).series * 14
    assert out == expected.serialize()


def test_cli_qseries_ignores_the_environment(capsys, monkeypatch):
    # --order is the one source of the truncation order
    argv = ["qseries", "--expr", "1", "--apply", "eta"]
    monkeypatch.delenv("MINREP_TRUNCATION", raising=False)
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    assert default == qseries.eta_power(1, qseries.DEFAULT_ORDER).series.serialize() + "\n"
    for value in ("5", "abc"):
        monkeypatch.setenv("MINREP_TRUNCATION", value)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == default


def test_cli_selftest_qseries(capsys):
    code = cli.main(["selftest", "--suite", "qseries"])
    out = capsys.readouterr().out
    assert code == 0
    assert "qseries:" in out and "0 failures" in out


def test_cli_selftest_small_grids(capsys):
    code = cli.main(["selftest", "--suite", "monic", "--grid", "20"])
    out = capsys.readouterr().out
    assert code == 0 and "[ok]" in out
    code = cli.main(["selftest", "--suite", "ratios", "--grid", "20"])
    assert code == 0


def test_cli_selftest_fails_a_suite_that_ran_no_checks(capsys):
    # grid 1 holds no minimal model, so the three grid suites check nothing
    code = cli.main(["selftest", "--grid", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "monic: 0 checks, 0 failures [FAIL]" in out
    assert "qseries: 33 checks, 0 failures [ok]" in out
    assert cli.main(["selftest", "--suite", "lemmas", "--grid", "4"]) == 1
    assert "lemmas: 0 checks, 0 failures [FAIL]" in capsys.readouterr().out


def test_cli_import_leaves_numpy_out():
    # a command loads the q-series engine and the sweeps only if it uses
    # them; no command loads multiprocessing, the scan's pool forks with os;
    # and none loads dataclasses or inspect unless the interpreter's own
    # start-up already did
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    script = """if True:
        import contextlib, io, sys
        bare = set(sys.modules)
        from minrep import cli

        def loaded(*argv):
            code = None
            if argv:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(list(argv))
            heavy = ("numpy", "multiprocessing", "minrep.qseries", "minrep.selftest",
                     "dataclasses", "inspect")
            print(code, [name for name in heavy if name in sys.modules and name not in bare])

        loaded()
        loaded("analyze", "--p", "5", "--q", "7", "--m", "1", "--n", "3")
        loaded("scan", "--p-max", "8", "--q-max", "8", "--jobs", "1")
        cli.os.cpu_count = lambda: 1
        loaded("scan", "--p-max", "8", "--q-max", "8", "--jobs", "8")
        cli.os.cpu_count = lambda: 2
        loaded("scan", "--p-max", "8", "--q-max", "8", "--jobs", "2")
        loaded("selftest", "--suite", "ratios", "--grid", "10")
    """
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["None []", "0 []", "0 []", "0 []", "0 []",
                                "0 ['minrep.qseries', 'minrep.selftest']"]
    for path in glob.glob(os.path.join(src, "minrep", "*.py")):
        with open(path) as module:
            assert "@dataclass" not in module.read(), path


def test_package_loads_the_qseries_names_on_first_use():
    # minrep's module __getattr__ serves the q-series part of __all__
    assert minrep._QSERIES_NAMES <= set(minrep.__all__)
    for name in minrep._QSERIES_NAMES:
        assert getattr(minrep, name) is getattr(qseries, name)
    from minrep import QSeries, eisenstein
    assert (QSeries, eisenstein) == (qseries.QSeries, qseries.eisenstein)
    namespace = {}
    exec("from minrep import *", namespace)
    assert set(minrep.__all__) <= set(namespace)
    assert namespace["modular_derivative"] is qseries.modular_derivative
    with pytest.raises(AttributeError):
        minrep.no_such_name


def test_cli_scan_identical_under_python_O():
    # python -O strips asserts; no verdict may depend on one, in the serial
    # scan or in the pool's workers
    src = os.path.dirname(os.path.dirname(os.path.abspath(minrep.__file__)))
    outputs = []
    for flags in ([], ["-O"]):
        for jobs in ("1", "2"):
            outputs.append(subprocess.run(
                [sys.executable, *flags, "-m", "minrep.cli", "scan", "--p-max", "10",
                 "--q-max", "10", "--jobs", jobs],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60,
                check=True,
            ).stdout)
    assert outputs[0].count(b"\n") > 100
    assert outputs[1:] == outputs[:1] * 3
