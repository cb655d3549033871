"""Output oracles for the benchmark's workloads.

Every check here is independent of minrep's code: the atlas oracle
re-derives the cells, the dimension, the exponents r_j and the level from
the closed formulas, the selftest oracle recounts the checks each suite
must perform, and the q-series oracle compares the exact rendering
with digests pinned from the seed commit.

Each oracle returns a Check: how many operations it examined (records,
suites or series), how many failed, and facts for the report.  A command
that exits nonzero fails every operation it attempted.
"""

import csv
import hashlib
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))


def expected():
    """The values pinned from the seed commit (expected.json)."""
    with open(os.path.join(HERE, "expected.json")) as src:
        return json.load(src)


@dataclass
class Check:
    attempted: int
    failed: int
    items: int = 0                  # records, checks or coefficients produced
    digest: str = ""
    facts: dict = field(default_factory=dict)  # atlas: criterion and certificate counts
    problems: list = field(default_factory=list)

    def fail(self, message, n=1):
        self.failed += n
        if len(self.problems) < 5:
            self.problems.append(message)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as src:
        for block in iter(lambda: src.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------- atlas

def atlas_cells(p_max, q_max):
    """Canonical labels of a scan, in output order: models (p odd, q)
    with q != p coprime, then labels with m odd and any n."""
    for p in range(3, p_max + 1, 2):
        for q in range(2, q_max + 1):
            if q == p or gcd(p, q) != 1:
                continue
            for m in range(1, p, 2):
                for n in range(1, q):
                    yield p, q, m, n


def _frac(num, den):
    g = gcd(num, den)
    return "%d/%d" % (num // g, den // g)


def partner_box(p, q, m, n):
    """Self-coupled partners (m_j, n_j) of an acting label, lexicographic."""
    return [(mj, nj)
            for mj in range((p + 1) // 2, p - (m + 1) // 2 + 1)
            for nj in range((n + 1) // 2, q - (n + 1) // 2 + 1)]


def label_problem(p, q, m, n, acting, c, h, s, r, level, partners=None):
    """The first way a record's fields differ from the closed formulas,
    or None.  r is the list of "a/b" strings; partners, when given, the
    list of (m_j, n_j)."""
    if acting != (n % 2 == 1):
        return "acting flag"
    if c != _frac(p * q - 6 * (p - q) ** 2, p * q):
        return "central charge"
    if h != _frac((n * p - m * q) ** 2 - (p - q) ** 2, 4 * p * q):
        return "conformal weight"
    if not acting:
        return None if s is None else "non-acting label has s"
    if s != (p - m) * (q - n) // 2:
        return "s != (p-m)(q-n)/2"
    box = partner_box(p, q, m, n)
    if partners is not None and partners != box:
        return "partner list"
    if r is None or len(r) != s:
        return "len(r) != s"
    big = 48 * p * q
    k0 = (p - q) ** 2 - 2 * p * q - (n * p - m * q) ** 2
    xs = [12 * (nj * p - mj * q) ** 2 + k0 for mj, nj in box]
    for x, rj in zip(xs, r):
        if rj != _frac(x, big):
            return "r_j != x_j/M"
    if level != big // gcd(big, gcd(*xs)):
        return "level != M/gcd(M, gcd_j x_j)"
    return None


def check_atlas(inp, out_path):
    """Record count, cell order and the per-record formulas; also the
    verdict and certificate counts and the byte digest."""
    p_max, q_max = inp.grid
    cells = atlas_cells(p_max, q_max)
    check = Check(0, 0)
    criteria, certificates = Counter(), Counter()
    h = hashlib.sha256()

    def lines():
        with open(out_path, "rb") as src:
            for raw in src:
                h.update(raw)
                yield raw.decode(errors="replace")

    if inp.fmt == "jsonl":
        rows, parse = lines(), lambda line: _jsonl_fields(json.loads(line))
    else:
        rows, parse = csv.DictReader(lines()), _csv_fields

    for row in rows:
        check.attempted += 1
        cell = next(cells, None)
        try:
            fields = parse(row)
            key = fields[0]
            if cell != key:
                check.fail("record %d is %s, expected %s" % (check.attempted, key, cell))
                continue
            problem = label_problem(*key, *fields[1:7], partners=fields[7])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            fields, problem = None, "malformed record: %r" % exc
        if problem:
            check.fail("%s at %s" % (problem, cell))
        if fields and fields[8]:
            criteria[fields[8]] += 1
            certificates[fields[9]] += 1
    missing = sum(1 for _ in cells)
    if missing:
        check.attempted += missing
        check.fail("%d records missing" % missing, missing)
    check.items = check.attempted - missing
    check.digest = h.hexdigest()
    check.facts = {"criteria": dict(criteria), "certificates": dict(certificates)}
    return check


def _jsonl_fields(rec):
    verdict = rec.get("verdict")
    partners = rec.get("partners")
    if partners is not None:
        partners = [(pt["m"], pt["n"]) for pt in partners]
    return ((rec["p"], rec["q"], rec["m"], rec["n"]), rec["acting"], rec["c"], rec["h"],
            rec.get("s"), rec.get("r"), rec.get("level"), partners,
            verdict["criterion"] if verdict else None, rec.get("irreducibility"))


def _csv_fields(row):
    acting = row["acting"] == "true"
    num = (lambda v: int(v) if v else None)
    return ((int(row["p"]), int(row["q"]), int(row["m"]), int(row["n"])),
            acting, row["c"], row["h"], num(row["s"]),
            row["r"].split(";") if acting else None, num(row["level"]), None,
            row["verdict_criterion"] or None, row["irreducibility"] or None)


# --------------------------------------------------------------- verify

def _factor(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            t = 0
            while n % d == 0:
                n //= d
                t += 1
            out.append((d, t))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _models(grid):
    return [(p, q) for p in range(3, grid + 1, 2) for q in range(2, grid + 1)
            if q != p and gcd(p, q) == 1]


def _acting(p, q):
    return [(m, n) for m in range(1, p, 2) for n in range(1, q, 2)]


def selftest_counts(suite_grid=None):
    """Checks each selftest suite performs, recounted from its definition.

    monic: acting labels with s in {1} or prime; lemmas: one check per
    prime r > 3 of p (when m <= p-4) and of q (when n <= q-3) at each
    acting label; ratios: the classified window shapes per model plus the
    (p-6, q-1) shape; qseries: 24 + 3 + 2 + 3 + 1 identities at order 40.
    """
    g = {"monic": 50, "lemmas": 60, "ratios": 60}
    if suite_grid is not None:
        g = dict.fromkeys(g, suite_grid)
    monic = sum(1 for p, q in _models(g["monic"]) for m, n in _acting(p, q)
                if (p - m) * (q - n) // 2 == 1 or _is_prime((p - m) * (q - n) // 2))
    lemmas = 0
    for p, q in _models(g["lemmas"]):
        np_ = sum(1 for r, _ in _factor(p) if r > 3)
        nq = sum(1 for r, _ in _factor(q) if r > 3)
        if np_ or nq:
            lemmas += sum(np_ * (m <= p - 4) + nq * (n <= q - 3) for m, n in _acting(p, q))
    ratios = 0
    for p, q in _models(g["ratios"]):
        if q % 2 == 0:
            shapes = [(p - 2, q - 1)] + [(p - 4, q - 1)] * (p >= 5) + [(p - 2, q - 3)] * (q >= 4)
            ratios += 1 if p >= 7 else 0
        else:
            shapes = [(p - 2, q - 2)] * (q >= 3)
        ratios += sum(1 for m, n in shapes if m >= 1 and n >= 1)
    return {"monic": monic, "lemmas": lemmas, "ratios": ratios, "qseries": 33}


_SUITE_LINE = re.compile(r"(\w+): (\d+) checks, (\d+) failures \[(ok|FAIL)\]$")


def check_verify(inp, out_path, exit_code):
    """Every suite reports ok with exactly the recounted number of checks;
    a suite with zero checks fails."""
    if inp.suite_grid is None:
        wanted = expected()["selftest_checks"]
    else:
        wanted = selftest_counts(inp.suite_grid)
    check = Check(len(wanted), 0)
    with open(out_path, "rb") as src:
        data = src.read()
    check.digest = hashlib.sha256(data).hexdigest()
    seen = {}
    for line in data.decode().splitlines():
        match = _SUITE_LINE.match(line)
        if match:
            seen[match.group(1)] = match.groups()[1:]
    for suite, count in wanted.items():
        got = seen.get(suite)
        if got is None:
            check.fail("suite %s missing" % suite)
        elif got != (str(count), "0", "ok") or count == 0:
            check.fail("suite %s: %s checks, %s failures [%s], expected %d ok"
                       % ((suite,) + got + (count,)))
    if exit_code != 0 and not check.failed:
        check.fail("exit code %d" % exit_code, check.attempted)
    check.items = sum(int(c) for c, _, _ in seen.values())
    return check


# -------------------------------------------------------------- qseries

def check_qseries(inp, out_path):
    """The exact rendering matches the digest pinned for (w, order)."""
    w, order = inp.qseries
    pinned = expected()["qseries_digests"]["%d,%d" % (w, order)]
    check = Check(1, 0, digest=file_digest(out_path))
    if check.digest != pinned:
        check.fail("q-series output digest %s != %s" % (check.digest[:12], pinned[:12]))
    check.items = order + 1
    return check


def check_output(inp, out_path, exit_code):
    """Run the workload's oracle; a nonzero exit fails every operation."""
    if inp.workload == "verify":
        return check_verify(inp, out_path, exit_code)
    check = check_atlas(inp, out_path) if inp.qseries is None else check_qseries(inp, out_path)
    if exit_code != 0:
        check.fail("exit code %d" % exit_code, check.attempted - check.failed)
    return check
