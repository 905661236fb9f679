"""covcert benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it imports the
program from ``src/`` of that checkout and writes only to
``.perfbench_tmp/`` there.  Every timed operation is a fresh ``covcert``
process (``python3 -m covcert.cli ...``), one at a time: a closed loop with
one client.

Workloads (see BENCHMARK.json for why each was chosen):

- ``prove-all``: ``covcert prove --all --format json`` (ranks 2-8 at the
  default 256 bits), then ``covcert verify`` on every emitted report.
- ``high-rank``: ``covcert prove --n K --precision 64 --format json`` for
  ranks 33 and 53 and one seeded rank from each of 9-12, 19-22 and
  29-32, each report re-checked with ``covcert verify``.
- ``verify``: ``covcert verify FILE`` over a corpus of honest, tampered and
  malformed reports with known exit codes, built in set-up.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracer.py``).  The lines before it are a readable report: machine,
Python, commit, seed, precision, every metric with its unit and sample
count, and every failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import corpus
from tracer import LAYERS, SERIES_KINDS, SHORTFALL_FUNCTIONS, relative_bits

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".perfbench_tmp"

FINAL_CONCLUSION = "Sp_{2n}(Z) uniquely minimal (mod axioms)"
# the acceptance gate's search targets: rank -> (grid point (A, E[, t]),
# threshold value, tolerance); the step's verdict Proved means no tie
SEARCH_TARGETS = {
    2: ((Fraction("21.512"), Fraction("6.0001"), Fraction("1.2")), Fraction("5.5535611217287"), Fraction(1, 10**6)),
    3: ((Fraction("13.047"), Fraction("3.8667")), Fraction("3.31"), Fraction(2, 100)),
}
DEFAULT_PRECISION = 256
HIGH_RANK_PRECISION = 64
HIGH_RANK_FIXED = (33, 53)
# narrow, so that the work of a job hardly depends on the seed
HIGH_RANK_STRATA = ((9, 12), (19, 22), (29, 32))
# ranks whose certificates hold integers beyond Python's default
# 4300-digit str() limit, so that emit_report raises today
EMIT_DIGIT_LIMIT_PROBES = (34, 55)
SETUP_REPEATS = 7
CORPUS_REPEATS = 3
# p90 needs at least ten samples beyond it
MIN_VERIFY_SAMPLES = 100
# times each emitted report is re-checked in an untraced job
RECHECKS = 5
PROCESS_TIMEOUT_S = 170
# On a shared 2-core Xeon virtual machine the speed of the host swung by
# up to 2x within a minute as other tenants loaded it; a process's CPU
# time slowed exactly as much as its wall time, so no statistic of raw
# times within one run can average it away.  Two things moved, separately:
# the cost of starting a Python process (exec, page faults, reading
# modules) and the speed of Python code.  End-to-end times are therefore
# reported at reference speeds, from two kinds of samples:
#
# - start-up: between two timed children (and before the first and after
#   the last) the runner times a calibration process that runs nothing of
#   covcert, only interpreter start and stdlib imports; CALIBRATION_BURST
#   of them after a child that ran longer than CALIBRATION_LONG_S;
# - compute: all along the run a thread of the runner times a fixed
#   Python loop in its own CPU time every PROBE_EVERY_S seconds, on the
#   CPU the children run on.
#
# A child that mostly starts Python and imports modules (``verify`` and
# the set-up child) is scaled by start-up speed, and a proof by compute
# speed once its own start-up is replaced by the reference:
#
#     wall * REFERENCE_STARTUP_S / startup
#     REFERENCE_STARTUP_S + (wall - startup) * REFERENCE_PROBE_S / probe
#
# where ``startup`` is the mean of the median start-up times sampled just
# before and just after the child, and ``probe`` the median loop time over
# the child's life, widened by PROBE_MARGIN_S on each side.  On that
# machine, ``prove --n 53 --precision 64`` spread (IQR over median) 0.26
# raw over 4 minutes and 0.04 scaled by the probe, and the start-up
# samples cut the spread of 30-second medians of ``covcert verify`` from
# 0.15 to 0.03.  The run and all its children are kept on one CPU, so that
# the samples measure the CPU the children ran on.  The raw times are
# printed above the result line.
CALIBRATION_SOURCE = (
    "import argparse, dataclasses, decimal, enum, fractions, functools,"
    " hashlib, json, math, os, pathlib, typing"
)
CALIBRATION_LONG_S = 1.0
CALIBRATION_BURST = 3
PROBE_EVERY_S = 0.25
PROBE_MARGIN_S = 2.0
PROBE_LOOP = 20000
REFERENCE_STARTUP_S = 0.090
REFERENCE_PROBE_S = 0.0013


# ---------------------------------------------------------------------------
# child processes


class Proc:
    """One finished child process; ``gap`` indexes the calibration group before it."""

    def __init__(self, kind, code, stdout, stderr, start, end, rss_kb, gap):
        self.kind = kind  # "startup" or "compute": the speed that scales it
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.start = start
        self.end = end
        self.wall_s = end - start
        self.rss_kb = rss_kb
        self.gap = gap


def probe() -> float:
    """CPU time of a fixed Python loop in the calling thread."""
    start = time.thread_time()
    x = 0
    for i in range(PROBE_LOOP):
        x += i * i
    return time.thread_time() - start


class Speed:
    """Start-up samples grouped by the gaps between children, and compute probes."""

    def __init__(self, env) -> None:
        self.env = env
        self.groups: list[list[float]] = [[]]
        self.probes: list[tuple[float, float]] = []  # (perf_counter, probe s)
        self._stop = threading.Event()
        self._thread = None

    def start_probes(self) -> None:
        self._thread = threading.Thread(target=self._probe_loop, daemon=True)
        self._thread.start()

    def stop_probes(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def _probe_loop(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.probes.append((time.perf_counter(), probe()))

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-I", "-c", CALIBRATION_SOURCE],
                stdin=subprocess.DEVNULL,
                env=self.env,
                check=True,
                timeout=PROCESS_TIMEOUT_S,
            )
            self.groups[-1].append(time.perf_counter() - start)

    def next_gap(self) -> int:
        """Close the current group; return its index."""
        self.groups.append([])
        return len(self.groups) - 2

    def scaled(self, proc) -> float:
        """``proc``'s wall time at the reference speeds."""
        near = [g for g in self.groups[proc.gap : proc.gap + 2] if g]
        startup = statistics.fmean(statistics.median(g) for g in near)
        if proc.kind == "startup":
            return proc.wall_s * REFERENCE_STARTUP_S / startup
        lo, hi = proc.start - PROBE_MARGIN_S, proc.end + PROBE_MARGIN_S
        during = [d for t, d in self.probes if lo <= t <= hi] or [d for _, d in self.probes]
        return REFERENCE_STARTUP_S + (proc.wall_s - startup) * REFERENCE_PROBE_S / statistics.median(during)

    def all_samples(self) -> list[float]:
        return [d for g in self.groups for d in g]


class Runner:
    """Starts children one at a time and waits for each to end."""

    def __init__(self, tmp: Path, calibrate: bool = False) -> None:
        self.tmp = tmp
        self.calibrate = calibrate
        # Children import covcert from cached bytecode, as an installed
        # package does, whatever the caller's setting; the cache lives in
        # the checkout's scratch directory and survives between runs.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(SCRATCH / "pycache"))
        for name in ("PYTHONINTMAXSTRDIGITS", "COVCERT_DATA_DIR", "PYTHONDONTWRITEBYTECODE"):
            env.pop(name, None)
        self.env = env
        self.speed = Speed(env)
        self.procs: list[Proc] = []

    def run(self, argv, kind: str) -> Proc:
        """Run one child; ``kind`` names the speed that scales its time."""
        if self.calibrate:
            self.speed.sample()
        err_path = self.tmp / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=ROOT,
            )
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter()
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        p = Proc(kind, proc.returncode, out, err_path.read_bytes(), start, end, usage.ru_maxrss, self.speed.next_gap())
        if self.calibrate and p.wall_s > CALIBRATION_LONG_S:
            self.speed.sample(CALIBRATION_BURST - 1)
        self.procs.append(p)
        return p

    def during(self, fn, *args):
        """(fn's result, the children it ran)."""
        first = len(self.procs)
        result = fn(*args)
        return result, self.procs[first:]

    def cli(self, args, trace_file=None) -> Proc:
        kind = "startup" if args[0] == "verify" else "compute"
        if trace_file is None:
            return self.run(["-m", "covcert.cli", *args], kind)
        return self.run([str(HERE / "child.py"), "trace", str(trace_file), *args], kind)


# ---------------------------------------------------------------------------
# result bookkeeping


class Result:
    """Operations, failed checks, notes and metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.metrics: dict[str, tuple] = {}  # name -> (value, unit)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A harness-level check that is not one of the timed operations."""
        if not ok:
            self.problems.append(what)

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)


def percentile(values, q: int) -> float:
    """q-th percentile, linear interpolation inside the sample range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def min_enclosure_bits(reports) -> float:
    """Smallest relative precision over the non-point enclosures (0 if none)."""
    bits = [
        relative_bits(Fraction(lo), Fraction(hi))
        for doc in reports
        for step in doc["steps"]
        for lo, hi in step["enclosures"]
    ]
    return min((b for b in bits if b is not None), default=0.0)


def check_report(doc, rank: int, precision: int) -> str | None:
    """Why an emitted report is not a complete proof, or None."""
    if doc.get("rank") != rank or doc.get("precision_bits") != precision:
        return f"rank/precision {doc.get('rank')}/{doc.get('precision_bits')}"
    bad = [s["id"] for s in doc["steps"] if s["verdict"] not in ("Proved", "Axiom")]
    if bad:
        return f"steps not proved: {bad}"
    if doc.get("final_conclusion") != FINAL_CONCLUSION:
        return "final conclusion missing"
    if rank in SEARCH_TARGETS:
        return check_search_target(doc, *SEARCH_TARGETS[rank])
    return None


def check_search_target(doc, point, value, tolerance) -> str | None:
    """The degree-threshold step cites the paper's minimum and encloses its value."""
    step = next((s for s in doc["steps"] if s["id"] == "degree_threshold"), None)
    if step is None:
        return "no degree_threshold step"
    cited = [Fraction(x) for x in re.findall(r"\d+(?:/\d+|\.\d+)?", step["anchor"])]
    if cited[-len(point):] != list(point):
        return f"degree_threshold cites {step['anchor']!r}, expected {point}"
    lo, hi = (Fraction(x) for x in step["enclosures"][0])
    if abs((lo + hi) / 2 - value) > tolerance:
        return f"degree_threshold encloses [{float(lo)}, {float(hi)}], expected {value} +- {tolerance}"
    return None


# ---------------------------------------------------------------------------
# shared phases


def measure_setup(runner: Runner, res: Result):
    """Fresh-interpreter set-up: import covcert.cli, load and checksum data.

    Returns (the set-up children, their import times)."""
    procs, imports = [], []
    for _ in range(SETUP_REPEATS):
        p = runner.run([str(HERE / "child.py"), "setup"], "startup")
        res.check(p.code == 0, f"setup child exited {p.code}: {p.stderr[-300:]!r}")
        if p.code == 0:
            procs.append(p)
            imports.append(json.loads(p.stdout)["import_s"])
    return procs, imports


def prove_and_recheck(runner, res, tmp, runs, precision, traces=None, rechecks=1):
    """Run one ``covcert prove`` process per ``(args, ranks)`` of ``runs``,
    then ``covcert verify`` on every report, in ``rechecks`` rounds over all
    of them, so that the verify processes run back to back.

    Returns (reports as bytes per rank, the verify children).
    """
    reports, why = {}, {}
    for args, ranks in runs:
        p = runner.cli(args, trace_file=traces.new() if traces else None)
        lines = p.stdout.splitlines(keepends=True)
        if p.code != 0 or len(lines) != len(ranks):
            for rank in ranks:
                res.op(False, f"prove {args}: exit {p.code}, {len(lines)} reports: {p.stderr[-300:]!r}")
            continue
        for rank, line in zip(ranks, lines):
            why[rank] = check_report(json.loads(line), rank, precision)
            (tmp / f"report_rank{rank}.json").write_bytes(line)
            reports[rank] = line
    verifies = []
    for _ in range(rechecks):
        for rank in reports:
            v = runner.cli(["verify", str(tmp / f"report_rank{rank}.json")], trace_file=traces.new() if traces else None)
            verifies.append(v)
            if why[rank] is None and (v.code != 0 or v.stdout != b"verdict: Proved\n"):
                why[rank] = f"verify exited {v.code}: {v.stdout!r} {v.stderr[-200:]!r}"
    for rank in reports:
        res.op(why[rank] is None, f"rank {rank}: {why[rank]}")
    return reports, verifies


def timed_jobs(runner, seconds: float, job) -> list[list[Proc]]:
    """Closed loop: run ``job`` until ``seconds`` have passed (at least once).

    Returns the children of each job."""
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(runner.during(job)[1])
    return jobs


def end_to_end(res, runner, setup, jobs, verifies, reports) -> None:
    """Fill the end-to-end metrics from the children of the run."""
    speed = runner.speed
    speed.sample()
    scaled = speed.scaled
    measured = {
        "setup_s": (statistics.median(map(scaled, setup)), statistics.median(p.wall_s for p in setup)),
        "wall_s": (
            statistics.median(sum(map(scaled, job)) for job in jobs),
            statistics.median(sum(p.wall_s for p in job) for job in jobs),
        ),
        "verify_p50_ms": (
            1000 * statistics.median(map(scaled, verifies)),
            1000 * statistics.median(p.wall_s for p in verifies),
        ),
        "verify_p90_ms": (
            1000 * percentile([scaled(p) for p in verifies], 90),
            1000 * percentile([p.wall_s for p in verifies], 90),
        ),
    }
    for name, (value, _) in measured.items():
        res.metric(name, value, name.rsplit("_", 1)[1])
    res.metric("peak_rss_mb", max(p.rss_kb for job in jobs for p in job) / 1024, "MB")
    res.metric("success_ratio", 1 - res.failed / max(res.attempted, 1), "ratio")
    res.metric("min_enclosure_bits", min_enclosure_bits(json.loads(r) for r in reports), "bits")
    res.notes.append(
        f"samples: set-up {len(setup)}, jobs {len(jobs)}, verify invocations "
        f"{len(verifies)}"
    )
    res.notes.append("raw times: " + ", ".join(f"{name} {raw:.6g}" for name, (_, raw) in measured.items()))
    for kind, values in (("start-up", speed.all_samples()), ("compute probe", [d for _, d in speed.probes])):
        res.notes.append(
            f"calibration {kind}: {len(values)} samples, median {statistics.median(values):.6g} s, "
            f"range {min(values):.6g}-{max(values):.6g} s"
        )


# ---------------------------------------------------------------------------
# tracing


class Traces:
    """Trace files of traced children, merged into one set of statistics."""

    def __init__(self, tmp: Path) -> None:
        self.dir = tmp / "traces"
        self.dir.mkdir()
        self.files: list[Path] = []

    def new(self) -> Path:
        path = self.dir / f"trace{len(self.files)}.json"
        self.files.append(path)
        return path

    def merged(self) -> dict:
        stats, counters, shortfall = {}, {}, {}
        for path in self.files:
            if not path.exists():
                continue
            doc = json.loads(path.read_text())
            for name, rec in doc["stats"].items():
                acc = stats.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, value in doc["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in doc["shortfall"].items():
                shortfall[name] = max(shortfall.get(name, value), value)
        return {"stats": stats, "counters": counters, "shortfall": shortfall}


def per_layer(res, trace, extra, imports, traced_procs, plain_procs) -> None:
    """Fill the per-layer metrics of a traced run.

    ``traced_procs`` and ``plain_procs`` are the children of the same job
    run with and without the tracer."""
    stats, counters, shortfall = trace["stats"], trace["counters"], trace["shortfall"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def incl_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    for layer in LAYERS:
        res.metric(f"{layer}.calls", sum(r[0] for n, r in stats.items() if n.split(".")[0] == layer), "count")
        res.metric(f"{layer}.self_s", sum(r[1] for n, r in stats.items() if n.split(".")[0] == layer), "s")
    for kind in SERIES_KINDS:
        res.metric(f"specfun.series.{kind}.evals", calls(f"specfun.series.{kind}"), "count")
        res.metric(f"specfun.series.{kind}.self_s", self_s(f"specfun.series.{kind}"), "s")
    lookups = counters.get("specfun.cache.lookups", 0)
    hits = lookups - counters.get("specfun.cache.misses", 0)
    res.metric("specfun.cache.hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    for fn in SHORTFALL_FUNCTIONS:
        res.metric(f"specfun.{fn}.worst_shortfall_bits", shortfall.get(fn, 0.0), "bits")
    res.metric("specfun.under_optimizer_s", counters.get("specfun.under_optimizer_s", 0.0), "s")

    for kind in ("cubic", "quadratic"):
        res.metric(f"numberfields.dedekind_zeta.{kind}_s", counters.get(f"numberfields.dedekind_zeta.{kind}_s", 0.0), "s")
    res.metric("numberfields.primes_factored", calls("numberfields._cubic_splitting_degrees"), "count")
    res.metric("numberfields.catalog_load_s", incl_s("numberfields.default_catalog"), "s")

    res.metric("bounds.normalized_O.calls", calls("bounds.normalized_O"), "count")
    res.metric("bounds.pi_n.self_s", self_s("bounds.pi_n"), "s")
    res.metric("bounds.s_lambda_quotient.calls", calls("bounds.s_lambda_quotient"), "count")

    evaluated = counters.get("optimizer.points_evaluated", 0)
    res.metric("optimizer.search_s", sum(incl_s(f"optimizer.{f}") for f in ("optimize_n2", "optimize_n3", "find_lemma35_pair")), "s")
    res.metric("optimizer.points_evaluated", evaluated, "count")
    res.metric("optimizer.feasible_ratio", counters.get("optimizer.points_feasible", 0) / evaluated if evaluated else 0.0, "ratio")
    res.metric("optimizer.refinements", counters.get("optimizer.refinements", 0), "count")
    res.metric("optimizer.lemma35_rows", calls("bounds.lemma35_conditions"), "count")

    for rank in range(2, 9):
        res.metric(f"certifier.run_case.rank{rank}_s", counters.get(f"certifier.run_case.rank{rank}_s", 0.0), "s")
    res.metric("certifier.run_case.rank9plus_s", counters.get("certifier.run_case.rank9plus_s", 0.0), "s")
    res.metric("certifier.emit_s", incl_s("certifier.emit_report"), "s")
    res.metric("certifier.verify_report_s", incl_s("certifier.verify_report"), "s")
    for name in ("report_bytes", "comparisons", "history_dependent_ranks",
                 "forged_accepted", "verify_crashes", "emit_digit_limit_ranks"):
        res.metric(f"certifier.{name}", extra.get(name, 0), "bytes" if name == "report_bytes" else "count")

    res.metric("cli.import_s", statistics.median(imports), "s")
    res.metric("rigor.iv_compare.calls", calls("rigor.iv_compare"), "count")
    res.metric("rigor.coarsen_relative.calls", calls("rigor.coarsen_relative"), "count")
    traced = sum(p.wall_s for p in traced_procs)
    plain = sum(p.wall_s for p in plain_procs)
    res.metric("trace.wall_s", traced, "s")
    res.metric("trace.overhead_s", traced - plain, "s")
    res.metric("trace.overhead_ratio", traced / plain - 1, "ratio")


def report_stats(reports) -> dict:
    docs = [json.loads(r) for r in reports]
    return {
        "report_bytes": sum(len(r) for r in reports),
        "comparisons": sum(len(s["comparisons"]) for d in docs for s in d["steps"]),
    }


# ---------------------------------------------------------------------------
# workloads


def workload_prove_all(runner, res, tmp, seed, seconds, trace):
    ranks = list(range(2, 9))
    args = ["prove", "--all", "--format", "json"]
    setup, imports = measure_setup(runner, res)
    if not trace:
        reports, verifies = {}, []

        def job():
            nonlocal reports
            reports, checks = prove_and_recheck(
                runner, res, tmp, [(args, ranks)], DEFAULT_PRECISION, rechecks=RECHECKS
            )
            verifies.extend(checks)

        jobs = timed_jobs(runner, seconds, job)
        end_to_end(res, runner, setup, jobs, verifies, reports.values())
        return

    traces = Traces(tmp)
    traced, _ = prove_and_recheck(runner, res, tmp, [(args, ranks)], DEFAULT_PRECISION, traces)
    # A second rank-2 proof would not fit in the run's time limit, so the
    # tracing overhead and the byte identity are measured on ranks 3-8,
    # each proved alone, untraced and traced.  The untraced bytes also show
    # whether a report depends on what ran before it in ``prove --all``.
    plain_procs, traced_procs, differ = [], [], 0
    for rank in range(3, 9):
        one = ["prove", "--n", str(rank), "--format", "json"]
        plain_procs.append(runner.cli(one))
        traced_procs.append(runner.cli(one, trace_file=tmp / f"overhead{rank}.json"))
        plain, again = plain_procs[-1], traced_procs[-1]
        res.check(plain.code == 0, f"prove --n {rank} exited {plain.code}")
        res.check(again.stdout == plain.stdout, f"prove --n {rank}: traced report differs")
        differ += plain.stdout != traced.get(rank)
    extra = dict(report_stats(traced.values()), history_dependent_ranks=differ)
    per_layer(res, traces.merged(), extra, imports, traced_procs, plain_procs)


def high_rank_draw(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for lo, hi in HIGH_RANK_STRATA] + list(HIGH_RANK_FIXED)


def workload_high_rank(runner, res, tmp, seed, seconds, trace):
    ranks = high_rank_draw(seed)
    res.notes.append(f"ranks {ranks} at {HIGH_RANK_PRECISION} bits")
    setup, imports = measure_setup(runner, res)

    runs = [
        (["prove", "--n", str(rank), "--precision", str(HIGH_RANK_PRECISION), "--format", "json"], [rank])
        for rank in ranks
    ]

    def one_job(result, traces=None, rechecks=1):
        return prove_and_recheck(runner, result, tmp, runs, HIGH_RANK_PRECISION, traces, rechecks)

    if not trace:
        reports, verifies = {}, []

        def job():
            nonlocal reports
            reports, checks = one_job(res, rechecks=RECHECKS)
            verifies.extend(checks)

        jobs = timed_jobs(runner, seconds, job)
        end_to_end(res, runner, setup, jobs, verifies, reports.values())
        return

    traces = Traces(tmp)
    (traced, _), traced_procs = runner.during(one_job, res, traces)
    (plain, _), plain_procs = runner.during(one_job, Result())
    res.check(traced == plain, "traced reports differ from untraced reports")
    failing = 0
    for rank in EMIT_DIGIT_LIMIT_PROBES:
        p = runner.cli(["prove", "--n", str(rank), "--precision", str(HIGH_RANK_PRECISION), "--format", "json"])
        failing += p.code != 0
        res.notes.append(f"known defect probe: prove --n {rank} exits {p.code}")
    extra = dict(report_stats(traced.values()), emit_digit_limit_ranks=failing)
    per_layer(res, traces.merged(), extra, imports, traced_procs, plain_procs)


def build_corpus(runner, res, tmp, seed):
    """Honest reports: ranks 3-8 at 256 bits, one seeded high rank at 64.

    Returns (bytes per spec, the build children, the seeded rng)."""
    rng = random.Random(seed)
    # from the cheapest stratum, so that set-up time hardly depends on the seed
    high = [rng.randint(*HIGH_RANK_STRATA[0])]
    specs = [f"{DEFAULT_PRECISION}:{r}" for r in range(3, 9)]
    specs += [f"{HIGH_RANK_PRECISION}:{r}" for r in high]
    builds, procs = [], []
    for i in range(CORPUS_REPEATS):
        out = tmp / f"corpus{i}"
        out.mkdir()
        p = runner.run([str(HERE / "child.py"), "corpus", str(out), *specs], "compute")
        res.check(p.code == 0, f"corpus build exited {p.code}: {p.stderr[-300:]!r}")
        procs.append(p)
        builds.append({s: (out / f"rank{s.split(':')[1]}.json").read_bytes() for s in specs} if p.code == 0 else {})
    res.check(all(b == builds[0] for b in builds), "corpus builds differ between processes")
    res.notes.append(f"corpus base reports: {specs}")
    return builds[0], procs, rng


def write_variants(tmp, honest, rng, make):
    """Write each variant file; return [(name, path, expected exit)]."""
    files = []
    vdir = tmp / "variants"
    vdir.mkdir(exist_ok=True)
    for spec, data in honest.items():
        for name, blob, expected in make(data, rng):
            path = vdir / f"{spec.replace(':', '_')}_{name}_{len(files)}.json"
            if blob is not corpus.MISSING:
                path.write_bytes(blob)
            files.append((f"{spec} {name}", path, expected))
    return files


def workload_verify(runner, res, tmp, seed, seconds, trace):
    # set-up of this workload is the corpus build (import, data, proofs)
    honest, setup, rng = build_corpus(runner, res, tmp, seed)
    if not honest:
        res.op(False, "no corpus")
        return
    files = write_variants(tmp, honest, rng, corpus.timed_variants)
    res.notes.append(f"corpus: {len(files)} files")

    def one_pass(result, order, traces=None):
        for i in order:
            name, path, expected = files[i]
            p = runner.cli(["verify", str(path)], trace_file=traces.new() if traces else None)
            result.op(p.code == expected, f"verify {name}: exit {p.code}, expected {expected}")

    if not trace:
        jobs = []
        start = time.perf_counter()
        while (
            not jobs
            or time.perf_counter() - start < seconds
            or sum(map(len, jobs)) < MIN_VERIFY_SAMPLES
        ):
            order = list(range(len(files)))
            rng.shuffle(order)
            jobs.append(runner.during(one_pass, res, order)[1])
        end_to_end(res, runner, setup, jobs, [p for job in jobs for p in job], honest.values())
        return

    _, imports = measure_setup(runner, res)
    traces = Traces(tmp)
    order = list(range(len(files)))
    _, traced_procs = runner.during(one_pass, res, order, traces)
    _, plain_procs = runner.during(one_pass, Result(), order)
    forged = crashes = 0
    defect_files = write_variants(tmp, dict([next(iter(honest.items()))]), rng, corpus.defect_variants)
    for name, path, expected in defect_files:
        p = runner.cli(["verify", str(path)])
        forged += expected == corpus.EXIT_TAMPERED and p.code == 0
        crashes += p.code == 1
        res.notes.append(f"known defect probe: verify {name} exits {p.code}, documented {expected}")
    extra = dict(report_stats(honest.values()), forged_accepted=forged, verify_crashes=crashes)
    per_layer(res, traces.merged(), extra, imports, traced_procs, plain_procs)


WORKLOADS = {
    "prove-all": (workload_prove_all, f"{DEFAULT_PRECISION} bits"),
    "high-rank": (workload_high_rank, f"{HIGH_RANK_PRECISION} bits"),
    "verify": (workload_verify, f"corpus at {DEFAULT_PRECISION} and {HIGH_RANK_PRECISION} bits"),
}


# ---------------------------------------------------------------------------
# environment record


def environment(seed: int, precision: str) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "covcert").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "precision": precision,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "covcert" / "cli.py").is_file():
        print(f"covcert sources not found under {SRC}", file=sys.stderr)
        return 2

    run, precision = WORKLOADS[args.workload]
    res = Result()
    # let a terminating signal unwind, so that the running child is killed
    # and reaped and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    runner = None
    try:
        if not args.trace:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        runner = Runner(tmp, calibrate=not args.trace)
        if runner.calibrate:
            runner.speed.start_probes()
        run(runner, res, tmp, args.seed, args.seconds, bool(args.trace))
    finally:
        if runner is not None:
            runner.speed.stop_probes()
        shutil.rmtree(tmp, ignore_errors=True)

    print("# environment " + json.dumps(environment(args.seed, precision)))
    print(f"# workload {args.workload}, {'traced' if args.trace else 'untraced'}")
    for note in res.notes:
        print(f"# {note}")
    print(f"# operations: {res.attempted} attempted, {res.failed} failed")
    for problem in res.problems:
        print(f"# FAILED: {problem}")
    for name, (value, unit) in res.metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    got = {name: unit for name, (_, unit) in res.metrics.items()}
    res.check(want == got, f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")
    correct = not res.problems and res.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in res.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
