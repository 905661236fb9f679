"""Self-checks of the benchmark harness.

    python3 perfbench/selfcheck.py

1. Self-time arithmetic of the tracer on a synthetic nested call with a
   fake clock.
2. Every verify variant kind against ``covcert verify``: the timed kinds
   give their known exit code; each known-defect kind either still shows
   the defect (forged reports exit 0, crashing ones exit 1) or gives its
   documented exit code, and the output says which.
3. Reports from a traced run are byte-identical to untraced ones.

Exits 0 when every check passes.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import corpus
from run import SCRATCH, Runner
from tracer import Tracer


def check_self_time() -> list[str]:
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf(cost):
        now[0] += cost

    def middle():
        now[0] += 1.0
        tracer.call("b.leaf", leaf, 2.0)
        now[0] += 0.5
        tracer.call("b.leaf", leaf, 3.0)

    def outer():
        now[0] += 4.0
        tracer.call("a.middle", middle)

    tracer.call("a.outer", outer)
    want = {
        "a.outer": [1, 4.0, 10.5],
        "a.middle": [1, 1.5, 6.5],
        "b.leaf": [2, 5.0, 5.0],
    }
    problems = [f"{n}: {tracer.stats.get(n)} != {w}" for n, w in want.items() if tracer.stats.get(n) != w]
    if sum(rec[1] for rec in tracer.stats.values()) != 10.5:
        problems.append("self times do not add up to the outer span")
    return problems


def check_variants(runner: Runner, tmp: Path) -> list[str]:
    problems = []
    p = runner.cli(["prove", "--n", "4", "--precision", "64", "--format", "json"])
    if p.code != 0:
        return [f"prove --n 4 exited {p.code}"]
    honest = p.stdout
    # kind -> (documented exit code, exit code while the defect is open)
    groups = (
        [(k, corpus.EXIT_TAMPERED, None) for k in corpus.TAMPERED]
        + [(k, corpus.EXIT_MALFORMED, None) for k in corpus.MALFORMED]
        + [(k, corpus.EXIT_TAMPERED, 0) for k in corpus.FORGED]
        + [(k, corpus.EXIT_MALFORMED, 1) for k in corpus.CRASHING]
    )
    cases = [("honest", honest, corpus.EXIT_OK, None)]
    for seed in range(3):
        rng = random.Random(seed)
        cases += [
            (f"{k.__name__}/{seed}", corpus.variant(k, honest, rng), code, defect)
            for k, code, defect in groups
        ]
    for i, (name, blob, expected, defect) in enumerate(cases):
        path = tmp / f"variant{i}.json"
        if blob is not corpus.MISSING:
            path.write_bytes(blob)
        got = runner.cli(["verify", str(path)]).code
        if got == expected:
            status = "ok" if defect is None else "ok, known defect fixed"
        elif got == defect:
            status = "known defect"
        else:
            status = "MISMATCH"
            problems.append(f"verify {name}: exit {got}, expected {expected}")
        print(f"  verify {name}: exit {got} (documented {expected}) {status}")
    return problems


def check_trace_identity(runner: Runner, tmp: Path) -> list[str]:
    problems = []
    for args in (
        ["prove", "--n", "3", "--format", "json"],
        ["prove", "--n", "9", "--precision", "64", "--format", "json"],
    ):
        plain = runner.cli(args)
        traced = runner.cli(args, trace_file=tmp / "trace.json")
        if plain.code != 0 or traced.code != 0 or plain.stdout != traced.stdout:
            problems.append(f"{' '.join(args)}: traced output differs (exit {plain.code}/{traced.code})")
    return problems


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=SCRATCH) as name:
        tmp = Path(name)
        runner = Runner(tmp)
        for title, check in (
            ("self-time arithmetic", check_self_time),
            ("verify variant classification", lambda: check_variants(runner, tmp)),
            ("traced reports identical to untraced", lambda: check_trace_identity(runner, tmp)),
        ):
            problems = check()
            failures += bool(problems)
            print(f"{'PASS' if not problems else 'FAIL'} {title}")
            for problem in problems:
                print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
