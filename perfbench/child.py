"""Child-process entry points of the benchmark.

Run with ``PYTHONPATH`` pointing at the repository's ``src``:

    python3 perfbench/child.py setup
        import covcert.cli, load the bound-pair table and the field catalog
        (both SHA-256 checked); print the phase times as JSON.
    python3 perfbench/child.py corpus OUT_DIR PRECISION:RANK ...
        run ``covcert prove --n RANK --precision PRECISION --format json``
        in this process for each pair and write OUT_DIR/rank<RANK>.json.
    python3 perfbench/child.py trace TRACE_FILE CLI_ARG ...
        wrap every layer function with the tracer, run ``covcert CLI_ARG ...``
        and write the trace to TRACE_FILE; the exit code is the CLI's.
"""

from __future__ import annotations

import io
import json
import sys
import time
from pathlib import Path


def _setup() -> int:
    start = time.perf_counter()
    import covcert.cli  # noqa: F401  (the import is what is timed)
    from covcert import bounds, numberfields

    imported = time.perf_counter()
    bounds.load_odlyzko_table()
    numberfields.default_catalog()
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
    return 0


def _corpus(out_dir: str, specs) -> int:
    from covcert import cli

    real_stdout = sys.stdout
    for spec in specs:
        precision, rank = spec.split(":")
        buffer = io.BytesIO()
        sys.stdout = capture = io.TextIOWrapper(buffer, encoding="utf-8")
        try:
            code = cli.main(["prove", "--n", rank, "--precision", precision, "--format", "json"])
        finally:
            sys.stdout = real_stdout
            capture.flush()
            capture.detach()
        if code != 0:
            print(f"prove --n {rank} exited with {code}", file=sys.stderr)
            return code
        Path(out_dir, f"rank{rank}.json").write_bytes(buffer.getvalue())
    return 0


def _trace(trace_file: str, argv) -> int:
    from covcert import cli
    import tracer as tracing

    tracer = tracing.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        doc = tracer.to_json()
        doc["wall_s"] = time.perf_counter() - start
        Path(trace_file).write_text(json.dumps(doc))
    return code


def main(argv) -> int:
    mode, *rest = argv
    if mode == "setup":
        return _setup()
    if mode == "corpus":
        return _corpus(rest[0], rest[1:])
    if mode == "trace":
        return _trace(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
