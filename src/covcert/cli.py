"""Command line interface for the certification pipeline.

Subcommands:
  prove     run the exclusion pipeline for one rank (or ranks 2..8)
  optimize  run one of the parameter grid searches
  verify    re-check a previously emitted JSON report
  field     inspect one catalog field (zeta values, units, splitting)

Exit codes: 0 all proved, 2 a step failed or a report was tampered with,
3 data missing or malformed, a bound-pair table with no row for the search,
a report that does not parse, or an unsupported field operation, 4 an
unresolved tie at maximum precision.

Only ``report`` is imported eagerly.  The seven proof layers are bound with
``importlib.util.LazyLoader``: each is registered in ``sys.modules`` and on
the ``covcert`` package as usual, but its body runs on the first attribute
access.  So ``verify`` executes ``report.py`` alone, while ``prove``,
``optimize`` and ``field`` load what they use when they first use it.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
from pathlib import Path
from typing import Optional

from . import report


def _lazy(name: str):
    """Module covcert.<name>, registered now and executed on first attribute access."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# all seven are registered, as an eager import would: the tests and the
# benchmark's tracer find every layer in sys.modules after importing cli
rigor = _lazy("rigor")
specfun = _lazy("specfun")
numberfields = _lazy("numberfields")
bounds = _lazy("bounds")
localfactors = _lazy("localfactors")
optimizer = _lazy("optimizer")
certifier = _lazy("certifier")

EXIT_OK = 0
EXIT_STEP_FAILED = 2
EXIT_DATA_MISSING = 3
EXIT_TIE = 4


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _int_between(minimum: int, maximum: Optional[int] = None):
    """argparse type: an integer in [minimum, maximum] (no upper limit if None)."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _prime(text: str) -> int:
    """argparse type: a prime below 2^32, checked by trial division."""
    p = _integer(text)
    if not 2 <= p < 1 << 32 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise argparse.ArgumentTypeError(f"must be a prime below 2^32, got {p}")
    return p


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--odlyzko", help="path to the bound-pair table", default=None)
    p.add_argument("--fields", help="path to the field catalog", default=None)
    p.add_argument(
        "--precision",
        type=_int_between(16),
        default=256,
        help="working precision in bits (at least 16)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covcert",
        description="certified verification of minimal-covolume lattice bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="run the pipeline for one or all ranks")
    prove.add_argument(
        "--n",
        type=_int_between(2, report.MAX_RANK),
        default=None,
        help=f"rank to certify (2 to {report.MAX_RANK})",
    )
    prove.add_argument(
        "--all", action="store_true", help="certify every rank from 2 to 8"
    )
    prove.add_argument(
        "--format", choices=("json", "text"), default="text", dest="fmt"
    )
    _add_data_args(prove)

    opt = sub.add_parser("optimize", help="run a parameter grid search")
    opt.add_argument("--case", choices=("n2", "n3"), required=True)
    _add_data_args(opt)

    verify = sub.add_parser("verify", help="re-check a JSON report")
    verify.add_argument("report", help="path to the report file")

    fld = sub.add_parser("field", help="inspect one catalog field")
    fld.add_argument("label", help="catalog label, e.g. 2.2.5.1")
    fld.add_argument("--op", choices=("zeta", "units", "splitting"), required=True)
    fld.add_argument("--s", type=int, default=2, help="zeta argument (even)")
    fld.add_argument("--p", type=_prime, default=2, help="prime below 2^32 for splitting")
    _add_data_args(fld)

    return parser


def _cmd_prove(args) -> int:
    ranks = range(2, 9) if args.all else [args.n if args.n is not None else 2]
    worst = EXIT_OK
    for n in ranks:
        cert = certifier.run_case(
            n,
            precision_bits=args.precision,
            odlyzko_path=args.odlyzko,
            fields_path=args.fields,
        )
        sys.stdout.buffer.write(report.emit_report(cert, args.fmt))
        sys.stdout.flush()
        if cert.has_tie:
            worst = max(worst, EXIT_TIE)
        elif not cert.all_proved:
            worst = max(worst, EXIT_STEP_FAILED)
    return worst


def _cmd_optimize(args) -> int:
    table = bounds.load_odlyzko_table(args.odlyzko)
    if args.case == "n2":
        result = optimizer.optimize_n2(table, precision_bits=args.precision)
    else:
        result = optimizer.optimize_n3(table, precision_bits=args.precision)
    mid = result.best_value.midpoint()
    print(f"case: {args.case}")
    print(f"best value: {float(mid):.13g}")
    print(
        "best value enclosure: "
        f"[{float(result.best_value.lo):.13g}, {float(result.best_value.hi):.13g}]"
    )
    print(f"best pair: A = {result.best_pair.A}, E = {result.best_pair.E}")
    if result.best_t is not None:
        print(f"best t: {result.best_t}")
    print(f"rows scanned: {result.rows_scanned}")
    if result.ties:
        print(f"unresolved ties: {len(result.ties)}")
        return EXIT_TIE
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        verdict = report.verify_report(Path(args.report).read_bytes())
    except report.TamperDetected as exc:
        print(f"tamper detected: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILED
    print(f"verdict: {verdict}")
    return EXIT_OK if verdict == "Proved" else EXIT_STEP_FAILED


def _cmd_field(args) -> int:
    catalog = numberfields.default_catalog(args.fields)
    field = numberfields.field_by_label(catalog, args.label)
    if args.op == "zeta":
        iv = numberfields.dedekind_zeta_enclosure(field, args.s, args.precision)
        print(f"zeta_{field.label}({args.s}) in [{float(iv.lo):.15g}, {float(iv.hi):.15g}]")
    elif args.op == "units":
        if field.degree == 2:
            a, b = numberfields.pell_fundamental_unit(field.discriminant)
            print(f"fundamental unit: ({a} + {b} sqrt({field.discriminant})) / 2")
        index = numberfields.totally_positive_index(field)
        print(f"totally positive unit index: {index}")
    else:
        split = numberfields.splitting_type(field, args.p)
        print(
            f"prime {args.p}: {split.kind}, residue cardinalities "
            f"{list(split.residue_cardinalities)}"
        )
    return EXIT_OK


_COMMANDS = {
    "prove": _cmd_prove, "optimize": _cmd_optimize, "verify": _cmd_verify, "field": _cmd_field,
}

# bad input ends the command with exit 3 and one line on stderr, not a
# traceback; every layer's input error subclasses report.InputError, so
# naming them here loads no layer
_DATA_ERRORS = (FileNotFoundError, IsADirectoryError, report.InputError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA_MISSING


if __name__ == "__main__":
    sys.exit(main())
