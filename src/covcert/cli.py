"""Command line interface for the certification pipeline.

Subcommands:
  prove     run the exclusion pipeline for one rank (or ranks 2..8)
  optimize  run one of the parameter grid searches
  verify    re-check a previously emitted JSON report
  field     inspect one catalog field (zeta values, units, splitting)

Exit codes: 0 all proved, 2 a step failed, a report was tampered with
(among others, one whose comparisons are not those its enclosures and plan
render) or a usage error (such as ``prove --odlyzko``: only ``optimize``
reads the bound-pair table), 3 data missing, unreadable or malformed, an
``optimize`` table with no row or no feasible point, a report that does not
parse, or an unsupported field operation, 4 an unresolved tie at the asked
precision, 141 (128 + SIGPIPE, as a shell reports for ``yes | head -1``)
stdout was a pipe whose reader went away.

Only ``report`` is imported eagerly.  The seven proof layers are bound with
``importlib.util.LazyLoader``: each is registered in ``sys.modules`` and on
the ``covcert`` package as usual, but its body runs on the first attribute
access.  So ``verify`` executes ``report.py`` alone, while ``prove``,
``optimize`` and ``field`` load what they use when they first use it.

A plain command line builds no parser.  ``_ARGUMENTS`` lists each
command's help and arguments once; ``build_parser`` replays it into
argparse, and ``_plain_args`` reads it to parse a line in which every
option is spelled in full, given once and followed by a valid value that
does not start with ``-``, and every required argument is present (see its
docstring).  Such a line, e.g. ``covcert verify PATH`` or ``covcert prove
--n 4 --format json``, never imports ``argparse`` (with ``gettext`` and
``locale``).  Every other line goes through ``build_parser``, so every help
text and usage error is argparse's own.

``run`` is the process entry point (``python -m covcert.cli`` and the
installed ``covcert`` script).  It flushes stdout and stderr after ``main``
returns and then ends the process with ``os._exit``, skipping interpreter
teardown: finalizing the modules that site hooks import costs more than
the check itself.  A closed stdout pipe ends the process with exit 141 and
nothing on stderr.  ``main`` is the in-process API and returns the exit code.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import types

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
EXIT_BROKEN_PIPE = 141

# the interpreter's limit on the digits of an int read or written as text,
# whatever PYTHONINTMAXSTRDIGITS says: Python's default, which every endpoint
# up to --precision 8192 fits (about 2470 digits), while ``verify`` still
# rejects a longer integer as malformed
INT_MAX_STR_DIGITS = 4300


def _type_error(message: str) -> Exception:
    """argparse's error for a bad argument value; only parsing imports argparse."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _type_error(f"invalid integer {text!r:.80}") from None


def _int_between(minimum: int, maximum: int | None = None):
    """argparse type: an integer in [minimum, maximum] (no upper limit if None)."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < minimum:
            raise _type_error(f"must be at least {minimum}, got {value!r:.80}")
        if maximum is not None and value > maximum:
            raise _type_error(f"must be at most {maximum}, got {value!r:.80}")
        return value

    return parse


def _prime(text: str) -> int:
    """argparse type: a prime below 2^32, checked by trial division."""
    p = _integer(text)
    if not 2 <= p < 1 << 32 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise _type_error(f"must be a prime below 2^32, got {p!r:.80}")
    return p


# Each command's help and arguments, as (name, add_argument keywords) in
# order: ``build_parser`` replays them and ``_plain_args`` reads them.  A
# command takes only the data paths it reads: ``prove`` reads the catalog
# but not the bound-pair table, whose rows it needs are stated witnesses.
_ODLYZKO = ("--odlyzko", {"help": "path to the bound-pair table", "default": None})
_FIELDS = ("--fields", {"help": "path to the field catalog", "default": None})
_PRECISION = ("--precision", {"type": _int_between(report.MIN_PRECISION_BITS,
                                                   report.MAX_PRECISION_BITS), "default": 256,
                              "help": "working precision in bits (16 to 8192)"})
_ARGUMENTS = {
    "prove": (
        "run the pipeline for one or all ranks",
        (
            # no default, so that argparse, which counts an option as given only
            # when its value is not the default, rejects "--n 2 --all"; an absent
            # --n is rank 2, chosen by _cmd_prove
            ("--n", {"type": _int_between(2), "help": "rank to certify (at least 2, default 2)"}),
            (
                "--all",
                {
                    "action": "store_true",
                    "default": False,
                    "help": "certify every rank from 2 to 8",
                },
            ),
            ("--format", {"choices": ("json", "text"), "default": "text"}),
            _FIELDS, _PRECISION,
        ),
    ),
    "optimize": (
        "run a parameter grid search",
        (("--case", {"choices": ("n2", "n3"), "required": True}), _ODLYZKO, _PRECISION),
    ),
    "verify": ("re-check a JSON report", (("report", {"help": "path to the report file"}),)),
    "field": (
        "inspect one catalog field",
        (
            ("label", {"help": "catalog label, e.g. 2.2.5.1"}),
            ("--op", {"choices": ("zeta", "units", "splitting"), "required": True}),
            ("--s", {"type": _integer, "default": 2, "help": "zeta argument (even)"}),
            ("--p", {"type": _prime, "default": 2, "help": "prime below 2^32 for splitting"}),
            _FIELDS, _PRECISION,
        ),
    ),
}
# a command line may give at most one of these (argparse's mutually exclusive group)
_EXCLUSIVE = ("--n", "--all")


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="covcert",
        description="certified verification of minimal-covolume lattice bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _ARGUMENTS.items():
        p = sub.add_parser(command, help=help_text)
        group = None
        for name, keywords in arguments:
            if name in _EXCLUSIVE:
                if group is None:
                    group = p.add_mutually_exclusive_group()
                group.add_argument(name, **keywords)
            else:
                p.add_argument(name, **keywords)
    return parser


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives, if ``argv`` is plain; else None.

    A command line is plain when its first token is a command, and each
    later token is either one of that command's options, spelled in full,
    given at most once and followed by its value (``--all`` takes none),
    or the command's next positional.  No value starts with ``-``, each
    passes its type and choices, every required option and positional is
    given, and at most one of ``_EXCLUSIVE`` is.  An absent option takes its
    default as it stands: argparse would pass a string default through the
    option's type, so no option with a type has one.  Every other line, help
    and usage errors included, is argparse's to parse.
    """
    if not argv or argv[0] not in _ARGUMENTS:
        return None
    arguments = dict(_ARGUMENTS[argv[0]][1])
    positionals = [name for name in arguments if not name.startswith("-")]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            name = token
            if name not in arguments or name in given:
                return None
            if arguments[name].get("action") == "store_true":
                given[name] = True
                continue
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        elif positionals:
            name = positionals.pop(0)
        else:
            return None
        given[name] = _value(arguments[name], token)
        if given[name] is None:
            return None
    if positionals or all(name in given for name in _EXCLUSIVE):
        return None
    namespace = {"command": argv[0]}
    for name, keywords in arguments.items():
        if keywords.get("required") and name not in given:
            return None
        namespace[name.lstrip("-")] = given.get(name, keywords.get("default"))
    return types.SimpleNamespace(**namespace)


def _value(keywords: dict, text: str):
    """``text`` through an argument's type and choices, or None if argparse would reject it."""
    try:
        value = keywords.get("type", str)(text)
    except Exception:  # argparse converts it again, and reports or raises as it does
        return None
    return value if value in keywords.get("choices", (value,)) else None


def _cmd_prove(args) -> int:
    ranks = range(2, 9) if args.all else [2 if args.n is None else args.n]
    worst = EXIT_OK
    for n in ranks:
        cert = certifier.run_case(n, precision_bits=args.precision, fields_path=args.fields)
        sys.stdout.buffer.write(report.emit_report(cert, args.format))
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
    with open(args.report, "rb") as f:
        data = f.read()
    try:
        verdict = report.verify_report(data)
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    # bad input ends the command with exit 3 and one line on stderr, not a
    # traceback: a path that cannot be read (OSError), or an input error of
    # any layer, each a report.InputError, so naming it here loads no layer
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        raise  # a reader that went away, which ``run`` ends with exit 141
    except OSError as exc:  # its message holds the whole path: cut, as argument echoes are
        print(f"{type(exc).__name__}: {str(exc):.80}", file=sys.stderr)
        return EXIT_DATA_MISSING
    except report.InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA_MISSING


def run() -> None:
    """Run ``main`` on the process's arguments and exit with its code.

    A returned code ends the process without interpreter teardown, once
    stdout and stderr are flushed.  A ``BrokenPipeError`` from ``main`` or
    from that flush, a reader that closed the pipe early, ends the process
    with exit 141 and writes nothing to stderr.  A ``SystemExit`` (help,
    usage errors) or any other uncaught exception leaves the normal way, and
    so does a flush that fails for another reason, e.g. a full disk, so the
    interpreter reports it as before.  The integer-digit limit is set to
    ``INT_MAX_STR_DIGITS`` first, so the environment cannot change it.
    """
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 on
        sys.set_int_max_str_digits(INT_MAX_STR_DIGITS)
    try:
        code = main()
    except BrokenPipeError:
        os._exit(EXIT_BROKEN_PIPE)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(EXIT_BROKEN_PIPE)
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
