"""Outside-in span tracer for the covcert layers.

``install()`` replaces every module-level function of the eight covcert
layer modules with a pass-through timer, both in the module that defines
it and in every covcert module that imported it by name.  Nothing under
``src/`` changes: the wrappers are applied from outside after import.

Each wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans it caused, so a layer's self time is the
sum of the self times of its functions.  ``Interval`` methods are not
wrapped; their cost counts in the calling function's self time.

A few functions get a richer wrapper that records a labelled span or a
counter where the work happens:

- ``specfun._cached_point``: cache hit or miss, and the series
  computation that runs on a miss as a span ``specfun.series.<kind>``;
- the ``specfun`` enclosure primitives: bits requested minus the relative
  bits delivered, for calls whose interval arguments are points;
- ``optimizer._minimize``: points evaluated, feasible points and
  evaluations above the base precision;
- ``certifier.run_case`` by rank and ``numberfields.dedekind_zeta_enclosure``
  by field degree.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from fractions import Fraction

LAYERS = (
    "rigor",
    "specfun",
    "numberfields",
    "bounds",
    "optimizer",
    "localfactors",
    "certifier",
    "cli",
)

SERIES_KINDS = ("pi", "ln2", "e", "exp", "log", "lngamma", "hurwitz")

SHORTFALL_FUNCTIONS = (
    "pi_enclosure",
    "exp_enclosure",
    "log_enclosure",
    "sqrt_enclosure",
    "gamma_enclosure",
    "pow_frac",
    "zeta_real_enclosure",
    "dirichlet_L_enclosure",
    "alpha_enclosure",
)


def _log2_ratio(n: int, d: int) -> float:
    """log2(n / d) for positive integers of any size, without overflow."""
    shift = n.bit_length() - d.bit_length()
    if shift > 0:
        d <<= shift
    else:
        n <<= -shift
    return shift + math.log2(n / d)


def relative_bits(lo: Fraction, hi: Fraction) -> float | None:
    """Relative precision of [lo, hi] in bits; None for a point or zero."""
    # plain integer arithmetic: Fraction subtraction would reduce by a gcd
    width = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    magnitude = max(abs(lo), abs(hi))
    if width <= 0 or magnitude == 0:
        return None
    return _log2_ratio(magnitude.numerator, magnitude.denominator) - _log2_ratio(
        width, hi.denominator * lo.denominator
    )


class Tracer:
    """Span stack, per-function statistics and named counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        # child time accumulated by each open span, innermost last
        self.stack: list[float] = []
        # name -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        # primitive -> largest (requested - delivered) bits seen
        self.shortfall: dict[str, float] = {}
        # number of open optimizer spans
        self.in_optimizer = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one span named ``name``."""
        stack = self.stack
        stack.append(0.0)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            rec = self.stats.get(name)
            if rec is None:
                rec = self.stats[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += elapsed - children
            rec[2] += elapsed
            if self.in_optimizer and name.startswith("specfun."):
                self.count("specfun.under_optimizer_s", elapsed - children)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_optimizer(self, name: str, fn):
        """Like ``wrap``, and bills specfun self time below it to the search."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.in_optimizer += 1
            try:
                return self.call(name, fn, *args, **kwargs)
            finally:
                self.in_optimizer -= 1

        return traced

    def to_json(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "shortfall": self.shortfall,
        }


# ---------------------------------------------------------------------------
# special wrappers


def _cached_point_wrapper(tracer: Tracer, name: str, fn):
    def traced(key, prec, compute):
        kind = key[0]
        ran = []

        def labelled(q):
            ran.append(q)
            return tracer.call(f"specfun.series.{kind}", compute, q)

        try:
            return tracer.call(name, fn, key, prec, labelled)
        finally:
            tracer.count("specfun.cache.lookups")
            if ran:
                tracer.count("specfun.cache.misses")

    return traced


def _shortfall_wrapper(tracer: Tracer, name: str, fn, interval_type):
    params = inspect.signature(fn).parameters
    index = list(params).index("precision_bits")
    default = params["precision_bits"].default
    short = name.split(".", 1)[1]

    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        values = (*args, *kwargs.values())
        if all(v.is_point() for v in values if isinstance(v, interval_type)):
            delivered = relative_bits(result.lo, result.hi)
            if delivered is not None:
                prec = args[index] if len(args) > index else kwargs.get("precision_bits", default)
                gap = prec - delivered
                if gap > tracer.shortfall.get(short, -math.inf):
                    tracer.shortfall[short] = gap
        return result

    return traced


def _minimize_wrapper(tracer: Tracer, name: str, fn):
    def traced(points, evaluate, precision_bits):
        tracer.in_optimizer += 1

        def counted(key, prec):
            value = evaluate(key, prec)
            if prec > precision_bits:
                tracer.count("optimizer.refinements")
            else:
                tracer.count("optimizer.points_evaluated")
                if value is not None:
                    tracer.count("optimizer.points_feasible")
            return value

        try:
            return tracer.call(name, fn, points, counted, precision_bits)
        finally:
            tracer.in_optimizer -= 1

    return traced


def _run_case_wrapper(tracer: Tracer, name: str, fn):
    def traced(n, *args, **kwargs):
        label = f"certifier.run_case.rank{n}" if n <= 8 else "certifier.run_case.rank9plus"
        start = tracer.clock()
        try:
            return tracer.call(name, fn, n, *args, **kwargs)
        finally:
            tracer.count(label + "_s", tracer.clock() - start)

    return traced


def _dedekind_wrapper(tracer: Tracer, name: str, fn):
    kinds = {1: "rational", 2: "quadratic", 3: "cubic"}

    def traced(field, *args, **kwargs):
        label = kinds.get(field.degree, "other")
        start = tracer.clock()
        try:
            return tracer.call(name, fn, field, *args, **kwargs)
        finally:
            tracer.count(f"numberfields.dedekind_zeta.{label}_s", tracer.clock() - start)

    return traced


# runs inside Interval construction, so it belongs with the Interval
# methods, which are not wrapped (millions of calls per proof)
_UNWRAPPED = {"rigor._to_rational"}

_SPECIAL = {
    "specfun._cached_point": _cached_point_wrapper,
    "optimizer._minimize": _minimize_wrapper,
    "certifier.run_case": _run_case_wrapper,
    "numberfields.dedekind_zeta_enclosure": _dedekind_wrapper,
}


def _is_layer_function(obj, module_name: str) -> bool:
    target = getattr(obj, "__wrapped__", obj)  # functools.lru_cache objects
    return (
        callable(obj)
        and not isinstance(obj, type)
        and inspect.isfunction(target)
        and target.__module__ == module_name
    )


def install() -> Tracer:
    """Wrap every layer function of the imported covcert package; return the tracer."""
    tracer = Tracer()
    modules = {name: sys.modules.get(f"covcert.{name}") for name in LAYERS}
    missing = [name for name, module in modules.items() if module is None]
    if missing:
        raise RuntimeError(f"layers not imported: {missing}")
    interval_type = modules["rigor"].Interval

    replacements = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not _is_layer_function(obj, module.__name__):
                continue
            name = f"{layer}.{attr}"
            if name in _UNWRAPPED:
                continue
            if name in _SPECIAL:
                wrapper = _SPECIAL[name](tracer, name, obj)
            elif layer == "specfun" and attr in SHORTFALL_FUNCTIONS:
                wrapper = _shortfall_wrapper(tracer, name, obj, interval_type)
            elif layer == "optimizer":
                wrapper = tracer.wrap_optimizer(name, obj)
            else:
                wrapper = tracer.wrap(name, obj)
            replacements[id(obj)] = (obj, wrapper)

    # rebind in the defining module and in every module importing by name
    for module in [sys.modules["covcert"], *modules.values()]:
        for attr, obj in list(vars(module).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    return tracer
