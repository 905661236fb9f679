"""Certified grid searches over the vendored bound-pair table.

Reproduces two parameter searches: the (A, E, t) grid minimizing the
rank-2 degree threshold and the (A, E) search minimizing the rank-3 degree
threshold.  Both thresholds live in :mod:`covcert.bounds`; this module holds
only the searches.  Proofs evaluate the thresholds at the stated minima and
never import this module.

Every comparison used to select a minimum is a certified interval
comparison.  When enclosures overlap at the minimum, the search refines
precision up to four times the starting precision, and any remaining
overlaps are reported as ties rather than silently broken.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .report import InputError
from .rigor import Comparison, Interval, Rational, iv_compare
from .bounds import (
    DenominatorNotPositive,
    OdlyzkoPair,
    n2_degree_threshold,
    n3_degree_threshold,
)


class EmptyTable(InputError):
    """The bound-pair table is empty."""


class NoFeasiblePoint(InputError):
    """No grid point satisfies the feasibility conditions."""


class SearchResult(NamedTuple):
    best_value: Interval
    best_pair: OdlyzkoPair
    best_t: Optional[Fraction]
    rows_scanned: int
    ties: Tuple[Tuple[Fraction, Fraction, Optional[Fraction]], ...] = ()


def default_t_grid() -> Tuple[Fraction, ...]:
    """The exact decimal grid t = 0.1 k for k = 1 .. 249."""
    return tuple(Fraction(k, 10) for k in range(1, 250))


# ---------------------------------------------------------------------------
# generic certified minimization over labelled grid points


def _minimize(
    points: Sequence[Tuple[Fraction, Fraction, Optional[Fraction]]],
    evaluate: Callable[[Tuple[Fraction, Fraction, Optional[Fraction]], int], Optional[Interval]],
    precision_bits: int,
) -> Tuple[Interval, Tuple[Fraction, Fraction, Optional[Fraction]], List]:
    """Deterministic reduction: scan points in lexicographic order.

    ``evaluate`` returns None for infeasible points.  Overlapping
    candidates at the running minimum are re-evaluated at 2x and 4x
    precision before being recorded as ties.
    """
    ordered = sorted(points, key=lambda p: (p[0], p[1], p[2] if p[2] is not None else 0))
    best_key = None
    best_val: Optional[Interval] = None
    ties: List[Tuple[Fraction, Fraction, Optional[Fraction]]] = []
    for key in ordered:
        val = evaluate(key, precision_bits)
        if val is None:
            continue
        if best_val is None:
            best_key, best_val = key, val
            continue
        verdict = iv_compare(val, best_val)
        if verdict is Comparison.OVERLAP:
            for factor in (2, 4):
                refined_new = evaluate(key, precision_bits * factor)
                refined_best = evaluate(best_key, precision_bits * factor)
                if refined_new is None or refined_best is None:
                    break
                val, best_val = refined_new, refined_best
                verdict = iv_compare(val, best_val)
                if verdict is not Comparison.OVERLAP:
                    break
        if verdict is Comparison.CERTAINLY_LESS:
            best_key, best_val = key, val
            ties = []
        elif verdict is Comparison.OVERLAP:
            ties.append(key)
    if best_val is None:
        raise NoFeasiblePoint("no grid point was feasible")
    return best_val, best_key, ties


def _search(
    table: Sequence[OdlyzkoPair],
    ts: Sequence[Optional[Fraction]],
    threshold: Callable[[OdlyzkoPair, Optional[Fraction], int], Interval],
    precision_bits: int,
) -> SearchResult:
    """Minimize ``threshold(pair, t, prec)`` over the table rows times ``ts``.

    A point whose threshold denominator is not certified positive is
    infeasible and skipped.
    """
    if not table:
        raise EmptyTable("bound-pair table is empty")
    by_key = {(p.A, p.E): p for p in table}
    points = [(p.A, p.E, t) for p in table for t in ts]

    def evaluate(key, prec):
        try:
            return threshold(by_key[key[:2]], key[2], prec)
        except DenominatorNotPositive:
            return None

    best_val, best_key, ties = _minimize(points, evaluate, precision_bits)
    return SearchResult(
        best_value=best_val,
        best_pair=by_key[best_key[:2]],
        best_t=best_key[2],
        rows_scanned=len(table),
        ties=tuple(ties),
    )


def optimize_n2(
    table: Sequence[OdlyzkoPair],
    t_grid: Optional[Sequence[Rational]] = None,
    precision_bits: int = 256,
) -> SearchResult:
    """Minimize the rank-2 degree threshold over (pair, t) grid points."""
    ts = tuple(Fraction(t) for t in (t_grid if t_grid is not None else default_t_grid()))
    return _search(table, ts, n2_degree_threshold, precision_bits)


def optimize_n3(
    table: Sequence[OdlyzkoPair], precision_bits: int = 256
) -> SearchResult:
    """Minimize the rank-3 degree threshold over the table."""
    return _search(
        table, (None,), lambda pair, _t, prec: n3_degree_threshold(pair, prec), precision_bits
    )
