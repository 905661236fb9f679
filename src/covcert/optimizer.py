"""Certified grid searches over the vendored bound-pair table.

Reproduces two parameter searches: the (A, E, t) grid minimizing the
rank-2 degree threshold and the (A, E) search minimizing the rank-3 degree
threshold.  Proofs evaluate the thresholds at the stated minima and do not
run these searches.

Every comparison used to select a minimum is a certified interval
comparison.  When enclosures overlap at the minimum, the search refines
precision up to four times the starting precision, and any remaining
overlaps are reported as ties rather than silently broken.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .rigor import Comparison, Interval, Rational, iv_compare
from .bounds import DenominatorNotPositive, OdlyzkoPair
from .specfun import _log_pi, _log_point, alpha_enclosure, log_enclosure


class InfeasibleBase(ValueError):
    """Threshold base could not be certified greater than one."""


class NonPositiveT(ValueError):
    """Grid parameter t must be positive."""


class EmptyTable(ValueError):
    """The bound-pair table is empty."""


class NoFeasiblePoint(ValueError):
    """No grid point satisfies the feasibility conditions."""


class SearchResult(NamedTuple):
    best_value: Interval
    best_pair: OdlyzkoPair
    best_t: Optional[Fraction]
    rows_scanned: int
    ties: Tuple[Tuple[Fraction, Fraction, Optional[Fraction]], ...] = ()


# ---------------------------------------------------------------------------
# rank-2 threshold
#
# The threshold for (A, E, t) is
#     (log(1/5760) - logXcoeff) / log(eta * A^(4.5 - t/2) * alpha(t+1))
# with logXcoeff = E(t+1)/2 - 5E - log(25 t (t+1)),
#      eta = 3 e^0.46 / (64 pi^6),
#      alpha(s) = pi^(s/2) / (Gamma(s/2) zeta(s)).
# Degrees strictly above the threshold are excluded at rank 2.

_PSI2 = Fraction(1, 5760)


def _ln_eta(precision_bits: int) -> Interval:
    """log eta = log(3/64) + 0.46 - 6 log pi."""
    return (
        _log_point(Fraction(3, 64), precision_bits)
        + Interval.exact(Fraction(46, 100))
        - Interval.exact(6) * _log_pi(precision_bits)
    )


@lru_cache(maxsize=None)
def _ln_alpha(t: Fraction, precision_bits: int) -> Interval:
    return log_enclosure(
        alpha_enclosure(Interval.exact(t + 1), precision_bits), precision_bits
    )


def n2_base_log(pair: OdlyzkoPair, t: Fraction, precision_bits: int = 256) -> Interval:
    """log of the threshold base eta * A^(4.5 - t/2) * alpha(t + 1)."""
    exponent = Fraction(9, 2) - t / 2
    return (
        _ln_eta(precision_bits)
        + Interval.exact(exponent) * _log_point(pair.A, precision_bits)
        + _ln_alpha(t, precision_bits)
    ).coarsen(precision_bits + 8)


def n2_rhs(pair: OdlyzkoPair, t: Rational, precision_bits: int = 256) -> Interval:
    """Certified rank-2 degree threshold at one grid point."""
    t = Fraction(t)
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    ln_base = n2_base_log(pair, t, precision_bits)
    if iv_compare(ln_base, Interval.exact(0)) is not Comparison.CERTAINLY_GREATER:
        raise InfeasibleBase(
            f"threshold base not certified > 1 at (A, E, t) = "
            f"({pair.A}, {pair.E}, {t})"
        )
    log_x_coeff = (
        Interval.exact(pair.E * (t + 1) / 2 - 5 * pair.E)
        - _log_point(25 * t * (t + 1), precision_bits)
    )
    numerator = _log_point(_PSI2, precision_bits) - log_x_coeff
    return (numerator / ln_base).coarsen(precision_bits + 8)


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


def optimize_n2(
    table: Sequence[OdlyzkoPair],
    t_grid: Optional[Sequence[Rational]] = None,
    precision_bits: int = 256,
) -> SearchResult:
    """Minimize the rank-2 degree threshold over (pair, t) grid points."""
    if not table:
        raise EmptyTable("bound-pair table is empty")
    ts = tuple(Fraction(t) for t in (t_grid if t_grid is not None else default_t_grid()))
    by_key = {(p.A, p.E): p for p in table}
    points = [(p.A, p.E, t) for p in table for t in ts]

    def evaluate(key, prec):
        A, E, t = key
        try:
            return n2_rhs(by_key[(A, E)], t, prec)
        except (InfeasibleBase, NonPositiveT):
            return None

    best_val, best_key, ties = _minimize(points, evaluate, precision_bits)
    return SearchResult(
        best_value=best_val,
        best_pair=by_key[(best_key[0], best_key[1])],
        best_t=best_key[2],
        rows_scanned=len(table),
        ties=tuple(ties),
    )


def optimize_n3(
    table: Sequence[OdlyzkoPair], precision_bits: int = 256
) -> SearchResult:
    """Minimize the rank-3 degree threshold over the table."""
    if not table:
        raise EmptyTable("bound-pair table is empty")
    from .bounds import n3_degree_threshold

    by_key = {(p.A, p.E): p for p in table}
    points = [(p.A, p.E, None) for p in table]

    def evaluate(key, prec):
        try:
            return n3_degree_threshold(by_key[(key[0], key[1])], prec)
        except DenominatorNotPositive:
            return None

    best_val, best_key, ties = _minimize(points, evaluate, precision_bits)
    return SearchResult(
        best_value=best_val,
        best_pair=by_key[(best_key[0], best_key[1])],
        best_t=None,
        rows_scanned=len(table),
        ties=tuple(ties),
    )
