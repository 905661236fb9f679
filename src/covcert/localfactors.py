"""Parahoric local-factor arithmetic for the exclusion of non-split cases.

Each finite place contributes a factor e'(P_v) >= 1 to the covolume; a
lattice can only undercut the reference one if the product of these
factors stays below 5 * 2^(#T), where #T counts the non-hyperspecial
places.  This module provides the closed forms for the special factors,
the rigidity lower bound h(q, n) for non-special ones, and the composed
exclusion argument for the rank-2 survivor field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .report import XI_CARDINALITY_MAX
from .rigor import Comparison, Interval, iv_compare
from . import numberfields
from .numberfields import padic_square_test, splitting_type


def T_factor(q: int) -> Fraction:
    """Rank-2 special factor alternative T(q) = (q^4 - 1) / (2 (q + 1))."""
    if q < 2:
        raise ValueError("residue cardinality must be >= 2")
    return Fraction(q**4 - 1, 2 * (q + 1))


def eprime_special(n: int, q: int) -> int:
    """Exact special non-hyperspecial factor, branching on the parity of n.

    Odd n: prod_{j=1..n} (q^j + (-1)^j).  Even n = 2m: prod_{j=1..m}
    (q^(4j-2) - 1).  Both are positive integers.
    """
    if n < 2 or q < 2:
        raise ValueError("need n >= 2 and q >= 2")
    if n % 2 == 1:
        value = 1
        for j in range(1, n + 1):
            value *= q**j + (-1) ** j
    else:
        value = 1
        for j in range(1, n // 2 + 1):
            value *= q ** (4 * j - 2) - 1
    return value


def h_rigidity(q: int, n: int) -> Interval:
    """Lower bound h(q, n) = q^(n+1)/(q+1) * prod_{j=1..n} (1 - q^(-2j))."""
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1")
    value = Fraction(q ** (n + 1), q + 1)
    for j in range(1, n + 1):
        value *= 1 - Fraction(1, q ** (2 * j))
    return Interval.exact(value)


def nonspecial_gt_two(q: int, n: int) -> Comparison:
    """Certify that a non-special factor exceeds the component bound.

    The factor is at least T(q) at (q, n) = (2, 2) and at least h(q, n)
    otherwise, and is divided by at most XI_CARDINALITY_MAX = 2; the
    verdict certifies (lower bound) > 2.
    """
    if (q, n) == (2, 2):
        lower = Interval.exact(T_factor(q))
    else:
        lower = h_rigidity(q, n)
    return iv_compare(lower, Interval.exact(XI_CARDINALITY_MAX))


def qsqrt5_local_exclusion(catalog) -> Tuple[Tuple[str, List[Interval]], ...]:
    """Exclusion of small residue cardinalities for the rank-2 survivor.

    A sharp local factor small enough to evade the exclusion inequality
    would need residue cardinality 2 or 3.  Both are ruled out for the
    quadratic field of discriminant 5: the rational primes 2 and 3 are
    inert, so every residue cardinality is a square >= 4.  The remaining
    rigidity input (ramification parity at the archimedean places) is not
    checked here; the certifier records it as axiom A1.  Each fragment is
    the evidence of one step of the rank-2 plan, its anchor (the splitting
    that the catalog's field gives) and its enclosure, whose bound the plan
    states: the smallest residue cardinality at the places above 2, then
    above 3.  The plan states T(4), T(5) and T(9) at the remaining places.
    """
    field = numberfields.field_by_discriminant(catalog, 2, 5)
    steps = []
    for p in (2, 3):
        split = splitting_type(field, p)
        square_check = padic_square_test(field.discriminant, p)
        steps.append((
            f"prime {p} is {split.kind} with residue cardinality "
            f"{split.residue_cardinalities[0]}; discriminant is "
            f"{'' if square_check else 'not '}a square in the {p}-adic field",
            [Interval.exact(min(split.residue_cardinalities))],
        ))
    return tuple(steps)
