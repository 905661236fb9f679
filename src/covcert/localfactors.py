"""Parahoric local-factor arithmetic for the exclusion of non-split cases.

Each finite place contributes a factor e'(P_v) >= 1 to the covolume; a
lattice can only undercut the reference one if the product of these
factors stays below 5 * 2^(#T), where #T counts the non-hyperspecial
places.  This module provides the closed forms for the special factors and
the rigidity lower bound h(q, n) for non-special ones.  No proof calls them:
they are the reference for the values that ``report.STATED_POINTS`` states.
"""

from __future__ import annotations

from fractions import Fraction

from .report import XI_CARDINALITY_MAX
from .rigor import Comparison, Interval, iv_compare


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
