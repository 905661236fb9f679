"""Global covolume bounds and discriminant cutoffs.

Implements the reference covolume constants, the exact global-stage
quotient Psi(n) / S(Lambda), the high-rank lower bound on the covolume and
the differences in the rank of its logarithm, the rank-2 and rank-3 degree
thresholds, and the discriminant cutoff formulas used to enumerate candidate
fields.  The three feasibility conditions on a bound pair (A, E) of
``lemma35_conditions`` are not part of the certificate: its rank >= 4 steps
record the induction from rank 4 itself, which needs none of them.

Each constant has one route.  Psi(n) = Pi(n) prod_{j<=n} zeta(2j) is only
ever the exact rational ``psi_n_exact``, from the Bernoulli closed form of
zeta(2j).  Pi(n) = c_n pi^(-n(n+1)) is only ever the factor table
``_pi_n``.  The high-rank bound, its logarithms and their differences, the
discriminant cutoffs, e^0.46, the sides of the feasibility conditions, the
rank-3 threshold's denominator and rank 2's log eta + log alpha(t + 1),
whose bases include Gamma and zeta, and the infinite zeta product are each
one factor table: one cached point of ``specfun.power_product`` or
``log_power_product``, whose precision inside is specfun's choice alone.

``load_odlyzko_table`` parses the bound-pair table; ``numberfields.load_data_file`` reads it.

All decimal constants appearing in the formulas are stored as exact
rationals; printed decimal values in certificates are reporting artifacts
only and never feed back into a comparison.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import report
from .report import InputError
from .rigor import Comparison, Interval, iv_compare
from .numberfields import (
    NumberFieldRecord,
    data_fields,
    dedekind_zeta_exact_coeff,
    load_data_file,
)
from .specfun import (
    EULER, PI, ZETA_PRODUCT, alpha_factors, log_power_product, power_product, zeta_even_exact,
)


class DenominatorNotPositive(ValueError):
    """Degree-threshold denominator could not be certified positive."""


class NonPositiveT(ValueError):
    """Rank-2 threshold parameter t must be positive."""


class MalformedTable(InputError):
    """Bound-pair table does not parse."""


class _PairFields(NamedTuple):
    A: Fraction
    E: Fraction


class OdlyzkoPair(_PairFields):
    """A pair (A, E) certifying D_K >= A^d * exp(-E) for totally real K."""

    __slots__ = ()

    def __new__(cls, A, E) -> "OdlyzkoPair":
        A, E = Fraction(A), Fraction(E)
        if A <= 1:
            raise ValueError(f"bound pair needs A > 1, got A={A}")
        if E <= 0:
            raise ValueError(f"bound pair needs E > 0, got E={E}")
        return super().__new__(cls, A, E)


def f_n(n: int) -> Fraction:
    """Exponent f(n) = n^2 + n/2 - 3 appearing in the counting bounds."""
    return Fraction(2 * n * n + n - 6, 2)


# ---------------------------------------------------------------------------
# reference covolume constants


@lru_cache(maxsize=None)
def pi_n_coefficient(n: int) -> Fraction:
    """Exact rational c with Pi(n) = c * pi^(-n(n+1))."""
    num = 1
    for j in range(1, n + 1):
        num *= math.factorial(2 * j - 1)
    return Fraction(num, 1 << (n * (n + 1)))


@lru_cache(maxsize=None)
def psi_n_exact(n: int) -> Fraction:
    """Exact value of Psi(n) = Pi(n) * prod_{j<=n} zeta(2j).

    The pi powers cancel exactly: zeta(2j) is a rational multiple of
    pi^(2j) and the exponents sum to n(n+1).
    """
    c = pi_n_coefficient(n)
    for j in range(1, n + 1):
        c *= zeta_even_exact(j)
    return c


def zeta_product_enclosure(precision_bits: int = 256) -> Interval:
    """Enclosure of the infinite product prod_{j>=1} zeta(2j)."""
    return power_product(((ZETA_PRODUCT, 1),), precision_bits)


# ---------------------------------------------------------------------------
# the global-stage quotient against the lattice covolume S(Lambda)


def s_lambda_quotient(
    field: NumberFieldRecord, n: int, precision_bits: int = 256
) -> Interval:
    """Quotient Psi(n) / (S(Lambda) / 2^(2d-1)) comparing against Sp_2n(Z).

    S(Lambda) = D^(n(2n+1)/2) Pi(n)^d prod_{j<=n} zeta_K(2j).  With
    Pi(n) = c_n pi^(-n(n+1)) and zeta_K(2j) = r_K(j) pi^(2jd) / sqrt(D),
    the pi powers cancel and the powers of D combine to D^(n^2), so the
    quotient is the exact rational
    Psi(n) 2^(2d-1) / (D^(n^2) c_n^d prod_j r_K(j)).  The point enclosure
    does not depend on precision_bits.
    """
    d, D = field.degree, field.discriminant
    S = Fraction(D) ** (n * n) * pi_n_coefficient(n) ** d
    for j in range(1, n + 1):
        S *= dedekind_zeta_exact_coeff(field, j)
    return Interval.exact(psi_n_exact(n) * (1 << (2 * d - 1)) / S)


def adjusted_quotient(
    field: NumberFieldRecord, n: int, unit_index: int, precision_bits: int = 256
) -> Interval:
    """The quotient of ``s_lambda_quotient`` rescaled by unit_index / 2^(2d-1).

    The model lattice's covolume carries a factor 2^(2d-1) / [U^+ : U^2];
    values below 1 certify that the field cannot beat the rational lattice.
    """
    scale = Fraction(unit_index, 1 << (2 * field.degree - 1))
    return s_lambda_quotient(field, n) * Interval.exact(scale)


# ---------------------------------------------------------------------------
# the high-rank lower bound, as factor tables
#
# O(n, d, A, E) = (1/750) e^(-E f(n)) (7.6 e^0.46 A^f(n) Pi(n))^d.  The proof
# takes it at rank 4 only and reaches every higher rank through
# ``log_differences``.


_COEFF_7_6 = Fraction(38, 5)
_COEFF_0_46 = Fraction(46, 100)
# the plan's constants, defined in report.py, as the Fractions that the cutoffs multiply
ZETA_PRODUCT_UPPER, E_046_LOWER = (
    Fraction(c.numerator, c.denominator) for c in (report.ZETA_PRODUCT_UPPER, report.E_046_LOWER)
)


def _pi_n(n: int, c: Fraction = Fraction(1)) -> tuple:
    """Pi(n)^c = c_n^c pi^(-n(n+1) c), as a factor table."""
    return (pi_n_coefficient(n), c), (PI, -n * (n + 1) * c)


def log_inner_factor(n: int, A: Fraction, precision_bits: int = 256) -> Interval:
    """Log of the degree-power base 7.6 e^0.46 A^f(n) Pi(n) of O(n, d, A, E)."""
    inner = ((_COEFF_7_6, 1), (EULER, _COEFF_0_46), (A, f_n(n)), *_pi_n(n))
    return log_power_product(inner, precision_bits)


def normalized_O(n: int, d: int, pair: OdlyzkoPair, precision_bits: int = 256) -> Interval:
    """Pi(n)^(-1) O(n, d, A, E), the quantity compared against 1.83:
    7.6^d e^(0.46 d - E f(n)) A^(d f(n)) Pi(n)^(d-1) / 750."""
    A, E = pair
    return power_product(
        ((_COEFF_7_6, d), (EULER, d * _COEFF_0_46 - E * f_n(n)), (A, d * f_n(n)),
         *_pi_n(n, Fraction(d - 1)), (Fraction(750), -1)),
        precision_bits,
    )


def log_differences(A: Fraction, E: Fraction, precision_bits: int = 256) -> Tuple[Interval, ...]:
    """The first and second differences at n = 4 of l(n) = log(c (A e^-E)^f(n) Pi(n)), c > 0.

    With a = log A - E, l(n + 1) - l(n) = (2n + 3/2) a + log (2n + 1)! - (2n + 2) log 2 pi and
    the second difference, 2a + log((2n + 2)(2n + 3)) - 2 log 2 pi, grows with n: where l(4)
    and both are positive, l is positive and increasing at every n >= 4.  The log inner factor
    is such an l for (A, 0), the log normalized bound at degree 2 for (A^2, E).
    """
    return tuple(  # k a + log(m / 2^j) - j log pi = k a + log m - j log 2 pi
        log_power_product(
            ((Fraction(A), k), (EULER, -k * Fraction(E)), (Fraction(m, 2**j), 1), (PI, -j)),
            precision_bits,
        )
        for k, m, j in ((f_n(5) - f_n(4), math.factorial(9), 10), (2, 10 * 11, 2))
    )


# ---------------------------------------------------------------------------
# feasibility conditions on a bound pair


_COND_B_A_LOWER = Fraction(566, 100)


def lemma35_conditions(pair: OdlyzkoPair, precision_bits: int = 256) -> Dict[str, bool]:
    """Certify the three sufficient conditions on (A, E).

    A condition is reported True only when its left side is certainly
    greater; an overlap verdict yields False:

    cond_a: 2 log A - E > log(2 pi) + 1 - log 5 (monotone chain condition)
    cond_b: A > 5.66 (positivity of the inner factor for all ranks)
    cond_c: 2 log A - E > (log 9.47 - log Pi(4)) / f(4) (base case at n=4)
    """
    lhs = log_power_product(((pair.A, 2), (EULER, -pair.E)), precision_bits)
    rhs_a = log_power_product(((Fraction(2, 5), 1), (PI, 1), (EULER, 1)), precision_bits)
    rhs_c = log_power_product(
        ((Fraction(947, 100), 1 / f_n(4)), *_pi_n(4, -1 / f_n(4))), precision_bits
    )
    return {
        "cond_a": iv_compare(lhs, rhs_a) is Comparison.CERTAINLY_GREATER,
        "cond_b": pair.A > _COND_B_A_LOWER,
        "cond_c": iv_compare(lhs, rhs_c) is Comparison.CERTAINLY_GREATER,
    }


# ---------------------------------------------------------------------------
# degree thresholds
#
# Degrees strictly above a threshold are excluded at its rank.  The rank-2
# threshold for (A, E, t) is
#     (log(1/5760) - logXcoeff) / log(eta * A^(4.5 - t/2) * alpha(t+1))
# with logXcoeff = E(t+1)/2 - 5E - log(25 t (t+1)),
#      eta = 3 e^0.46 / (64 pi^6),
#      alpha(s) = pi^(s/2) / (Gamma(s/2) zeta(s)),
# and log eta + log alpha(t + 1) is one factor table.  The rank-3
# threshold's denominator 7.5 log A - 12.99 is one factor table too.


_ETA = ((Fraction(3, 64), 1), (EULER, _COEFF_0_46), (PI, -6))


class _N2Terms(NamedTuple):
    """The parts of the rank-2 threshold that depend on t alone."""

    ln_base: Interval  # log eta + log alpha(t + 1)
    log_A_coeff: Interval  # 4.5 - t/2
    numerator: Interval  # log Psi(2) + log(25 t (t + 1))
    E_coeff: Fraction  # (t + 1)/2 - 5


@lru_cache(maxsize=None)
def _n2_t_terms(t: Fraction, precision_bits: int) -> _N2Terms:
    return _N2Terms(
        log_power_product((*alpha_factors(t + 1), *_ETA), precision_bits),
        Interval.exact(Fraction(9, 2) - t / 2),
        log_power_product(((psi_n_exact(2), 1), (25 * t * (t + 1), 1)), precision_bits),
        (t + 1) / 2 - 5,
    )


def n2_degree_threshold(pair: OdlyzkoPair, t: Fraction, precision_bits: int = 256) -> Interval:
    """Rank-2 degree threshold at one (A, E, t).

    The denominator, the log of the base eta * A^(4.5 - t/2) * alpha(t + 1),
    must be certified positive.
    """
    t = Fraction(t)
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    terms = _n2_t_terms(t, precision_bits)
    log_A = log_power_product(((pair.A, 1),), precision_bits)
    # log Psi(2) - logXcoeff
    numerator = terms.numerator - Interval.exact(pair.E * terms.E_coeff)
    ln_base = terms.ln_base + terms.log_A_coeff * log_A
    return _threshold(numerator, ln_base, precision_bits, (pair.A, pair.E, t))


def n3_degree_threshold(pair: OdlyzkoPair, precision_bits: int = 256) -> Interval:
    """Rank-3 degree threshold (7.5 E - 8.25) / (7.5 log A - 12.99).

    The denominator must be certified positive.
    """
    numerator = Interval.exact(Fraction(15, 2) * pair.E - Fraction(33, 4))
    denominator = log_power_product(
        ((pair.A, Fraction(15, 2)), (EULER, Fraction(-1299, 100))), precision_bits
    )
    return _threshold(numerator, denominator, precision_bits, (pair.A, pair.E))


def _threshold(numerator: Interval, denominator: Interval, precision_bits: int,
               point: tuple) -> Interval:
    """numerator / denominator, rounded outward to precision_bits + 8 bits,
    once the denominator is certified positive at the table point."""
    if denominator.lo <= 0:
        raise DenominatorNotPositive(
            f"threshold denominator not certified positive at {tuple(map(str, point))}"
        )
    return (numerator / denominator).coarsen(precision_bits + 8)


# ---------------------------------------------------------------------------
# discriminant cutoffs


def _proto_multiplier(n: int, d: int) -> int:
    """Power of two entering the refined discriminant cutoff.

    The generic cutoff carries 2^(2d-1).  For n = 2 the sharp unit-index
    bound [U^+ : U^2] <= 2^(d-1) improves it to 2^(d-1); for n = 3 at
    degree 2 the intermediate refinement gives 2^d.
    """
    if n == 2:
        return 1 << (d - 1)
    if n == 3 and d == 2:
        return 1 << d
    return 1 << (2 * d - 1)


def _cutoff(coeff: Fraction, n: int, d: int, exponent: Fraction, precision_bits: int) -> Interval:
    """Enclosure of (coeff Pi(n)^(1-d))^exponent."""
    return power_product(((coeff, exponent), *_pi_n(n, (1 - d) * exponent)), precision_bits)


def proto_D_bound(n: int, d: int, h: int, precision_bits: int = 256) -> Interval:
    """Discriminant cutoff (1.83 m(n,d) h Pi(n)^(1-d))^(1/(n^2+n/2))."""
    if n < 2 or d < 1 or h < 1:
        raise ValueError("need n >= 2, d >= 1, h >= 1")
    coeff = ZETA_PRODUCT_UPPER * _proto_multiplier(n, d) * h
    return _cutoff(coeff, n, d, Fraction(2, n * (2 * n + 1)), precision_bits)


def e046_enclosure(precision_bits: int = 256) -> Interval:
    """e^0.46, which the rank-3 cutoffs replace by ``E_046_LOWER``; that
    only weakens (enlarges) them while e^0.46 exceeds it."""
    return power_product(((EULER, _COEFF_0_46),), precision_bits)


def n3_D_bound(d: int, precision_bits: int = 256) -> Interval:
    """Rank-3 cutoff (750 * 1.83 Pi(3)^(1-d) (7.6 * 1.58)^(-d))^(1/7.5)."""
    if d not in (2, 3):
        raise ValueError("rank-3 cutoff supported for d in {2, 3}")
    coeff = 750 * ZETA_PRODUCT_UPPER * (_COEFF_7_6 * E_046_LOWER) ** (-d)
    return _cutoff(coeff, 3, d, Fraction(2, 15), precision_bits)


def n2_D_bound(d: int, precision_bits: int = 256) -> Interval:
    """Rank-2 cutoff (11 * 0.00019^(-d) / 960)^(1/3.9)."""
    if d not in (2, 3, 4, 5):
        raise ValueError("rank-2 cutoff supported for d in {2, 3, 4, 5}")
    base = Fraction(11, 960) * Fraction(19, 100000) ** (-d)
    return power_product(((base, Fraction(10, 39)),), precision_bits)


# ---------------------------------------------------------------------------
# the vendored bound-pair table


def load_odlyzko_table(path: Optional[str] = None) -> Tuple[OdlyzkoPair, ...]:
    """The (A, E) table at ``path``, by default the vendored ``odlyzko.csv``:
    CSV rows of plain decimals, digits with an optional fraction part and no
    sign or exponent."""
    return load_data_file("odlyzko.csv", path, _table_rows)


_PLAIN_DECIMAL = re.compile(r"[0-9]+(\.[0-9]+)?")


def _table_rows(data: bytes) -> Tuple[OdlyzkoPair, ...]:
    pairs: List[OdlyzkoPair] = []
    for lineno, (A, E) in data_fields(data, ",", 2, MalformedTable):
        for field in (A, E):
            # Fraction alone would also take an exponent and expand it
            # ("1e5000" to 5001 digits), as report._endpoint refuses to
            if not _PLAIN_DECIMAL.fullmatch(field):
                raise MalformedTable(f"line {lineno}: {field!r:.40} is not a plain decimal")
        try:
            pairs.append(OdlyzkoPair(A, E))
        except ValueError as exc:
            raise MalformedTable(f"line {lineno}: {exc}") from exc
    return tuple(pairs)
