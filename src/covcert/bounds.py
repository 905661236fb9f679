"""Global covolume bounds and discriminant cutoffs.

Implements the reference covolume constants, the exact global-stage
quotient Psi(n) / S(Lambda), the high-rank lower bound on the covolume,
the three feasibility conditions on a bound pair (A, E), the rank-2 and
rank-3 degree thresholds, and the various discriminant cutoff formulas used
to enumerate candidate fields.

Each constant has one route.  Psi(n) = Pi(n) prod_{j<=n} zeta(2j) is only
ever the exact rational ``psi_n_exact``, from the Bernoulli closed form of
zeta(2j).  Pi(n) is only ever its logarithm ``_log_pi_n``: the high-rank
bound, the discriminant cutoffs and the infinite zeta product are sums of
point logarithms, exponentiated where the value itself is compared.  log pi
is the one cached point ``specfun._log_pi``.  Each public entry of a
logarithm chain adds ``_LOG_GUARD_BITS`` once and calls private helpers that
add none: a cached point asked for more bits than it holds is recomputed at
the precision asked for, so nested entries that each added guard bits would
recompute ln 2 and log pi once per nesting level within one proof.

All decimal constants appearing in the formulas are stored as exact
rationals; printed decimal values in certificates are reporting artifacts
only and never feed back into a comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from .report import MAX_RANK, InputError
from .rigor import Comparison, Interval, Rational, coarsen_relative, iv_compare
from .numberfields import (
    NumberFieldRecord,
    data_dir,
    data_fields,
    dedekind_zeta_exact_coeff,
    read_data_file,
)
from .specfun import (
    _dyadic,
    _least_prime_factors,
    _log_fixed,
    _log_pi,
    _log_point,
    alpha_enclosure,
    exp_enclosure,
    log_enclosure,
    pow_frac,
    zeta_even_exact,
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
    if not 2 <= n <= MAX_RANK:
        raise ValueError(f"rank out of supported range [2, {MAX_RANK}]")
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


ZETA_PRODUCT_UPPER = Fraction(183, 100)


def _prime_powers(limit: int) -> List[Tuple[int, int]]:
    """(m, k) for every prime power m = p^k <= limit."""
    least = _least_prime_factors(limit)
    powers = []
    for p in [m for m in range(2, limit + 1) if least[m] == m]:
        m, k = p, 1
        while m <= limit:
            powers.append((m, k))
            m, k = m * p, k + 1
    return powers


def _prime_power_cutoff(J: int, w: int) -> int:
    """An M, about 2^(w/(2J+1)), with M^-(2J+1) / ((2J+1)(1 - M^-2)) <= 2^-w."""
    a = 2 * J + 1
    M = max(2, int(2.0 ** (w / a)))
    while a * (M**a - M ** (a - 2)) < 1 << w:
        M += 1
    return M


def _log_zeta_tail(J: int, w: int) -> Interval:
    """Enclosure of sum_{j>J} log zeta(2j), to within about 2^-w.

    By the Euler product the sum is sum_{m = p^k} (1/k) / (m^(2J) (m^2 - 1)),
    summed here over the prime powers m <= M = ``_prime_power_cutoff(J, w)``;
    the omitted m > M add at most M^-(2J+1) / ((2J+1)(1 - M^-2)).
    """
    M = _prime_power_cutoff(J, w)
    terms = _prime_powers(M)
    scale = w + len(terms).bit_length()  # each term below is off by under one ulp
    lo = hi = 0
    for m, k in terms:
        q, r = divmod(1 << scale, k * m ** (2 * J) * (m * m - 1))
        lo += q
        hi += q + (r != 0)
    a = 2 * J + 1
    hi += -(-(1 << scale) // (a * (M**a - M ** (a - 2))))  # the omitted prime powers
    return Interval(Fraction(lo, 1 << scale), Fraction(hi, 1 << scale))


def zeta_product_enclosure(precision_bits: int = 256) -> Interval:
    """Enclosure of the infinite product prod_{j>=1} zeta(2j).

    The first J = ceil((p + 8)/24) factors, at p = precision_bits, are the
    exact c pi^(J(J+1)); the logarithm of the rest is ``_log_zeta_tail``,
    summed to 2^-(p + 24).  This J keeps its prime-power cut-off below 2^14
    at every p >= 16.  The product is the exponential of the sum of these
    logarithms.
    """
    J = -(-(precision_bits + 8) // 24)
    num = den = 1
    for j in range(1, J + 1):
        c = zeta_even_exact(j)
        num *= c.numerator
        den *= c.denominator
    work = precision_bits + _LOG_GUARD_BITS
    w = work + 32  # c = num/den, unreduced: its gcd would cost more than its log
    log_product = (
        _dyadic(*_log_fixed(num, den, w), w)
        + Interval.exact(J * (J + 1)) * _log_pi(work)
        + _log_zeta_tail(J, work + 8)
    )
    return exp_enclosure(log_product, work).coarsen(precision_bits + 8)


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
    """Quotient rescaled by unit_index / 2^(2d-1).

    The model lattice's covolume carries a factor 2^(2d-1) / [U^+ : U^2];
    values below 1 certify that the field cannot beat the rational lattice.
    """
    scale = Fraction(unit_index, 1 << (2 * field.degree - 1))
    return s_lambda_quotient(field, n) * Interval.exact(scale)


# ---------------------------------------------------------------------------
# the high-rank lower bound, in logarithms
#
# Pi(n) and O(n, d, A, E) = (1/750) e^(-E f(n)) (7.6 e^0.46 A^f(n) Pi(n))^d
# reach ~10^2721 and ~10^8299 at rank 64 and d = 2, so the proof only handles
# their logarithms: short sums of point logarithms, evaluated with guard bits
# that absorb the multipliers n(n+1) and f(n).  The public functions add the
# guard bits once; the private helpers take the working precision as given.


_COEFF_7_6 = Fraction(38, 5)
_COEFF_0_46 = Fraction(46, 100)
_LOG_GUARD_BITS = 16


def _log_pi_n(n: int, work: int) -> Interval:
    return _log_point(pi_n_coefficient(n), work) - Interval.exact(n * (n + 1)) * _log_pi(work)


def _log_inner(n: int, A: Rational, work: int) -> Interval:
    return (
        _log_point(_COEFF_7_6, work)
        + Interval.exact(_COEFF_0_46)
        + Interval.exact(f_n(n)) * _log_point(A, work)
        + _log_pi_n(n, work)
    )


def log_inner_factor(n: int, A: Rational, precision_bits: int = 256) -> Interval:
    """Log of the degree-power base 7.6 e^0.46 A^f(n) Pi(n) of O(n, d, A, E)."""
    work = precision_bits + _LOG_GUARD_BITS
    return coarsen_relative(_log_inner(n, A, work), precision_bits + 8)


def log_normalized_O(
    n: int, d: int, pair: OdlyzkoPair, precision_bits: int = 256
) -> Interval:
    """Log of Pi(n)^(-1) O(n, d, A, E), the quantity compared against log 1.83."""
    work = precision_bits + _LOG_GUARD_BITS
    return coarsen_relative(
        Interval.exact(-pair.E * f_n(n))
        - _log_point(Fraction(750), work)
        + Interval.exact(d) * _log_inner(n, pair.A, work)
        - _log_pi_n(n, work),
        precision_bits + 8,
    )


# ---------------------------------------------------------------------------
# feasibility conditions on a bound pair


def lemma35_comparisons(
    pair: OdlyzkoPair, precision_bits: int = 256
) -> Dict[str, Tuple[Interval, Interval]]:
    """Both sides of the three sufficient conditions on (A, E).

    Each condition holds when its left side is certainly greater:

    cond_a: 2 log A - E > log(2 pi) + 1 - log 5 (monotone chain condition)
    cond_b: A > 5.66 (positivity of the inner factor for all ranks)
    cond_c: -E + 2 log A > (log 9.47 - log Pi(4)) / f(4) (base case at n=4)
    """
    work = precision_bits + _LOG_GUARD_BITS
    log_A = _log_point(pair.A, work)
    log_2pi = _log_point(Fraction(2), work) + _log_pi(work)
    lhs_a = Interval.exact(2) * log_A - Interval.exact(pair.E)
    rhs_a = log_2pi + Interval.exact(1) - _log_point(Fraction(5), work)
    log_947 = _log_point(Fraction(947, 100), work)
    rhs_c = (log_947 - _log_pi_n(4, work)) / Interval.exact(f_n(4))
    lhs_c = Interval.exact(-pair.E) + Interval.exact(2) * log_A
    return {
        "cond_a": (lhs_a, rhs_a),
        "cond_b": (Interval.exact(pair.A), Interval.exact(Fraction(566, 100))),
        "cond_c": (lhs_c, rhs_c),
    }


def lemma35_conditions(
    pair: OdlyzkoPair, precision_bits: int = 256
) -> Dict[str, bool]:
    """Certify the three sufficient conditions on (A, E).

    A condition is reported True only when the interval comparison is
    certain; an overlap verdict yields False.
    """
    return {
        name: iv_compare(lhs, rhs) is Comparison.CERTAINLY_GREATER
        for name, (lhs, rhs) in lemma35_comparisons(pair, precision_bits).items()
    }


# ---------------------------------------------------------------------------
# degree thresholds
#
# Degrees strictly above a threshold are excluded at its rank.  The rank-2
# threshold for (A, E, t) is
#     (log(1/5760) - logXcoeff) / log(eta * A^(4.5 - t/2) * alpha(t+1))
# with logXcoeff = E(t+1)/2 - 5E - log(25 t (t+1)),
#      eta = 3 e^0.46 / (64 pi^6),
#      alpha(s) = pi^(s/2) / (Gamma(s/2) zeta(s)).
# Both thresholds take log A through the one cached point ``_log_point``.


def _ln_eta(precision_bits: int) -> Interval:
    """log eta = log(3/64) + 0.46 - 6 log pi."""
    return (
        _log_point(Fraction(3, 64), precision_bits)
        + Interval.exact(_COEFF_0_46)
        - Interval.exact(6) * _log_pi(precision_bits)
    )


class _N2Terms(NamedTuple):
    """The parts of the rank-2 threshold that depend on t alone."""

    ln_base: Interval  # log eta + log alpha(t + 1)
    log_A_coeff: Interval  # 4.5 - t/2
    numerator: Interval  # log Psi(2) + log(25 t (t + 1))
    E_coeff: Fraction  # (t + 1)/2 - 5


@lru_cache(maxsize=None)
def _n2_t_terms(t: Fraction, precision_bits: int) -> _N2Terms:
    ln_alpha = log_enclosure(
        alpha_enclosure(Interval.exact(t + 1), precision_bits), precision_bits
    )
    return _N2Terms(
        _ln_eta(precision_bits) + ln_alpha,
        Interval.exact(Fraction(9, 2) - t / 2),
        _log_point(psi_n_exact(2), precision_bits)
        + _log_point(25 * t * (t + 1), precision_bits),
        (t + 1) / 2 - 5,
    )


def n2_degree_threshold(
    pair: OdlyzkoPair, t: Rational, precision_bits: int = 256
) -> Interval:
    """Rank-2 degree threshold at one (A, E, t).

    The denominator, the log of the base eta * A^(4.5 - t/2) * alpha(t + 1),
    must be certified positive.
    """
    t = Fraction(t)
    if t <= 0:
        raise NonPositiveT(f"t must be positive, got {t}")
    terms = _n2_t_terms(t, precision_bits)
    ln_base = terms.ln_base + terms.log_A_coeff * _log_point(pair.A, precision_bits)
    if ln_base.lo > 0:  # rounding cannot make a non-positive bound positive
        ln_base = ln_base.coarsen(precision_bits + 8)
    if ln_base.lo <= 0:
        raise DenominatorNotPositive(
            f"threshold base not certified > 1 at (A, E, t) = "
            f"({pair.A}, {pair.E}, {t})"
        )
    # log Psi(2) - logXcoeff
    numerator = terms.numerator - Interval.exact(pair.E * terms.E_coeff)
    return (numerator / ln_base).coarsen(precision_bits + 8)


def n3_degree_threshold(pair: OdlyzkoPair, precision_bits: int = 256) -> Interval:
    """Rank-3 degree threshold (7.5 E - 8.25) / (7.5 log A - 12.99).

    The denominator must be certified positive.
    """
    log_A = _log_point(pair.A, precision_bits)
    denom = Interval.exact(Fraction(15, 2)) * log_A - Interval.exact(
        Fraction(1299, 100)
    )
    if denom.lo <= 0:
        raise DenominatorNotPositive(
            f"7.5 log A - 12.99 not certified positive at A = {pair.A}"
        )
    numer = Interval.exact(Fraction(15, 2) * pair.E - Fraction(33, 4))
    return (numer / denom).coarsen(precision_bits + 8)


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


def _cutoff(
    coeff: Fraction, n: int, d: int, exponent: Fraction, precision_bits: int
) -> Interval:
    """Enclosure of (coeff Pi(n)^(1-d))^exponent, evaluated in logarithms."""
    work = precision_bits + _LOG_GUARD_BITS
    log_base = _log_point(coeff, work) + Interval.exact(1 - d) * _log_pi_n(n, work)
    return exp_enclosure(Interval.exact(exponent) * log_base, work).coarsen(
        precision_bits + 8
    )


def proto_D_bound(n: int, d: int, h: int, precision_bits: int = 256) -> Interval:
    """Discriminant cutoff (1.83 m(n,d) h Pi(n)^(1-d))^(1/(n^2+n/2))."""
    if n < 2 or d < 1 or h < 1:
        raise ValueError("need n >= 2, d >= 1, h >= 1")
    coeff = ZETA_PRODUCT_UPPER * _proto_multiplier(n, d) * h
    return _cutoff(coeff, n, d, Fraction(2, n * (2 * n + 1)), precision_bits)


# rational lower bound for e^0.46 used in the rank-3 cutoff; a smaller
# denominator there only weakens (enlarges) the cutoff, keeping it valid
_E_046_LOWER = Fraction(158, 100)


def e046_lower_sides(precision_bits: int = 256) -> Tuple[Interval, Interval]:
    """Both sides of e^0.46 > 1.58, the premise ``n3_D_bound`` rests on."""
    return (
        exp_enclosure(Interval.exact(_COEFF_0_46), precision_bits),
        Interval.exact(_E_046_LOWER),
    )


def n3_D_bound(d: int, precision_bits: int = 256) -> Interval:
    """Rank-3 cutoff (1372.5 Pi(3)^(1-d) (7.6 * 1.58)^(-d))^(1/7.5)."""
    if d not in (2, 3):
        raise ValueError("rank-3 cutoff supported for d in {2, 3}")
    coeff = Fraction(27450, 20) * (_COEFF_7_6 * _E_046_LOWER) ** (-d)
    return _cutoff(coeff, 3, d, Fraction(2, 15), precision_bits)


def n2_D_bound(d: int, precision_bits: int = 256) -> Interval:
    """Rank-2 cutoff (11 * 0.00019^(-d) / 960)^(1/3.9)."""
    if d not in (2, 3, 4, 5):
        raise ValueError("rank-2 cutoff supported for d in {2, 3, 4, 5}")
    base = Fraction(11, 960) * Fraction(19, 100000) ** (-d)
    return pow_frac(
        Interval.exact(base), Fraction(10, 39), precision_bits
    ).coarsen(precision_bits + 8)


# ---------------------------------------------------------------------------
# the vendored bound-pair table


def load_odlyzko_table(path: Optional[str] = None) -> Tuple[OdlyzkoPair, ...]:
    """The (A, E) table at ``path``, by default ``odlyzko.csv`` of the data
    directory: CSV rows of exact decimal strings."""
    p = Path(path) if path else data_dir() / "odlyzko.csv"
    return _table_at(p.resolve())


@lru_cache(maxsize=4)
def _table_at(path: Path) -> Tuple[OdlyzkoPair, ...]:
    # keyed on the resolved path, as numberfields._catalog_at; a file that
    # fails to load raises again on the next call, since errors are not cached
    pairs: List[OdlyzkoPair] = []
    for lineno, (A, E) in data_fields(read_data_file(path), ",", 2, MalformedTable):
        try:
            pairs.append(OdlyzkoPair(Fraction(A), Fraction(E)))
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedTable(f"line {lineno}: {exc}") from exc
    return tuple(pairs)
