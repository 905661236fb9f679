"""Certified enclosures of the transcendental functions the bounds need.

Provides pi, exp, log, sqrt, Gamma, the Riemann and Hurwitz zeta functions,
real Dirichlet L-functions, and the Robbins factorial brackets.  Every
routine returns an :class:`~covcert.rigor.Interval` that provably contains
the exact value: series are truncated with explicit remainder bounds, and
all intermediate arithmetic is outward-rounded.

pi, ln 2, e and exp and log at rational points are summed by fixed-point
kernels: integer series at scale 2^w whose lower bound comes from floor
divisions and whose upper bound comes from ceiling divisions or an ulp
count, so they never take a gcd.  Their results become intervals with
dyadic endpoints; everything built on them (Gamma, Hurwitz zeta, L,
alpha) is exact-rational interval arithmetic.

Each constant has one route.  log pi is the cached point ``_log_pi``, which
Gamma, alpha and the bounds share, and x^e has the one route ``pow_frac``.
Gamma, zeta, L and alpha are evaluated at points only: an interval argument
that is not a point raises ``NotAPoint``.

Point evaluations are memoized through a refinement cache: asking for more
precision re-evaluates the series at a higher working precision and
intersects with the previous enclosure, so increasing precision never widens
any result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Tuple

from .rigor import Interval, coarsen_relative

GUARD_BITS = 16

SUPPORTED_L_MODULI = (5, 8, 12, 13, 17, 21, 24)


class LogOfNonPositive(ValueError):
    """log requested of an interval touching (-inf, 0]."""


class NonPositiveArgument(ValueError):
    """Gamma (or sqrt) requested outside its supported domain."""


class ArgumentNotGreaterThanOne(ValueError):
    """zeta/L requested at or below the abscissa of convergence."""


class UnsupportedModulus(ValueError):
    """Dirichlet L requested for a modulus outside the catalog."""


class NotAPoint(ValueError):
    """A special function was given an interval argument that is not a point."""


def _point(x: Interval) -> Fraction:
    if not x.is_point():
        raise NotAPoint(f"expected a point argument, got {x}")
    return x.lo


# ---------------------------------------------------------------------------
# refinement cache for point enclosures


_POINT_CACHE: Dict[tuple, Tuple[int, Interval]] = {}


def _cached_point(key: tuple, prec: int, compute: Callable[[int], Interval]) -> Interval:
    """Memoized point enclosure with guaranteed refinement nesting.

    ``compute(q)`` must return an enclosure of the same exact real number for
    any working precision q.  A miss computes at the precision asked for,
    never above it.  The cache keeps the narrowest core seen so far
    (intersection of recomputations), so results at higher precision are
    always subsets of results at lower precision.
    """
    needed = prec + GUARD_BITS
    entry = _POINT_CACHE.get(key)
    if entry is None or entry[0] < needed:
        q = max(needed, 128)
        core = compute(q)
        if entry is not None:
            core = core.intersect(entry[1])
        entry = (q, core)
        _POINT_CACHE[key] = entry
    return coarsen_relative(entry[1], prec + 8)


def _clear_point_cache() -> None:
    """Test hook: reset memoized enclosures."""
    _POINT_CACHE.clear()


# ---------------------------------------------------------------------------
# Bernoulli numbers and exact even zeta values


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def zeta_even_exact(j: int) -> Fraction:
    """Exact rational c with zeta(2j) = c * pi^(2j)."""
    if not 1 <= j <= 64:
        raise ValueError("zeta_even_exact supports 1 <= j <= 64")
    k = 2 * j
    c = (-1) ** (j + 1) * bernoulli_number(k) * Fraction(2 ** (k - 1), math.factorial(k))
    return Fraction(c)


# ---------------------------------------------------------------------------
# fixed-point kernels
#
# Each kernel works on integers at scale 2^w and returns (lo, hi) with
# lo <= 2^w * v <= hi for the exact value v.  Lower bounds come from floor
# divisions and upper bounds from ceiling divisions (or from an ulp count),
# so no rounding goes unaccounted and no gcd is ever taken.


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _dyadic(lo: int, hi: int, w: int) -> Interval:
    return Interval(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


def _exp_kernel(p: int, d: int, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * exp(p/d) for |p/d| <= 1 and d > 0."""
    if p < 0:
        # e^-x = 1/e^x: dividing 2^2w by an upper bound gives a lower bound
        lo, hi = _exp_kernel(-p, d, w)
        return (1 << 2 * w) // hi, _ceil_div(1 << 2 * w, lo)
    # floor chain t_k <= 2^w f^k / k! from x_lo <= 2^w f, ceiling chain above it
    x_lo, x_hi = (p << w) // d, _ceil_div(p << w, d)
    lo = hi = t_lo = t_hi = 1 << w
    k = 0
    while True:
        k += 1
        t_lo = (t_lo * x_lo >> w) // k
        t_hi = _ceil_div(t_hi * x_hi, k << w)
        if t_hi <= 1:
            # f/(j+1) <= 1/2 for j >= k, so the tail from term k on is <= 2 t_hi
            return lo + t_lo, hi + 2 * t_hi
        lo += t_lo
        hi += t_hi


def _atanh_kernel(p: int, d: int, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * atanh(p/d) for |p/d| <= 1/3 and d > 0."""
    if p < 0:
        lo, hi = _atanh_kernel(-p, d, w)  # atanh is odd
        return -hi, -lo
    # floor chain of the powers u^(2j+1) from x_lo <= 2^w u, ceiling chain above
    x_lo, x_hi = (p << w) // d, _ceil_div(p << w, d)
    sq_lo, sq_hi = x_lo * x_lo >> w, _ceil_div(x_hi * x_hi, 1 << w)
    lo = pw_lo = x_lo
    hi = pw_hi = x_hi
    j = 0
    while True:
        j += 1
        pw_lo = pw_lo * sq_lo >> w
        pw_hi = _ceil_div(pw_hi * sq_hi, 1 << w)
        t_hi = _ceil_div(pw_hi, 2 * j + 1)
        if t_hi <= 1:
            # u^2 <= 1/9, so the tail from term j on is <= t_hi / (1 - 1/9) <= 2 t_hi
            return lo + pw_lo // (2 * j + 1), hi + 2 * t_hi
        lo += pw_lo // (2 * j + 1)
        hi += t_hi


def _arccot_kernel(c: int, x: int, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * c * arctan(1/x) for integers c >= 1 and x >= 2."""
    x_sq = x * x
    power = (c << w) // x  # floor(2^w c / x^(2k+1)), an exact floor at every k
    acc = k = 0
    while power:
        term = power // (2 * k + 1)
        acc += -term if k & 1 else term
        k += 1
        power //= x_sq
    # each of the k floored terms is off by less than one ulp, and the
    # alternating remainder is below the first omitted term, itself < 1 ulp
    return acc - k - 1, acc + k + 1


def _pi_kernel(w: int) -> Tuple[int, int]:
    """Bounds on 2^w * pi from Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    lo5, hi5 = _arccot_kernel(16, 5, w)
    lo239, hi239 = _arccot_kernel(4, 239, w)
    return lo5 - hi239, hi5 - lo239


def _log_kernel(num: int, den: int, w: int) -> Tuple[int, int, int]:
    """k and bounds on 2^w * log(m) for num/den = 2^k m, m in [2/3, 4/3]."""
    k = num.bit_length() - den.bit_length()
    a, b = (num, den << k) if k >= 0 else (num << -k, den)  # m = a/b in (1/2, 2)
    if 3 * a > 4 * b:
        k += 1
        b <<= 1
    elif 3 * a < 2 * b:
        k -= 1
        a <<= 1
    # log m = 2 atanh(u) with u = (m - 1)/(m + 1) in [-1/5, 1/7]
    lo, hi = _atanh_kernel(a - b, a + b, w)
    return k, 2 * lo, 2 * hi


# ---------------------------------------------------------------------------
# pi, ln 2, e


def pi_enclosure(precision_bits: int) -> Interval:
    """Interval containing pi, width <= 2^(-precision_bits + 4)."""
    if precision_bits < 16:
        raise ValueError("precision_bits must be >= 16")

    def compute(q: int) -> Interval:
        work = q + 32
        return _dyadic(*_pi_kernel(work), work).coarsen(q + 8)

    return _cached_point(("pi",), precision_bits, compute)


def _ln2(prec: int) -> Interval:
    def compute(q: int) -> Interval:
        work = q + 32
        lo, hi = _atanh_kernel(1, 3, work)  # ln 2 = 2 atanh(1/3)
        return _dyadic(2 * lo, 2 * hi, work)

    return _cached_point(("ln2",), prec, compute)


def _euler_e(prec: int) -> Interval:
    def compute(q: int) -> Interval:
        work = q + 32
        return _dyadic(*_exp_kernel(1, 1, work), work)

    return _cached_point(("e",), prec, compute)


# ---------------------------------------------------------------------------
# exp and log at rational points


def _exp_point(r: Fraction, prec: int) -> Interval:
    def compute(q: int) -> Interval:
        work = q + 32
        n = (2 * r.numerator + r.denominator) // (2 * r.denominator)  # round
        # e^r = e^f e^n with f = r - n in [-1/2, 1/2]
        lo, hi = _exp_kernel(r.numerator - n * r.denominator, r.denominator, work)
        acc = _dyadic(lo, hi, work)
        if n != 0:
            acc = acc * _euler_e(q).pow_int(int(n))
        return coarsen_relative(acc, q + 8)

    return _cached_point(("exp", r), prec, compute)


def _log_point(r: Fraction, prec: int) -> Interval:
    if r <= 0:
        raise LogOfNonPositive(f"log of non-positive point {r}")

    def compute(q: int) -> Interval:
        work = q + 32
        k, lo, hi = _log_kernel(r.numerator, r.denominator, work)
        result = _dyadic(lo, hi, work)
        if k != 0:
            result = result + Interval.exact(k) * _ln2(q)
        return result.coarsen(q + 8)

    return _cached_point(("log", r), prec, compute)


def exp_enclosure(x: Interval, precision_bits: int = 256) -> Interval:
    lo = _exp_point(x.lo, precision_bits)
    hi = lo if x.is_point() else _exp_point(x.hi, precision_bits)
    return Interval(lo.lo, hi.hi)


def log_enclosure(x: Interval, precision_bits: int = 256) -> Interval:
    if x.lo <= 0:
        raise LogOfNonPositive(f"log of interval {x} touching zero")
    lo = _log_point(x.lo, precision_bits)
    hi = lo if x.is_point() else _log_point(x.hi, precision_bits)
    return Interval(lo.lo, hi.hi)


def _log_pi(prec: int) -> Interval:
    """log pi, the one route every caller shares."""

    def compute(q: int) -> Interval:
        # log is increasing, so the logs of pi's kernel bounds bracket log pi;
        # both reduce to m = pi/4 in [2/3, 4/3] with k = 2.  ln 2 is asked
        # for at q, as in _log_point, so both share one cached ln 2.
        work = q + 32
        pi_lo, pi_hi = _pi_kernel(work)
        _, lo, _ = _log_kernel(pi_lo, 1 << work, work)
        _, _, hi = _log_kernel(pi_hi, 1 << work, work)
        return (_dyadic(lo, hi, work) + Interval.exact(2) * _ln2(q)).coarsen(q + 8)

    return _cached_point(("log", "pi"), prec, compute)


def _sqrt_point_lo(r: Fraction, bits: int) -> Fraction:
    scale = 1 << (2 * bits)
    s = math.isqrt(r.numerator * scale // r.denominator)
    return Fraction(s, 1 << bits)


def sqrt_enclosure(x: Interval, precision_bits: int = 256) -> Interval:
    """Outward enclosure of sqrt over a nonnegative interval."""
    if x.lo < 0:
        raise NonPositiveArgument(f"sqrt of interval {x} with negative part")
    bits = precision_bits + GUARD_BITS
    lo = _sqrt_point_lo(x.lo, bits)
    hi = _sqrt_point_lo(x.hi, bits) + Fraction(2, 1 << bits)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Gamma via the Stirling series


_STIRLING_TERMS = 10
_STIRLING_SHIFT_TARGET = 8


def _lngamma_point(x: Fraction, prec: int) -> Interval:
    if x <= 0:
        raise NonPositiveArgument(f"lngamma of non-positive point {x}")

    def compute(q: int) -> Interval:
        shift = 0
        y = x
        while y < _STIRLING_SHIFT_TARGET:
            y += 1
            shift += 1
        ln_y = _log_point(y, q)
        ln_2pi = _log_point(Fraction(2), q) + _log_pi(q)
        y_iv = Interval.exact(y)
        acc = (y_iv - Interval.exact(Fraction(1, 2))) * ln_y - y_iv
        acc = acc + Interval(ln_2pi.lo / 2, ln_2pi.hi / 2)
        for k in range(1, _STIRLING_TERMS + 1):
            coeff = bernoulli_number(2 * k) / Fraction((2 * k) * (2 * k - 1))
            acc = acc + Interval.exact(coeff / y ** (2 * k - 1))
        # remainder of the real-argument Stirling series is bounded by the
        # magnitude of the first omitted term
        k = _STIRLING_TERMS + 1
        rem = abs(bernoulli_number(2 * k)) / Fraction((2 * k) * (2 * k - 1)) / y ** (2 * k - 1)
        acc = acc + Interval(-rem, rem)
        for i in range(shift):
            acc = acc - _log_point(x + i, q)
        return acc.coarsen(q + 8)

    return _cached_point(("lngamma", x), prec, compute)


def gamma_enclosure(x: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of Gamma at a positive point."""
    return exp_enclosure(_lngamma_point(_point(x), precision_bits), precision_bits)


# ---------------------------------------------------------------------------
# rational powers


def pow_frac(x: Interval, exponent: Fraction, precision_bits: int = 256) -> Interval:
    """Enclosure of x**exponent for a positive interval x."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return x.pow_int(int(exponent))
    if x.lo <= 0:
        raise NonPositiveArgument(f"fractional power of {x} touching zero")
    return exp_enclosure(
        Interval.exact(exponent) * log_enclosure(x, precision_bits), precision_bits
    )


# ---------------------------------------------------------------------------
# Hurwitz/Riemann zeta via Euler-Maclaurin


_EM_CORRECTION_TERMS = 10


def _pochhammer(s: Fraction, length: int) -> Fraction:
    acc = Fraction(1)
    for i in range(length):
        acc *= s + i
    return acc


def _hurwitz_point(s: Fraction, a: Fraction, prec: int) -> Interval:
    """Hurwitz zeta(s, a) for rational s > 1 and 0 < a <= 1."""

    def compute(q: int) -> Interval:
        m = _EM_CORRECTION_TERMS
        n_cut = 28 if q <= 350 else 48
        acc = Interval.exact(0)
        for k in range(n_cut):
            acc = acc + pow_frac(Interval.exact(k + a), -s, q)
            acc = acc.coarsen(q + 32)
        edge = n_cut + a
        edge_pow = pow_frac(Interval.exact(edge), -s, q)  # edge^(-s)
        acc = acc + edge_pow * Interval.exact(edge) / Interval.exact(s - 1)
        acc = acc + Interval(edge_pow.lo / 2, edge_pow.hi / 2)
        inv_edge = Fraction(1) / edge
        for j in range(1, m + 1):
            coeff = (
                bernoulli_number(2 * j)
                / Fraction(math.factorial(2 * j))
                * _pochhammer(s, 2 * j - 1)
                * inv_edge ** (2 * j - 1)
            )
            acc = acc + edge_pow * Interval.exact(coeff)
            acc = acc.coarsen(q + 32)
        # remainder: |R| <= 2.6 (s)_(2m+1) (2 pi)^(-(2m+1)) edge^(-s-2m) / (s+2m)
        # from the periodic-Bernoulli integral form of the remainder
        pi_lo = pi_enclosure(64).lo
        rem_coeff = (
            Fraction(26, 10)
            * _pochhammer(s, 2 * m + 1)
            / (2 * pi_lo) ** (2 * m + 1)
            * inv_edge ** (2 * m)
            / (s + 2 * m)
        )
        rem = rem_coeff * max(abs(edge_pow.lo), abs(edge_pow.hi))
        acc = acc + Interval(-rem, rem)
        return acc.coarsen(q + 8)

    return _cached_point(("hurwitz", s, a), prec, compute)


def zeta_real_enclosure(s: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of the Riemann zeta function at a point s > 1."""
    sp = _point(s)
    if sp <= 1:
        raise ArgumentNotGreaterThanOne(f"zeta requested at {s}")
    return _hurwitz_point(sp, Fraction(1), precision_bits)


# ---------------------------------------------------------------------------
# Dirichlet characters and L-functions


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out twos from n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def dirichlet_character(D: int, k: int) -> int:
    """Real primitive character mod D (fundamental discriminant D > 0)."""
    return kronecker_symbol(D, k)


def dirichlet_L_enclosure(D: int, s: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of L(s, chi_D) at a point s > 1 for catalog moduli, via Hurwitz zeta."""
    if D not in SUPPORTED_L_MODULI:
        raise UnsupportedModulus(f"modulus {D} not supported")
    sp = _point(s)
    if sp <= 1:
        raise ArgumentNotGreaterThanOne(f"L requested at {s}")
    acc = Interval.exact(0)
    for a in range(1, D + 1):
        chi = dirichlet_character(D, a)
        if chi == 0:
            continue
        term = _hurwitz_point(sp, Fraction(a, D), precision_bits)
        acc = acc + (term if chi == 1 else -term)
    d_pow = pow_frac(Interval.exact(D), -sp, precision_bits + GUARD_BITS)
    return (acc * d_pow).coarsen(precision_bits + 8)


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for i in range(n + 1):
        acc += math.comb(n, i) * bernoulli_number(i) * x ** (n - i)
    return acc


def generalized_bernoulli(D: int, n: int) -> Fraction:
    """Generalized Bernoulli number B_(n, chi_D) for fundamental D > 0."""
    acc = Fraction(0)
    for a in range(1, D + 1):
        chi = dirichlet_character(D, a)
        if chi:
            acc += chi * bernoulli_polynomial(n, Fraction(a, D))
    return Fraction(D) ** (n - 1) * acc


def dirichlet_L_even_coeff(D: int, j: int) -> Fraction:
    """Exact rational c with L(2j, chi_D) = c * pi^(2j) * sqrt(D).

    Closed form for real primitive even characters at positive even
    integers, via generalized Bernoulli numbers.
    """
    if D not in SUPPORTED_L_MODULI:
        raise UnsupportedModulus(f"modulus {D} not supported")
    k = 2 * j
    b = generalized_bernoulli(D, k)
    sign = (-1) ** (1 + j)
    return Fraction(sign * 2**k, D**k) * b / (2 * math.factorial(k))


# ---------------------------------------------------------------------------
# alpha and the Robbins brackets


def alpha_enclosure(s: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of pi^(s/2) / (Gamma(s/2) zeta(s)) at a point s > 1."""
    sp = _point(s)
    if sp <= 1:
        raise ArgumentNotGreaterThanOne(f"alpha requested at {s}")
    half = Interval.exact(sp / 2)
    numerator = exp_enclosure(half * _log_pi(precision_bits), precision_bits)
    denom = gamma_enclosure(half, precision_bits) * zeta_real_enclosure(s, precision_bits)
    return (numerator / denom).coarsen(precision_bits + 8)


def stirling_bounds(n: int, precision_bits: int = 256) -> Tuple[Interval, Interval]:
    """Robbins brackets: sqrt(2 pi n) (n/e)^n e^(1/(12n+1)) < n! < ... e^(1/12n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pi_iv = pi_enclosure(precision_bits)
    root = sqrt_enclosure(Interval.exact(2 * n) * pi_iv, precision_bits)
    e_iv = _euler_e(precision_bits)
    core = root * Interval.exact(Fraction(n) ** n) / e_iv.pow_int(n)
    lower = core * _exp_point(Fraction(1, 12 * n + 1), precision_bits)
    upper = core * _exp_point(Fraction(1, 12 * n), precision_bits)
    return lower.coarsen(precision_bits + 8), upper.coarsen(precision_bits + 8)
