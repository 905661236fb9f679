"""Certified enclosures of the transcendental functions the bounds need.

Provides pi, exp, log, sqrt, Gamma, the Riemann zeta function, real
Dirichlet L-functions, and the Robbins factorial brackets.  Every
routine returns an :class:`~covcert.rigor.Interval` that provably contains
the exact value: series are truncated with explicit remainder bounds, and
all intermediate arithmetic is outward-rounded.

Every point value is summed by a fixed-point kernel: integer arithmetic at
scale 2^w whose lower bound comes from floor divisions and whose upper bound
comes from ceiling divisions or an ulp count, so it never takes a gcd.  The
kernels cover pi, ln 2, exp and log, power products, log Gamma by the
Stirling series, zeta and L(s, chi_D) by one Euler-Maclaurin kernel of
the Dirichlet series, whose terms m^-s take a power kernel only at the
primes, and the log of prod_{j>=1} zeta(2j) by its first factors' closed
form and a prime-power sum for the rest; every series length, shift and
cut-off follows from w.  Their results become intervals with dyadic endpoints.

A factor table is a tuple of pairs (x, c) of a base x and a rational
exponent c.  A base is a positive Fraction, ``PI``, ``EULER`` (e),
``GAMMA(x)``, ``L(D, s)``, whose D = 1 case is ``ZETA(s)``, or
``ZETA_PRODUCT``, prod_{j>=1} zeta(2j).  ``power_product`` and
``log_power_product`` enclose prod x^c and sum c log x as cached points of
one core, which sums c log x from a memo of each base's log, runs one exp
series for the product, and chooses every guard bit itself.  pi, Gamma,
zeta, L, alpha and the zeta product are tables; so are exp, log and x^e at
a rational point, ((e, r),), ((r, 1),) and ((x, e),).
Gamma, zeta, L and alpha are evaluated at points only: an interval argument
that is not a point raises ``NotAPoint``.

Point evaluations are memoized by ``_cached_point``, whose value for a
point depends only on the point and the precision asked for, never on what
was asked before.  A miss runs the point's kernel once, at 32 bits above
its rung: the first multiple of 32 at or above the precision plus
``GUARD_BITS``, and at least 128.  It widens the bracket by 2^-rung of its
magnitude and then rounds it outward to the precision asked for.  Rungs lie
at least 32 bits apart, so each rung's enclosure holds the narrower one of
every higher rung, and asking for more precision never widens a result,
whatever the order of the requests.

Precision is relative to a point's magnitude.  A log sum with a rational
base near 1, a base Gamma(x) near lnGamma's zeros at 1 and 2, or a base
L(D, s) near 1, runs at as many more bits as the value loses, fixed before
the kernel runs; terms of a log sum that cancel leave only absolute
precision, as an interval sum would.
lnGamma(1) = lnGamma(2) = 0 are exact zeros, with no relative precision:
their enclosure is a bracket a few units of 2^-w wide around 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, List, Tuple

from .rigor import Interval, coarsen_relative

GUARD_BITS = 16

SUPPORTED_L_MODULI = (5, 8, 12, 13, 17, 21, 24)


class LogOfNonPositive(ValueError):
    """log requested of a non-positive rational base."""


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
# the point cache


_POINT_CACHE: Dict[Tuple[tuple, int], Interval] = {}


def _cached_point(key: tuple, prec: int, compute: Callable[[int], tuple]) -> Interval:
    """The enclosure of the point ``key`` to ``prec`` bits, memoized per (key, prec).

    ``compute(w)`` is the bare kernel of the point's exact value v: integers
    (n, lo, hi) with 2^n lo <= 2^w v <= 2^n hi.  A miss runs it once, at
    w = rung + 32, where the rung is the first multiple of 32 at or above
    prec + GUARD_BITS and at least 128.  The bracket is widened by 2^-rung
    of its magnitude, and by at least one unit, cut to rung + 8 bits, and
    rounded outward to prec + 8 relative bits.

    The result depends on (key, prec) alone, and results nest: a bracket at
    a higher rung, 32 or more bits up, is narrower than the widening of every
    lower rung, so the enclosures of the rungs shrink as the rung grows, and
    their roundings to a finer grid shrink with them.
    """
    view = _POINT_CACHE.get((key, prec))
    if view is None:
        rung = max(-(-(prec + GUARD_BITS) // 32) * 32, 128)
        work = rung + 32
        n, lo, hi = compute(work)
        magnitude = max(-lo, hi)
        pad = _ceil_shift(magnitude, rung)
        cut = max(magnitude.bit_length() - rung - 8, 0)
        core = _dyadic((lo - pad) >> cut, _ceil_shift(hi + pad, cut), work - cut - n)
        view = _POINT_CACHE[key, prec] = coarsen_relative(core, prec + 8)
    return view


# ---------------------------------------------------------------------------
# Bernoulli numbers and exact even zeta values


def _tangent_numbers(count: int) -> Tuple[int, ...]:
    """Tangent numbers T_1 .. T_count, by the integer recurrence of Brent and
    Harvey (2011): O(count^2) additions of integers, no fractions."""
    t = [0] * (count + 1)
    t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1:])


# The one table of tangent numbers.  Its entries are exact integers, so what
# a lookup returns cannot depend on how large earlier requests made it.
_TANGENT_TABLE: Tuple[int, ...] = ()


def _tangent_number(k: int) -> int:
    """T_k, read from the table; a larger k rebuilds it once, at the next
    multiple of 64, so that ascending requests rebuild it rarely."""
    global _TANGENT_TABLE
    if k > len(_TANGENT_TABLE):
        _TANGENT_TABLE = _tangent_numbers(-(-k // 64) * 64)
    return _TANGENT_TABLE[k - 1]


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
    # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    k = n // 2
    t = _tangent_number(k)
    return Fraction((-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1))


@lru_cache(maxsize=None)
def _em_coefficient(j: int) -> Fraction:
    """B_2j / (2j)!, the j-th Euler-Maclaurin coefficient."""
    return bernoulli_number(2 * j) / math.factorial(2 * j)


def zeta_even_exact(j: int) -> Fraction:
    """Exact rational c with zeta(2j) = c * pi^(2j)."""
    if j < 1:
        raise ValueError("zeta_even_exact needs j >= 1")
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


def _ceil_shift(a: int, w: int) -> int:
    """ceil(a / 2^w), by a shift rather than a division."""
    return -(-a >> w)


def _dyadic(lo: int, hi: int, w: int) -> Interval:
    """[lo, hi] / 2^w, for any integer w."""
    if w < 0:
        return Interval(lo << -w, hi << -w)
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
        # ceil(ceil(a / 2^w) / k) = ceil(a / (k 2^w)): a shift, then a small division
        t_hi = _ceil_div(_ceil_shift(t_hi * x_hi, w), k)
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
    sq_lo, sq_hi = x_lo * x_lo >> w, _ceil_shift(x_hi * x_hi, w)
    lo = pw_lo = x_lo
    hi = pw_hi = x_hi
    j = 0
    while True:
        j += 1
        pw_lo = pw_lo * sq_lo >> w
        pw_hi = _ceil_shift(pw_hi * sq_hi, w)
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


def _rescale(lo: int, hi: int, shift: int) -> Tuple[int, int]:
    """[lo, hi] times 2^shift, rounded outward to integers."""
    if shift >= 0:
        return lo << shift, hi << shift
    return lo >> -shift, -(-hi >> -shift)


# ln 2 enters multiplied by the binary exponent of a logarithm or of an
# exponential, which reaches tens of thousands (log Pi(64), the Stirling
# shift); with this many extra bits that product stays within one ulp.
_LN2_EXTRA = 64


def _times_ln2(k: int, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * k ln 2."""
    lo, hi = _log_base(2, w + _LN2_EXTRA)
    if k < 0:
        lo, hi = hi, lo
    return _rescale(k * lo, k * hi, -_LN2_EXTRA)


def _log_fixed(num: int, den: int, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * log(num/den) for positive integers num, den."""
    k, lo, hi = _log_kernel(num, den, w)
    if k:
        k_lo, k_hi = _times_ln2(k, w)
        lo, hi = lo + k_lo, hi + k_hi
    return lo, hi


def _exp_fixed(y_lo: int, y_hi: int, w: int) -> Tuple[int, int, int]:
    """n and bounds 2^n lo <= 2^w e^y <= 2^n hi for every y with
    y_lo <= 2^w y <= y_hi, where y_hi - y_lo <= 2^w.

    e^y = 2^n e^f with n the integer nearest y / ln 2, so |f| <= 0.35 and one
    exp series at the lower end of f serves both bounds."""
    l2_lo = _log_base(2, w + _LN2_EXTRA)[0]
    n = ((y_lo << _LN2_EXTRA) + l2_lo // 2) // l2_lo
    nl2_lo, nl2_hi = _times_ln2(n, w)
    f_lo, f_hi = y_lo - nl2_hi, y_hi - nl2_lo
    if f_hi - f_lo > 1 << w:
        raise ValueError("exponent bracket wider than 1")
    lo, hi = _exp_kernel(f_lo, 1 << w, w)
    # e^(f_hi) = e^(f_lo) e^d with 0 <= d <= 1, and e^d <= 1 + 2d there
    return n, lo, hi + _ceil_shift(hi * 2 * (f_hi - f_lo), w)


# ---------------------------------------------------------------------------
# power products: the one core of pi, exp, log, x^e, Gamma, zeta, L and alpha at points


PI, EULER = "pi", "e"  # the bases pi and e of a factor table


def GAMMA(x) -> tuple:
    """The base Gamma(x) of a factor table, for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise NonPositiveArgument(f"Gamma requested at non-positive point {x}")
    return ("gamma", x)


def L(D: int, s) -> tuple:
    """The base L(s, chi_D) of a factor table, for rational s > 1 and D = 1
    or a catalog modulus; chi_1 is trivial, so L(1, s) is zeta(s)."""
    if D != 1 and D not in SUPPORTED_L_MODULI:
        raise UnsupportedModulus(f"modulus {D} not supported")
    s = Fraction(s)
    if s <= 1:
        raise ArgumentNotGreaterThanOne(f"L requested at {s}")
    return ("L", D, s)


def ZETA(s) -> tuple:
    """The base zeta(s) of a factor table, for rational s > 1."""
    return L(1, s)


ZETA_PRODUCT = ("zeta_product",)  # the base prod_{j>=1} zeta(2j) of a factor table


# The one memo of logarithms: bounds on 2^top log x for a base x and a scale
# top, each computed once and depending on (x, top) alone.
_LOG_MEMO: Dict[Tuple[object, int], Tuple[int, int]] = {}


def _log_bracket(lo: int, hi: int, w: int) -> Tuple[int, int]:
    """Bounds on 2^w log v for every v with 0 < lo <= 2^w v <= hi: log lo
    from one series, and log hi <= log lo + (hi - lo)/lo."""
    l_lo, l_hi = _log_fixed(lo, 1 << w, w)
    return l_lo, l_hi + _ceil_div((hi - lo) << w, lo)


def _log_memo(x, top: int) -> Tuple[int, int]:
    bounds = _LOG_MEMO.get((x, top))
    if bounds is None:
        if x == PI:
            bounds = _log_bracket(*_pi_kernel(top), top)
        elif x == 2:
            lo, hi = _atanh_kernel(1, 3, top)  # ln 2 = 2 atanh(1/3)
            bounds = 2 * lo, 2 * hi
        elif x == ZETA_PRODUCT:
            bounds = _log_zeta_product(top)
        elif isinstance(x, tuple):
            bounds = (_lngamma_kernel(x[1], top) if x[0] == "gamma"
                      else _log_bracket(*_L_kernel(*x[1:], top), top))
        elif x <= 0:
            raise LogOfNonPositive(f"log of non-positive point {x}")
        else:
            bounds = _log_fixed(x.numerator, x.denominator, top)
        _LOG_MEMO[x, top] = bounds
    return bounds


def _log_base(x, w: int) -> Tuple[int, int]:
    """Bounds on 2^w log x.  A rational or pi is cut from the memo at the next
    multiple of 64 bits, and ln 2, which every log and exp kernel reads at its
    own w, at the next multiple of 512.  Gamma, L (zeta at D = 1) and the
    zeta product are read by one table each, so they are memoized at w itself:
    a larger top would share nothing and cost more series terms."""
    if x == EULER:
        return 1 << w, 1 << w
    if isinstance(x, tuple):
        return _log_memo(x, w)
    step = 512 if x == 2 else 64
    top = -(-w // step) * step
    return _rescale(*_log_memo(x, top), w - top)


def _log_sum(factors: tuple, w: int) -> Tuple[int, int]:
    """Bounds on 2^w sum c log x."""
    lo = hi = 0
    for x, c in factors:
        l_lo, l_hi = _log_base(x, w)
        if c < 0:
            l_lo, l_hi = l_hi, l_lo
        lo += l_lo * c.numerator // c.denominator
        hi += _ceil_div(l_hi * c.numerator, c.denominator)
    return lo, hi


def _guard_bits(factors: tuple, w: int) -> int:
    """Bits that keep sum |c| times the log kernels' ulps, plus the exp
    kernel's own, below one ulp at scale 2^w."""
    return ((int(sum(abs(c) for _, c in factors)) + 2) * 4 * w).bit_length()


def _near_one_shift(x) -> int:
    """The leading zero bits beyond 16 of log x's atanh argument (x - 1)/(x + 1),
    which an absolute kernel loses from the relative precision near x = 1.
    Near its zeros lnGamma(x) is about -0.58 (x - 1) or 0.42 (x - 2), so
    Gamma(x) takes the shift of x or x/2.  L(s, chi_D) - 1 is about
    chi_D(m) m^-s for the least m >= 2 with chi_D(m) != 0, so L(D, s) takes
    the s log2 m zero bits of that term."""
    if x in (PI, EULER, ZETA_PRODUCT):
        return 0
    if isinstance(x, tuple):
        if x[0] == "gamma":
            return max(_near_one_shift(x[1]), _near_one_shift(x[1] / 2))
        _, D, s = x
        m = next(k for k in range(2, D + 2) if dirichlet_character(D, k))
        return max(math.floor(s * math.log2(m)) - 15, 0)
    num, den = x.numerator, x.denominator
    return max((num + den).bit_length() - abs(num - den).bit_length() - 16, 0)


def _log_power_kernel(factors: tuple, w: int) -> Tuple[int, int, int]:
    """-t and bounds 2^-t lo <= 2^w sum c log x <= 2^-t hi.  The sum runs at
    w + s plus guard bits, s the largest near-one shift of its bases (0 at
    every point of the proof), so a log near 0 keeps its relative bits; terms
    that cancel leave only absolute precision."""
    shift = max(map(_near_one_shift, (x for x, _ in factors)), default=0)
    shift += _guard_bits(factors, w)
    return (-shift, *_log_sum(factors, w + shift))


def _power_kernel(factors: tuple, w: int) -> Tuple[int, int, int]:
    """n and bounds 2^n lo <= 2^w prod x^c <= 2^n hi: one log sum, then one
    exp series."""
    guard = _guard_bits(factors, w)
    n, lo, hi = _exp_fixed(*_log_sum(factors, w + guard), w + guard)
    return (n, *_rescale(lo, hi, -guard))


def power_product(factors: tuple, prec: int) -> Interval:
    """Enclosure of prod x^c over a factor table, to ``prec`` relative bits."""
    return _cached_point(("exp", factors), prec, partial(_power_kernel, factors))


def log_power_product(factors: tuple, prec: int) -> Interval:
    """Enclosure of sum c log x over a factor table, to ``prec`` bits relative
    to its value unless its terms cancel."""
    return _cached_point(("log", factors), prec, partial(_log_power_kernel, factors))


# ---------------------------------------------------------------------------
# pi and sqrt


def pi_enclosure(precision_bits: int) -> Interval:
    """Interval containing pi, width <= 2^(-precision_bits + 4)."""
    if precision_bits < 16:
        raise ValueError("precision_bits must be >= 16")
    return power_product(((PI, 1),), precision_bits)


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


def _stirling_cutoffs(x: Fraction, w: int) -> Tuple[int, int]:
    """Term count K and shift r that put the Stirling remainder at y = x + r,
    |B_(2K+2)| / ((2K+2)(2K+1) y^(2K+1)), below about 2^-w."""
    terms = max(4, w // 10)
    b = bernoulli_number(2 * terms + 2)
    size = (
        abs(b.numerator).bit_length()
        - b.denominator.bit_length()
        - ((2 * terms + 2) * (2 * terms + 1)).bit_length()
        + 2
    )
    y_min = 2.0 ** ((size + w) / (2 * terms + 1))
    return terms, max(0, math.ceil(y_min - x))


def _lngamma_kernel(x: Fraction, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * log Gamma(x) for rational x > 0.

    log Gamma(x) = log Gamma(y) - log(x (x+1) ... (y-1)) at y = x + r, with
    log Gamma(y) = (y - 1/2) log y - y + log(2 pi)/2 + sum_k B_2k / (2k (2k-1) y^(2k-1))
    and a remainder below the first omitted term."""
    xn, xd = x.numerator, x.denominator
    terms, shift = _stirling_cutoffs(x, w)
    yn = xn + shift * xd  # y = yn / xd
    # (y - 1/2) multiplies log y's ulps
    guard = (4 * w * (yn // xd + 1)).bit_length()
    work = w + guard
    log_lo, log_hi = _log_fixed(yn, xd, work)
    h_lo, h_hi = _log_sum(((PI, Fraction(1, 2)), (2, Fraction(1, 2))), work)  # log(2 pi)/2
    lo = log_lo * (2 * yn - xd) // (2 * xd) - _ceil_div(yn << work, xd) + h_lo
    hi = _ceil_div(log_hi * (2 * yn - xd), 2 * xd) - (yn << work) // xd + h_hi
    inv_num, inv_den = xd, yn  # 1 / y^(2k-1)
    for k in range(1, terms + 2):  # the last pass bounds the remainder
        b = bernoulli_number(2 * k)
        q, r = divmod(
            b.numerator * inv_num << work, b.denominator * 2 * k * (2 * k - 1) * inv_den
        )
        if k <= terms:
            lo += q
            hi += q + (r != 0)
        else:
            rem = max(-q, q + (r != 0))
            lo -= rem
            hi += rem
        inv_num *= xd * xd
        inv_den *= yn * yn
    if shift:
        prod_num = math.prod(xn + i * xd for i in range(shift))
        p_lo, p_hi = _log_fixed(prod_num, xd**shift, work)
        lo -= p_hi
        hi -= p_lo
    return _rescale(lo, hi, -guard)


def gamma_enclosure(x: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of Gamma at a positive point."""
    return power_product(((GAMMA(_point(x)), 1),), precision_bits)


# ---------------------------------------------------------------------------
# zeta and Dirichlet L via Euler-Maclaurin


def _hurwitz_cutoffs(s: Fraction, a: Fraction, w: int) -> Tuple[int, int]:
    """Partial-sum length N and Euler-Maclaurin term count M that put the
    remainder, at most the M-th term |B_2M/(2M)!| (s)_(2M-1) X^(1-2M-s) at
    X = N + a, below about 2^-w (Johansson 2015)."""
    terms = max(2, w // 4)
    c = _em_coefficient(terms)
    sigma = float(s)
    size = (
        abs(c.numerator).bit_length()
        - c.denominator.bit_length()
        + 1
        + (math.lgamma(sigma + 2 * terms - 1) - math.lgamma(sigma)) / math.log(2)
    )
    x_min = 2.0 ** ((size + w) / (2 * terms - 1 + sigma))
    return max(1, math.ceil(x_min - a)), terms


def _least_prime_factors(n: int) -> List[int]:
    """least[m] is the least prime factor of m for 2 <= m <= n; least[1] = 1."""
    least = list(range(n + 1))
    root = math.isqrt(n)
    below = _least_prime_factors(root) if root > 1 else []
    # the primes up to sqrt(n), largest first, so the least one is written last
    for p in range(root, 1, -1):
        if below[p] == p:
            least[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    return least


def _L_kernel(D: int, s: Fraction, w: int) -> Tuple[int, int]:
    """Bounds on 2^w L(s, chi_D) for rational s > 1; zeta(s) at D = 1.

    L(s, chi_D) = sum_{m<=ND} chi_D(m) m^-s
                  + sum_{a<=D} chi_D(a) (ND + a)^-s V(N + a/D) + R,
    V(X) = X/(s-1) + 1/2 + sum_{j<=M} B_2j/(2j)! (s)_(2j-1) X^(1-2j):
    (ND + a)^-s V(X) is the Euler-Maclaurin tail of D^-s zeta(s, a/D) at
    X = N + a/D, so N and M are chosen at the least X, N + 1/D.  The
    derivatives of (a/D + t)^-s have one sign each, so each tail's |R| is at
    most its M-th term.

    The terms m^-s are completely multiplicative, so only m = 1 and the primes
    take a power kernel: a composite m with least prime factor p is
    p^-s (m/p)^-s, the floor and the ceiling product of two earlier brackets,
    which adds at most about one ulp.  The sum runs at e = (D - 1).bit_length()
    more bits, 2^e >= D, so its ulps, about 2 per term, are about 2 N at 2^w."""
    extra = (D - 1).bit_length()
    w += extra
    n_cut, terms = _hurwitz_cutoffs(s, Fraction(1, D), w)
    sn, sd = s.numerator, s.denominator
    sigma = float(s)
    least = _least_prime_factors(n_cut * D)
    powers: List[Tuple[int, int]] = []  # bounds on 2^w m^-s at m = len(powers) + 1
    signed = []  # chi and the bounds of each term of the sum
    for m in range(1, n_cut * D + 1):
        p = least[m]
        if p < m:
            (p_lo, p_hi), (r_lo, r_hi) = powers[p - 1], powers[m // p - 1]
            powers.append((p_lo * r_lo >> w, _ceil_shift(p_hi * r_hi, w)))
        else:
            # a term near 2^-b, b = s log2 m, keeps its absolute error with b fewer bits
            work = max(w - math.floor(sigma * math.log2(m)), 16)
            n, t_lo, t_hi = _power_kernel(((Fraction(m), -s),), work)
            powers.append(_rescale(t_lo, t_hi, n + w - work))
        signed.append((dirichlet_character(D, m), *powers[-1]))
    for a in range(1, D + 1):
        chi = dirichlet_character(D, a)
        if not chi:
            continue
        xn = n_cut * D + a  # X = xn / D
        q, r = divmod(xn * sd << w, D * (sn - sd))
        v_lo = q + (1 << (w - 1))
        v_hi = v_lo + (r != 0)
        g_num, g_den = sn * D, sd * xn  # (s)_(2j-1) / X^(2j-1) at j = 1
        for j in range(1, terms + 1):
            c = _em_coefficient(j)
            q, r = divmod(c.numerator * g_num << w, c.denominator * g_den)
            v_lo += q
            v_hi += q + (r != 0)
            g_num *= (sn + (2 * j - 1) * sd) * (sn + 2 * j * sd) * D * D
            g_den *= sd * sd * xn * xn
        last = max(-q, q + (r != 0))
        v_lo -= last
        v_hi += last
        # D^-s X^-s = (ND + a)^-s, one power kernel of an integer
        n, p_lo, p_hi = _power_kernel(((Fraction(xn), -s),), w)
        signed.append((chi, *_rescale(
            min(p_lo * v_lo, p_hi * v_lo), max(p_lo * v_hi, p_hi * v_hi), n - w
        )))
    lo = sum(chi * (t_hi if chi < 0 else t_lo) for chi, t_lo, t_hi in signed)
    hi = sum(chi * (t_lo if chi < 0 else t_hi) for chi, t_lo, t_hi in signed)
    return _rescale(lo, hi, -extra)


def _prime_power_cutoff(J: int, w: int) -> int:
    """An M, about 2^(w/(2J+1)), with M^-(2J+1) / ((2J+1)(1 - M^-2)) <= 2^-w."""
    a = 2 * J + 1
    M = max(2, int(2.0 ** (w / a)))
    while a * (M**a - M ** (a - 2)) < 1 << w:
        M += 1
    return M


def _log_zeta_tail(J: int, w: int) -> Tuple[int, int]:
    """Bounds lo <= 2^w sum_{j>J} log zeta(2j) <= hi, at most 2 apart.

    By the Euler product the sum is sum_{m = p^k} (1/k) / (m^(2J) (m^2 - 1)),
    summed here over the prime powers m <= M = ``_prime_power_cutoff(J, w + 2)``;
    the omitted m > M add at most M^-(2J+1) / ((2J+1)(1 - M^-2)).
    """
    M = _prime_power_cutoff(J, w + 2)
    least = _least_prime_factors(M)
    extra = 2 + M.bit_length()  # each of the fewer than M terms is off by under one ulp
    scale = w + extra
    lo = hi = 0
    for p in [p for p in range(2, M + 1) if least[p] == p]:
        m, k = p, 1
        while m <= M:
            q, r = divmod(1 << scale, k * m ** (2 * J) * (m * m - 1))
            lo += q
            hi += q + (r != 0)
            m, k = m * p, k + 1
    a = 2 * J + 1
    hi += -(-(1 << scale) // (a * (M**a - M ** (a - 2))))  # the omitted prime powers
    return lo >> extra, -(-hi >> extra)


def _log_zeta_product(w: int) -> Tuple[int, int]:
    """Bounds on 2^w log prod_{j>=1} zeta(2j).  The first J = ceil(w/24)
    factors are the exact c pi^(J(J+1)), which keeps the tail's prime-power
    cut-off below 2^14, and the log of the rest is ``_log_zeta_tail``.
    c = num/den enters unreduced: its gcd would cost more than its log."""
    J = -(-w // 24)
    head = [zeta_even_exact(j) for j in range(1, J + 1)]
    num, den = [c.numerator for c in head], [c.denominator for c in head]
    while len(num) > 1:  # a balanced product tree: like-sized operands cost far less than math.prod
        num, den = ([math.prod(x[i:i + 2]) for i in range(0, len(x), 2)] for x in (num, den))
    (num,), (den,) = num, den
    pi_power = ((PI, J * (J + 1)),)
    guard = _guard_bits(pi_power, w)
    (c_lo, c_hi), (p_lo, p_hi), (t_lo, t_hi) = (
        _log_fixed(num, den, w + guard), _log_sum(pi_power, w + guard), _log_zeta_tail(J, w + guard)
    )
    return _rescale(c_lo + p_lo + t_lo, c_hi + p_hi + t_hi, -guard)


def zeta_real_enclosure(s: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of the Riemann zeta function at a point s > 1."""
    return power_product(((ZETA(_point(s)), 1),), precision_bits)


# ---------------------------------------------------------------------------
# Dirichlet characters and L-functions


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1."""
    result = 1
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
    """Enclosure of L(s, chi_D) at a point s > 1, for D = 1 (zeta) or a catalog modulus."""
    return power_product(((L(D, _point(s)), 1),), precision_bits)


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


def alpha_factors(s: Fraction) -> tuple:
    """alpha(s) = pi^(s/2) / (Gamma(s/2) zeta(s)) as a factor table, for s > 1.
    zeta comes first: its Euler-Maclaurin cut-off asks for more Bernoulli
    numbers than Stirling's, so the tangent table is built once, at the
    larger size."""
    return (ZETA(s), -1), (GAMMA(s / 2), -1), (PI, s / 2)


def alpha_enclosure(s: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of alpha(s) at a point s > 1."""
    return power_product(alpha_factors(_point(s)), precision_bits)


def stirling_bounds(n: int, precision_bits: int = 256) -> Tuple[Interval, Interval]:
    """Robbins brackets: sqrt(2 pi n) (n/e)^n e^(1/(12n+1)) < n! < ... e^(1/12n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    half = Fraction(1, 2)
    return tuple(
        power_product(((Fraction(2 * n), half), (PI, half), (Fraction(n), n), (EULER, r - n)),
                      precision_bits)
        for r in (Fraction(1, 12 * n + 1), Fraction(1, 12 * n))
    )
