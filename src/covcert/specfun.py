"""Certified enclosures of the transcendental functions the bounds need.

Provides pi, exp, log, sqrt, Gamma, the Riemann and Hurwitz zeta functions,
real Dirichlet L-functions, and the Robbins factorial brackets.  Every
routine returns an :class:`~covcert.rigor.Interval` that provably contains
the exact value: series are truncated with explicit remainder bounds, and
all intermediate arithmetic is outward-rounded.

Every point value is summed by a fixed-point kernel: integer arithmetic at
scale 2^w whose lower bound comes from floor divisions and whose upper bound
comes from ceiling divisions or an ulp count, so it never takes a gcd.  The
kernels cover pi, ln 2, e, exp and log, x^e as one log and one exp series,
log Gamma by the Stirling series and Hurwitz zeta by Euler-Maclaurin
summation (at a = 1 only the primes take a power kernel), and every series
length, shift and cut-off follows from w.
Their results become intervals with dyadic endpoints; only the
combinations built on them (Gamma, L, alpha) are exact-rational interval
arithmetic.

Each constant has one route.  log pi is the kernel ``_log_pi_kernel``,
which the log Gamma kernel reads directly and alpha and the bounds read as
the cached point ``_log_pi``, and x^e has the one route ``pow_frac``.
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
from typing import Callable, Dict, List, Tuple

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


_POINT_CACHE: Dict[tuple, Tuple[int, Interval, Dict[int, Interval]]] = {}


def _cached_point(key: tuple, prec: int, compute: Callable[[int], Interval]) -> Interval:
    """Memoized point enclosure with guaranteed refinement nesting.

    ``compute(q)`` must return an enclosure of the same exact real number for
    any working precision q.  A miss computes at the precision asked for,
    never above it.  The cache keeps the narrowest core seen so far
    (intersection of recomputations), so results at higher precision are
    always subsets of results at lower precision.  The core's rounding to
    each requested precision is kept with it until the core changes.
    """
    needed = prec + GUARD_BITS
    entry = _POINT_CACHE.get(key)
    if entry is None or entry[0] < needed:
        q = max(needed, 128)
        core = compute(q)
        if entry is not None:
            core = core.intersect(entry[1])
        entry = (q, core, {})
        _POINT_CACHE[key] = entry
    views = entry[2]
    view = views.get(prec)
    if view is None:
        view = views[prec] = coarsen_relative(entry[1], prec + 8)
    return view


def _clear_point_cache() -> None:
    """Test hook: reset memoized enclosures."""
    _POINT_CACHE.clear()


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


@lru_cache(maxsize=16)
def _ln2_table(w: int) -> Tuple[int, int]:
    lo, hi = _atanh_kernel(1, 3, w)  # ln 2 = 2 atanh(1/3)
    return 2 * lo, 2 * hi


def _ln2_kernel(w: int) -> Tuple[int, int]:
    """Bounds on 2^w * ln 2, cut from a table at the next multiple of 512 bits."""
    top = -(-w // 512) * 512
    return _rescale(*_ln2_table(top), w - top)


def _times_ln2(k: int, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * k ln 2."""
    lo, hi = _ln2_kernel(w + _LN2_EXTRA)
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


@lru_cache(maxsize=16)
def _log_pi_kernel(w: int) -> Tuple[int, int]:
    """Bounds on 2^w * log pi: log is increasing, so the logs of pi's kernel
    bounds bracket it."""
    pi_lo, pi_hi = _pi_kernel(w)
    return _log_fixed(pi_lo, 1 << w, w)[0], _log_fixed(pi_hi, 1 << w, w)[1]


def _exp_fixed(y_lo: int, y_hi: int, w: int) -> Tuple[int, int, int]:
    """n and bounds 2^n lo <= 2^w e^y <= 2^n hi for every y with
    y_lo <= 2^w y <= y_hi, where y_hi - y_lo <= 2^w.

    e^y = 2^n e^f with n the integer nearest y / ln 2, so |f| <= 0.35 and one
    exp series at the lower end of f serves both bounds."""
    l2_lo = _ln2_kernel(w + _LN2_EXTRA)[0]
    n = ((y_lo << _LN2_EXTRA) + l2_lo // 2) // l2_lo
    nl2_lo, nl2_hi = _times_ln2(n, w)
    f_lo, f_hi = y_lo - nl2_hi, y_hi - nl2_lo
    if f_hi - f_lo > 1 << w:
        raise ValueError("exponent bracket wider than 1")
    lo, hi = _exp_kernel(f_lo, 1 << w, w)
    # e^(f_hi) = e^(f_lo) e^d with 0 <= d <= 1, and e^d <= 1 + 2d there
    return n, lo, hi + _ceil_shift(hi * 2 * (f_hi - f_lo), w)


def _pow_kernel(num: int, den: int, e: Fraction, w: int) -> Tuple[int, int, int]:
    """n and bounds 2^n lo <= 2^w (num/den)^e <= 2^n hi for positive integers
    num, den: one log kernel of the base, times e, then one exp kernel."""
    # e times log's ulps, plus the exp kernel's own, stay below 2^guard ulps
    guard = ((abs(e.numerator) // e.denominator + 2) * 4 * w).bit_length()
    work = w + guard
    log_lo, log_hi = _log_fixed(num, den, work)
    if e < 0:
        log_lo, log_hi = log_hi, log_lo
    y_lo = log_lo * e.numerator // e.denominator
    y_hi = _ceil_div(log_hi * e.numerator, e.denominator)
    n, lo, hi = _exp_fixed(y_lo, y_hi, work)
    return (n, *_rescale(lo, hi, -guard))


# ---------------------------------------------------------------------------
# pi and e


def pi_enclosure(precision_bits: int) -> Interval:
    """Interval containing pi, width <= 2^(-precision_bits + 4)."""
    if precision_bits < 16:
        raise ValueError("precision_bits must be >= 16")

    def compute(q: int) -> Interval:
        work = q + 32
        return _dyadic(*_pi_kernel(work), work).coarsen(q + 8)

    return _cached_point(("pi",), precision_bits, compute)


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
        y = r.numerator << work
        n, lo, hi = _exp_fixed(y // r.denominator, _ceil_div(y, r.denominator), work)
        return coarsen_relative(_dyadic(lo, hi, work - n), q + 8)

    return _cached_point(("exp", r), prec, compute)


def _log_point(r: Fraction, prec: int) -> Interval:
    if r <= 0:
        raise LogOfNonPositive(f"log of non-positive point {r}")

    def compute(q: int) -> Interval:
        work = q + 32
        return _dyadic(*_log_fixed(r.numerator, r.denominator, work), work).coarsen(q + 8)

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
        work = q + 32
        return _dyadic(*_log_pi_kernel(work), work).coarsen(q + 8)

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
    terms, shift = _stirling_cutoffs(x, w)
    xn, xd = x.numerator, x.denominator
    yn = xn + shift * xd  # y = yn / xd
    # (y - 1/2) multiplies log y's ulps
    guard = (4 * w * (yn // xd + 1)).bit_length()
    work = w + guard
    log_lo, log_hi = _log_fixed(yn, xd, work)
    lo = log_lo * (2 * yn - xd) // (2 * xd) - _ceil_div(yn << work, xd)
    hi = _ceil_div(log_hi * (2 * yn - xd), 2 * xd) - (yn << work) // xd
    pi_lo, pi_hi = _log_pi_kernel(work)
    l2_lo, l2_hi = _ln2_kernel(work)
    lo += (pi_lo + l2_lo) >> 1
    hi += -(-(pi_hi + l2_hi) >> 1)
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


def _lngamma_point(x: Fraction, prec: int) -> Interval:
    if x <= 0:
        raise NonPositiveArgument(f"lngamma of non-positive point {x}")

    def compute(q: int) -> Interval:
        work = q + 32
        return _dyadic(*_lngamma_kernel(x, work), work).coarsen(q + 8)

    return _cached_point(("lngamma", x), prec, compute)


def gamma_enclosure(x: Interval, precision_bits: int = 256) -> Interval:
    """Enclosure of Gamma at a positive point."""
    return exp_enclosure(_lngamma_point(_point(x), precision_bits), precision_bits)


# ---------------------------------------------------------------------------
# rational powers


def _pow_point(x: Fraction, e: Fraction, prec: int) -> Interval:
    def compute(q: int) -> Interval:
        work = q + 32
        n, lo, hi = _pow_kernel(x.numerator, x.denominator, e, work)
        return coarsen_relative(_dyadic(lo, hi, work - n), q + 8)

    return _cached_point(("pow", x, e), prec, compute)


def pow_frac(x: Interval, exponent: Fraction, precision_bits: int = 256) -> Interval:
    """Enclosure of x**exponent for a positive interval x."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return x.pow_int(int(exponent))
    if x.lo <= 0:
        raise NonPositiveArgument(f"fractional power of {x} touching zero")
    lo = _pow_point(x.lo, exponent, precision_bits)
    hi = lo if x.is_point() else _pow_point(x.hi, exponent, precision_bits)
    if exponent < 0:
        lo, hi = hi, lo
    return Interval(lo.lo, hi.hi)


# ---------------------------------------------------------------------------
# Hurwitz/Riemann zeta via Euler-Maclaurin


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


def _hurwitz_terms(s: Fraction, a: Fraction, n_cut: int, w: int) -> List[Tuple[int, int]]:
    """Bounds lo <= 2^w (k + a)^-s <= hi for k < n_cut.

    At a = 1 the terms m^-s are completely multiplicative, so only m = 1 and
    the primes take a power kernel: a composite m with least prime factor p
    is p^-s (m/p)^-s, the floor and the ceiling product of two earlier
    brackets, which adds at most about one ulp."""
    an, ad = a.numerator, a.denominator
    sigma = float(s)
    least = _least_prime_factors(n_cut) if a == 1 else None
    terms: List[Tuple[int, int]] = []
    for k in range(n_cut):
        base = k * ad + an
        p = base if least is None else least[base]
        if p < base:  # base = k + 1, so m's bracket is terms[m - 1]
            (p_lo, p_hi), (r_lo, r_hi) = terms[p - 1], terms[base // p - 1]
            terms.append((p_lo * r_lo >> w, _ceil_shift(p_hi * r_hi, w)))
            continue
        # a term near 2^-b, b = s log2(k + a), keeps its absolute error with b fewer bits
        work = max(w - math.floor(sigma * math.log2(base / ad)), 16)
        n, t_lo, t_hi = _pow_kernel(base, ad, -s, work)
        terms.append(_rescale(t_lo, t_hi, n + w - work))
    return terms


def _hurwitz_kernel(s: Fraction, a: Fraction, w: int) -> Tuple[int, int]:
    """Bounds on 2^w * zeta(s, a) for rational s > 1 and 0 < a <= 1.

    zeta(s, a) = sum_{k<N} (k + a)^-s
                 + X^-s (X/(s-1) + 1/2 + sum_{j<=M} B_2j/(2j)! (s)_(2j-1) X^(1-2j)) + R
    at X = N + a.  The derivatives of (a + t)^-s have one sign each, so |R| is
    at most the M-th term."""
    n_cut, terms = _hurwitz_cutoffs(s, a, w)
    sn, sd = s.numerator, s.denominator
    an, ad = a.numerator, a.denominator
    partial = _hurwitz_terms(s, a, n_cut, w)
    lo = sum(t_lo for t_lo, _ in partial)
    hi = sum(t_hi for _, t_hi in partial)
    xn = n_cut * ad + an  # X = xn / ad
    q, r = divmod(xn * sd << w, ad * (sn - sd))
    v_lo = q + (1 << (w - 1))
    v_hi = v_lo + (r != 0)
    g_num, g_den = sn * ad, sd * xn  # (s)_(2j-1) / X^(2j-1) at j = 1
    for j in range(1, terms + 1):
        c = _em_coefficient(j)
        q, r = divmod(c.numerator * g_num << w, c.denominator * g_den)
        v_lo += q
        v_hi += q + (r != 0)
        g_num *= (sn + (2 * j - 1) * sd) * (sn + 2 * j * sd) * ad * ad
        g_den *= sd * sd * xn * xn
    last = max(-q, q + (r != 0))
    v_lo -= last
    v_hi += last
    n, p_lo, p_hi = _pow_kernel(xn, ad, -s, w)
    t_lo, t_hi = _rescale(
        min(p_lo * v_lo, p_hi * v_lo), max(p_lo * v_hi, p_hi * v_hi), n - w
    )
    return lo + t_lo, hi + t_hi


def _hurwitz_point(s: Fraction, a: Fraction, prec: int) -> Interval:
    """Hurwitz zeta(s, a) for rational s > 1 and 0 < a <= 1."""

    def compute(q: int) -> Interval:
        work = q + 32
        return _dyadic(*_hurwitz_kernel(s, a, work), work).coarsen(q + 8)

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
    # zeta first: its Euler-Maclaurin cut-off asks for more Bernoulli numbers
    # than Stirling's, so the tangent table is built once, at the larger size
    denom = zeta_real_enclosure(s, precision_bits) * gamma_enclosure(half, precision_bits)
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
