"""Oracle and refinement tests for the transcendental enclosures.

mpmath (at 60 decimal digits) serves as the independent oracle for every
transcendental value; sympy checks the exact rational identities.
"""

import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covcert.bounds import pi_n_coefficient, zeta_product_enclosure
from covcert.report import Comparison, compare
from covcert.rigor import Interval
from covcert import numberfields as nf
from covcert import specfun as sf

mpmath.mp.dps = 60

PREC = 160


@pytest.fixture(autouse=True)
def _oracle_digits():
    """60-digit oracles in every test here, whatever digits another test
    module sets when it is imported after this one."""
    with mpmath.workdps(60):
        yield


def _contains_mp(iv: Interval, value: "mpmath.mpf") -> bool:
    return mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= value <= mpmath.mpf(
        iv.hi.numerator
    ) / iv.hi.denominator


# ---------------------------------------------------------------------------
# exact rational layers


def test_bernoulli_against_sympy():
    for n in range(0, 40):
        expected = Fraction(sympy.Rational(sympy.bernoulli(n)))
        if n == 1:
            # recent sympy uses the B(1) = +1/2 convention; ours is -1/2
            assert sf.bernoulli_number(n) == -expected
        else:
            assert sf.bernoulli_number(n) == expected


def test_zeta_even_exact_small_values():
    assert sf.zeta_even_exact(1) == Fraction(1, 6)
    assert sf.zeta_even_exact(2) == Fraction(1, 90)
    assert sf.zeta_even_exact(3) == Fraction(1, 945)


def test_zeta_even_exact_against_sympy():
    x = sympy.symbols("x")
    for j in (*range(1, 12), 64, 65, 171):  # 171: the last factor exact at 4096 bits
        expected = sympy.zeta(2 * j) / sympy.pi ** (2 * j)
        assert sf.zeta_even_exact(j) == Fraction(sympy.Rational(expected))


def test_generalized_bernoulli_L_coeff():
    # L(2, chi_5) = (4/125) pi^2 sqrt(5)
    assert sf.dirichlet_L_even_coeff(5, 1) == Fraction(4, 125)


def test_bernoulli_polynomial_identities():
    # B_n(0) equals the Bernoulli number
    for n in range(0, 10):
        assert sf.bernoulli_polynomial(n, Fraction(0)) == sf.bernoulli_number(n)
    # B_2(x) = x^2 - x + 1/6
    assert sf.bernoulli_polynomial(2, Fraction(1, 3)) == Fraction(1, 9) - Fraction(
        1, 3
    ) + Fraction(1, 6)


def test_kronecker_symbol_against_sympy():
    from sympy import jacobi_symbol

    for a in range(-30, 31):
        for n in range(1, 30, 2):  # odd n: Kronecker == Jacobi
            assert sf.kronecker_symbol(a, n) == jacobi_symbol(a, n)


def test_dirichlet_character_is_kronecker():
    for D in sf.SUPPORTED_L_MODULI:
        values = [sf.dirichlet_character(D, k) for k in range(1, D + 1)]
        # multiplicative, period D, trivial exactly on residues coprime to D
        for k in range(1, D + 1):
            assert sf.dirichlet_character(D, k + D) == values[k - 1]
            if math.gcd(k, D) > 1:
                assert values[k - 1] == 0


# ---------------------------------------------------------------------------
# mpmath oracles for the transcendental enclosures


def test_pi_enclosure_oracle():
    iv = sf.pi_enclosure(PREC)
    assert _contains_mp(iv, mpmath.pi)
    assert iv.width() < Fraction(1, 2**150)


@pytest.mark.parametrize(
    "r",
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-147),
     Fraction(46, 100), Fraction(25, 7), Fraction(-2949, 20)],
)
def test_exp_oracle(r):
    iv = sf.power_product(((sf.EULER, r),), PREC)
    value = mpmath.exp(mpmath.mpf(r.numerator) / r.denominator)
    assert _contains_mp(iv, value)
    assert iv.width() / iv.lo < Fraction(1, 2**130)


@pytest.mark.parametrize(
    "r", [Fraction(2), Fraction(1, 2), Fraction(5760), Fraction(3, 7),
          Fraction(2689, 125), Fraction(10**12), Fraction(1, 10**12)]
)
def test_log_oracle(r):
    iv = sf.log_power_product(((r, 1),), PREC)
    value = mpmath.log(mpmath.mpf(r.numerator) / r.denominator)
    assert _contains_mp(iv, value)
    assert iv.width() < Fraction(1, 2**150)


@pytest.mark.parametrize("prec", [16, 99, 256, 2048])
@pytest.mark.parametrize("x", [1 + Fraction(1, 2**150), 1 - Fraction(1, 2**300)])
def test_log_near_one_delivers_relative_bits(x, prec):
    """log x near 1 is near 0: its kernel runs at as many more bits as the
    atanh argument loses, so the enclosure keeps p - 16 relative bits."""
    iv = sf.log_power_product(((x, 1),), prec)
    with mpmath.workprec(prec + 400):
        assert _contains_mp(iv, mpmath.log(_mp(x)))
    assert _relative_bits(iv) >= prec - 16, _relative_bits(iv)


@pytest.mark.parametrize("prec", [16, 99, 256, 2048])
@pytest.mark.parametrize("x", [1 + Fraction(1, 2**100), 1 - Fraction(1, 2**100),
                               2 + Fraction(1, 2**100), 2 - Fraction(1, 2**100)])
def test_lngamma_near_its_zeros_delivers_relative_bits(x, prec):
    """lnGamma(x) near x = 1 or 2 is near 0: its kernel runs at as many more
    bits as x - 1 or x - 2 has leading zeros, so the enclosure keeps p - 16
    relative bits.  The proof's lnGamma(1.1) is far from both: no shift."""
    iv = sf.log_power_product(((sf.GAMMA(x), 1),), prec)
    with mpmath.workprec(prec + 400):
        assert _contains_mp(iv, mpmath.loggamma(_mp(x)))
    assert _relative_bits(iv) >= prec - 16, _relative_bits(iv)
    assert sf._near_one_shift(sf.GAMMA(Fraction(11, 10))) == 0


@pytest.mark.parametrize("prec", [64, 256, 2048])
def test_log_pi_oracle(prec):
    iv = sf.log_power_product(((sf.PI, 1),), prec)
    # at least 60 digits, and 64 bits beyond the enclosure's own precision
    with mpmath.workprec(max(200, prec + 64)):
        assert _contains_mp(iv, mpmath.log(mpmath.pi))
    assert iv.width() < Fraction(1, 2**prec)


def test_ln2_and_e_oracle():
    # k = 1 and m = 1: the ln 2 kernel alone
    ln2 = sf.log_power_product(((Fraction(2), 1),), PREC)
    assert _contains_mp(ln2, mpmath.log(2))
    assert ln2.width() < Fraction(1, 2**150)
    e = sf.power_product(((sf.EULER, Fraction(1)),), PREC)
    assert _contains_mp(e, mpmath.e)
    assert e.width() < Fraction(1, 2**150)


def test_log_of_nonpositive_rejected():
    with pytest.raises(sf.LogOfNonPositive):
        sf.log_power_product(((Fraction(0), 1),), PREC)


def test_sqrt_oracle():
    for r in (Fraction(2), Fraction(5), Fraction(49), Fraction(3, 11)):
        iv = sf.sqrt_enclosure(Interval.exact(r), PREC)
        assert _contains_mp(iv, mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator))
    iv = sf.sqrt_enclosure(Interval.exact(49), PREC)
    assert iv.lo <= 7 <= iv.hi


def test_sqrt_negative_rejected():
    with pytest.raises(sf.NonPositiveArgument):
        sf.sqrt_enclosure(Interval(-2, -1), PREC)


@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(3), Fraction(11, 10), Fraction(16, 10),
          Fraction(299, 100), Fraction(25, 2)]
)
def test_gamma_oracle(x):
    iv = sf.gamma_enclosure(Interval.exact(x), PREC)
    value = mpmath.gamma(mpmath.mpf(x.numerator) / x.denominator)
    assert _contains_mp(iv, value)


def test_gamma_half_is_sqrt_pi():
    g = sf.gamma_enclosure(Interval.exact(Fraction(1, 2)), PREC)
    sqrt_pi = sf.sqrt_enclosure(sf.pi_enclosure(PREC), PREC)
    assert compare(g, sqrt_pi) is Comparison.OVERLAP


@pytest.mark.parametrize(
    "special",
    [
        lambda s: sf.gamma_enclosure(s, PREC),
        lambda s: sf.zeta_real_enclosure(s, PREC),
        lambda s: sf.dirichlet_L_enclosure(5, s, PREC),
        lambda s: sf.alpha_enclosure(s, PREC),
    ],
    ids=["gamma", "zeta", "L", "alpha"],
)
def test_special_functions_reject_non_point_arguments(special):
    with pytest.raises(sf.NotAPoint):
        special(Interval(Fraction(3), Fraction(13, 4)))


@pytest.mark.parametrize(
    "s", [Fraction(2), Fraction(4), Fraction(11, 5), Fraction(599, 100),
          Fraction(3, 2), Fraction(21, 2)]
)
def test_zeta_oracle(s):
    iv = sf.zeta_real_enclosure(Interval.exact(s), PREC)
    assert _contains_mp(iv, mpmath.zeta(mpmath.mpf(s.numerator) / s.denominator))


def test_zeta_requires_argument_above_one():
    with pytest.raises(sf.ArgumentNotGreaterThanOne):
        sf.zeta_real_enclosure(Interval.exact(1), PREC)


def test_zeta_cross_consistency_even_integers():
    """Euler-Maclaurin route overlaps the exact pi-power route, j <= 10."""
    pi_iv = sf.pi_enclosure(PREC)
    for j in range(1, 11):
        em = sf.zeta_real_enclosure(Interval.exact(2 * j), PREC)
        exact = Interval.exact(sf.zeta_even_exact(j)) * pi_iv.pow_int(2 * j)
        assert compare(em, exact) is Comparison.OVERLAP, j


def _mp_L(D, s):
    """L(s, chi_D) = D^-s sum_a chi_D(a) zeta(s, a/D) by mpmath's Hurwitz
    zeta, a route independent of the kernel's; zeta(s) at D = 1.  Memoized
    per (D, s, working precision), since the Hurwitz sums dominate the
    oracles' time."""
    return _mp_L_at(D, s, mpmath.mp.prec)


@lru_cache(maxsize=None)
def _mp_L_at(D, s, prec):
    with mpmath.workprec(prec):
        chi = {a: sf.dirichlet_character(D, a) for a in range(1, D + 1)}
        terms = (c * mpmath.zeta(s, mpmath.mpf(a) / D) for a, c in chi.items() if c)
        return mpmath.mpf(D) ** -s * mpmath.fsum(terms)


@pytest.mark.parametrize("D", sf.SUPPORTED_L_MODULI)
def test_dirichlet_L_oracle(D):
    iv = sf.dirichlet_L_enclosure(D, Interval.exact(2), PREC)
    assert _contains_mp(iv, _mp_L(D, mpmath.mpf(2)))


def test_dirichlet_L_even_exact_cross_check():
    # interval route overlaps the exact coefficient route at s = 2, 4
    pi_iv = sf.pi_enclosure(PREC)
    for D in (5, 8):
        sqrt_D = sf.sqrt_enclosure(Interval.exact(D), PREC)
        for j in (1, 2):
            iv = sf.dirichlet_L_enclosure(D, Interval.exact(2 * j), PREC)
            exact = (
                Interval.exact(sf.dirichlet_L_even_coeff(D, j))
                * pi_iv.pow_int(2 * j)
                * sqrt_D
            )
            assert compare(iv, exact) is Comparison.OVERLAP, (D, j)


def test_unsupported_modulus_rejected():
    with pytest.raises(sf.UnsupportedModulus):
        sf.dirichlet_L_enclosure(7, Interval.exact(2), PREC)


@pytest.mark.parametrize("s", [Fraction(11, 10), Fraction(2), Fraction(11, 5), Fraction(21, 2)])
def test_L_at_modulus_one_is_zeta(s):
    """chi_1 is trivial, so L(s, chi_1) is zeta(s): the same base, ZETA(s) = L(1, s)."""
    assert sf.ZETA(s) == sf.L(1, s)
    iv = sf.dirichlet_L_enclosure(1, Interval.exact(s), PREC)
    assert compare(iv, sf.zeta_real_enclosure(Interval.exact(s), PREC)) is Comparison.OVERLAP


def test_alpha_oracle():
    iv = sf.alpha_enclosure(Interval.exact(Fraction(599, 100)), PREC)
    s = mpmath.mpf("5.99")
    value = mpmath.pi ** (s / 2) / (mpmath.gamma(s / 2) * mpmath.zeta(s))
    assert _contains_mp(iv, value)
    assert abs(iv.midpoint() - Fraction("15.2199430285")) < Fraction(1, 10**9)


def _log2(x: Fraction) -> float:
    shift = x.numerator.bit_length() - x.denominator.bit_length()
    return shift + math.log2(x / Fraction(2) ** shift)


def _relative_bits(iv: Interval) -> float:
    return _log2(max(abs(iv.lo), abs(iv.hi))) - _log2(iv.hi - iv.lo)


_S22, _S105, _X11 = Fraction(11, 5), Fraction(21, 2), Fraction(11, 10)
_PRECISION_CASES = {
    "alpha(2.2)": (
        lambda p: sf.alpha_enclosure(Interval.exact(_S22), p),
        lambda: mpmath.pi ** (_mp(_S22) / 2) / (mpmath.gamma(_mp(_S22) / 2) * mpmath.zeta(_mp(_S22))),
    ),
    "zeta(2.2)": (lambda p: sf.zeta_real_enclosure(Interval.exact(_S22), p), lambda: mpmath.zeta(_mp(_S22))),
    "zeta(21/2)": (lambda p: sf.zeta_real_enclosure(Interval.exact(_S105), p), lambda: mpmath.zeta(_mp(_S105))),
    "Gamma(11/10)": (lambda p: sf.gamma_enclosure(Interval.exact(_X11), p), lambda: mpmath.gamma(_mp(_X11))),
    "L(2.2, chi_5)": (lambda p: sf.dirichlet_L_enclosure(5, Interval.exact(_S22), p), lambda: _mp_L(5, _mp(_S22))),
}
# relative bits the fixed-cut-off series delivered at 64 bits, the only
# precision where they exceeded p - 16 (at 160 bits and above they gave
# 58.6 to 139.4)
_EARLIER_BITS_AT_64 = {
    "alpha(2.2)": 58.63, "zeta(2.2)": 73.57, "zeta(21/2)": 73.00,
    "Gamma(11/10)": 58.63, "L(2.2, chi_5)": 71.57,
}


@pytest.mark.parametrize("prec", [64, 160, 256, 1024])
@pytest.mark.parametrize("name", list(_PRECISION_CASES))
def test_special_functions_deliver_requested_bits(name, prec):
    """The cut-offs follow the request: each enclosure holds the mpmath value
    and delivers at least p - 16 relative bits, and no fewer than before."""
    enclose, oracle = _PRECISION_CASES[name]
    iv = enclose(prec)
    with mpmath.workprec(max(200, prec + 64)):
        assert _contains_mp(iv, oracle())
    floor = max(prec - 16, _EARLIER_BITS_AT_64[name] if prec == 64 else 0)
    assert _relative_bits(iv) >= floor, _relative_bits(iv)


def test_stirling_brackets_factorials():
    """The factorial bracketing encloses n! exactly for n <= 100."""
    for n in range(1, 101):
        lo, hi = sf.stirling_bounds(n, 96)
        fact = math.factorial(n)
        assert lo.hi < fact < hi.lo or (lo.hi <= fact <= hi.lo)


@pytest.mark.parametrize("prec", [64, 256])
def test_half_integer_power_delivers_relative_precision(prec):
    """48^(-21/2) keeps prec relative bits, though its value is near 2^-59."""
    iv = sf.power_product(((Fraction(48), Fraction(-21, 2)),), prec)
    assert _contains_mp(iv, mpmath.mpf(48) ** mpmath.mpf(-10.5))
    assert iv.width() * 2**prec <= iv.lo


# ---------------------------------------------------------------------------
# refinement never widens


def _refinement_cases():
    yield lambda p: sf.pi_enclosure(p)
    yield lambda p: sf.power_product(((sf.EULER, Fraction(46, 100)),), p)
    yield lambda p: sf.power_product(((sf.EULER, Fraction(-2949, 20)),), p)
    yield lambda p: sf.power_product(((sf.EULER, Fraction(-1, 2)),), p)
    yield lambda p: sf.log_power_product(((Fraction(2), 1),), p)
    yield lambda p: sf.log_power_product(((sf.PI, 1),), p)
    yield lambda p: sf.power_product(((sf.EULER, Fraction(1)),), p)
    yield lambda p: sf.log_power_product(((Fraction(2689, 125), 1),), p)
    yield lambda p: sf.log_power_product(((pi_n_coefficient(53), 1),), p)
    yield lambda p: sf.sqrt_enclosure(Interval.exact(5), p)
    yield lambda p: sf.gamma_enclosure(Interval.exact(Fraction(11, 10)), p)
    yield lambda p: sf.zeta_real_enclosure(Interval.exact(Fraction(11, 5)), p)
    yield lambda p: sf.log_power_product(((sf.L(24, Fraction(11, 5)), 1),), p)
    yield lambda p: sf.dirichlet_L_enclosure(5, Interval.exact(2), p)
    yield lambda p: sf.alpha_enclosure(Interval.exact(Fraction(22, 10)), p)
    yield lambda p: sf.power_product(((Fraction(5), Fraction(21, 2)),), p)
    yield lambda p: sf.power_product(_NORMALIZED_O_4_2, p)
    yield lambda p: sf.log_power_product(_COND_C_SIDE, p)
    yield lambda p: sf.log_power_product(sf.alpha_factors(Fraction(11, 5)), p)
    yield lambda p: sf.log_power_product(_RANK3_DENOMINATOR, p)


# the rank-4 normalized bound at degree 2 and the (A, E) table row (6.894, 2.2667),
# 7.6^2 e^(0.92 - 15 E) A^30 Pi(4) / 750, and (log 9.47 - log Pi(4)) / f(4)
_NORMALIZED_O_4_2 = (
    (Fraction(38, 5), 2), (sf.EULER, Fraction(92, 100) - 15 * Fraction(22667, 10000)),
    (Fraction(6894, 1000), 30), (pi_n_coefficient(4), 1), (sf.PI, -20), (Fraction(750), -1),
)
_COND_C_SIDE = (
    (Fraction(947, 100), Fraction(1, 15)), (pi_n_coefficient(4), Fraction(-1, 15)),
    (sf.PI, Fraction(20, 15)),
)
# the rank-3 threshold's denominator 7.5 log A - 12.99 at the table row A = 13.047
_RANK3_DENOMINATOR = ((Fraction(13047, 1000), Fraction(15, 2)), (sf.EULER, Fraction(-1299, 100)))


@pytest.mark.parametrize("make", list(_refinement_cases()))
def test_refinement_never_widens(make):
    previous = None
    for prec in (64, 96, 128, 192, 256):
        current = make(prec)
        if previous is not None:
            assert current.subset_of(previous), prec
        previous = current


def test_point_cache_intersection_is_sound():
    sf._POINT_CACHE.clear()
    wide = sf.power_product(((sf.EULER, Fraction(1)),), 64)
    narrow = sf.power_product(((sf.EULER, Fraction(1)),), 256)
    assert narrow.subset_of(wide)
    assert _contains_mp(narrow, mpmath.e)


def test_point_value_does_not_depend_on_history():
    """x = 1 + 2^-200 lies just above a 72-bit grid point, so a wide and a
    narrow bracket of it round differently at 64 bits.  The 64-bit value is
    the same from a cold cache and after a 256-bit request."""
    x = 1 + Fraction(1, 2**200)

    def kernel(w):  # bounds on 2^w x, one unit either side of the floor
        floor = (x.numerator << w) // x.denominator
        return 0, floor - 1, floor + 2

    try:
        sf._POINT_CACHE.clear()
        cold = sf._cached_point(("synthetic",), 64, kernel)
        sf._POINT_CACHE.clear()
        narrow = sf._cached_point(("synthetic",), 256, kernel)
        assert sf._cached_point(("synthetic",), 64, kernel) == cold
        assert narrow.subset_of(cold) and narrow.lo < x < narrow.hi
    finally:
        sf._POINT_CACHE.clear()


_REFINEMENT_CASES = list(_refinement_cases())


@given(st.sampled_from(range(len(_REFINEMENT_CASES))),
       st.lists(st.integers(min_value=16, max_value=2100), min_size=2, max_size=3, unique=True))
@example(0, [64, 256])
@example(5, [272, 256])
@settings(deadline=None, max_examples=8)
def test_point_cache_is_pure_and_nests(case, precs):
    """Each value equals its cold value, whatever was asked before it, and a
    higher precision never widens, in whatever order the precisions come."""
    make = _REFINEMENT_CASES[case]
    values = {}
    try:
        sf._POINT_CACHE.clear()
        for prec in precs:
            values[prec] = make(prec)
            sf._POINT_CACHE.clear()
            assert make(prec) == values[prec], prec
        ordered = sorted(values)
        for low, high in zip(ordered, ordered[1:]):
            assert values[high].subset_of(values[low]), (low, high)
    finally:
        sf._POINT_CACHE.clear()


# ---------------------------------------------------------------------------
# fixed-point kernels against mpmath at w + 64 bits
#
# Each kernel must bracket 2^w v, and lose at most log2(w) <= 12 of the 32
# guard bits its callers add: hi - lo <= w ulps.

kernel_bits = st.integers(min_value=64, max_value=2100)


def _assert_brackets(lo: int, hi: int, w: int, value) -> None:
    """lo <= 2^w v <= hi, with v = value() evaluated at w + 64 bits."""
    with mpmath.workprec(w + 64):
        assert lo <= mpmath.ldexp(value(), w) <= hi
    assert hi - lo <= w


def _mp(r: Fraction):
    return mpmath.mpf(r.numerator) / r.denominator


@given(st.integers(min_value=0, max_value=2**4400), st.integers(min_value=1, max_value=2**40),
       st.integers(min_value=0, max_value=2200))
@example(0, 1, 0)
@example(2**2200 + 1, 3, 2200)
@example(2**64 * 7 - 1, 7, 64)
def test_ceil_shift_then_divide_is_the_ceiling_quotient(a, k, w):
    """ceil(ceil(a / 2^w) / k) = ceil(a / (k 2^w)), which lets the kernels
    replace each division by k 2^w with a shift and a small division."""
    assert sf._ceil_shift(a, w) == sf._ceil_div(a, 1 << w)
    assert sf._ceil_div(sf._ceil_shift(a, w), k) == sf._ceil_div(a, k << w)


@given(st.fractions(min_value=-1, max_value=1, max_denominator=10**40), kernel_bits)
@example(Fraction(0), 64)
@example(Fraction(1, 2), 2100)
@example(Fraction(-1, 2), 2100)
@example(Fraction(1, 2) - Fraction(1, 10**30), 160)
@example(Fraction(-1, 2) + Fraction(1, 10**30), 64)
@example(Fraction(1), 1056)
@settings(deadline=None)
def test_exp_kernel_brackets(f, w):
    lo, hi = sf._exp_kernel(f.numerator, f.denominator, w)
    _assert_brackets(lo, hi, w, lambda: mpmath.exp(_mp(f)))


@given(st.fractions(min_value=Fraction(-1, 3), max_value=Fraction(1, 3),
                    max_denominator=10**40), kernel_bits)
@example(Fraction(0), 64)
@example(Fraction(1, 3), 2100)
@example(Fraction(-1, 5), 160)
@example(Fraction(1, 7), 544)
# few terms leave the tail bound little slack: at these arguments an upper
# chain that floored its products, or its square of u, would fall below
# 2^w atanh(u)
@example(Fraction(1, 67), 36)
@example(Fraction(10, 53), 12)
@example(Fraction(14653, 211194), 32)
@example(Fraction(1, 32), 9)
@settings(deadline=None)
def test_atanh_kernel_brackets(u, w):
    lo, hi = sf._atanh_kernel(u.numerator, u.denominator, w)
    _assert_brackets(lo, hi, w, lambda: mpmath.atanh(_mp(u)))


@given(st.integers(min_value=1, max_value=2**400),
       st.integers(min_value=1, max_value=2**400), kernel_bits)
@example(1, 1, 64)
@example(2**40, 1, 2100)
@example(1, 2**17, 160)
@example(2, 3, 288)
@example(4, 3, 288)
@example(2 * 10**30 - 1, 3 * 10**30, 100)
@example(4 * 10**30 + 1, 3 * 10**30, 100)
@example(2**9 * 4, 3, 1056)
@example(1, 10**12, 176)
@example(pi_n_coefficient(64).numerator, pi_n_coefficient(64).denominator, 96)
@example(pi_n_coefficient(64).numerator, pi_n_coefficient(64).denominator, 2100)
@settings(deadline=None)
def test_log_kernel_brackets(num, den, w):
    k, lo, hi = sf._log_kernel(num, den, w)
    m = Fraction(num, den) / Fraction(2) ** k
    assert Fraction(2, 3) <= m <= Fraction(4, 3)
    # log1p of the exact m - 1: m itself, rounded to w + 64 bits, loses the
    # low bits of an m within 2^-w of 1
    _assert_brackets(lo, hi, w, lambda: mpmath.log1p(_mp(m - 1)))


@given(kernel_bits)
@example(64)
@example(2100)
@settings(deadline=None)
def test_pi_kernel_brackets(w):
    lo, hi = sf._pi_kernel(w)
    _assert_brackets(lo, hi, w, lambda: +mpmath.pi)


# The kernels below return values of any magnitude, so the oracle runs at
# w + 64 bits plus the bit length of the scaled result.


@given(st.fractions(min_value=-300, max_value=300, max_denominator=10**9),
       st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=1000), kernel_bits)
@example(Fraction(0), Fraction(0), 64)
@example(Fraction(-2949, 20), Fraction(1, 2), 160)
@settings(deadline=None)
def test_exp_fixed_brackets_both_ends(y, d, w):
    """One series at the lower end of [y, y + d] bounds e^y below and
    e^(y + d) above."""
    y_lo = math.floor(y * 2**w)
    y_hi = y_lo + math.floor(d * 2**w)
    n, lo, hi = sf._exp_fixed(y_lo, y_hi, w)
    with mpmath.workprec(w + 64 + max(n, 0)):
        assert lo <= mpmath.ldexp(mpmath.exp(mpmath.ldexp(y_lo, -w)), w - n)
        assert mpmath.ldexp(mpmath.exp(mpmath.ldexp(y_hi, -w)), w - n) <= hi

positive_rationals = st.fractions(min_value=Fraction(1, 10**30), max_value=10**30, max_denominator=10**30)


@given(positive_rationals, st.fractions(min_value=-30, max_value=30, max_denominator=100),
       kernel_bits)
@example(Fraction(48), Fraction(-21, 2), 64)
@example(Fraction(1, 10**30), Fraction(30), 2100)
@settings(deadline=None)
def test_pow_kernel_brackets(x, e, w):
    n, lo, hi = sf._power_kernel(((x, e),), w)
    with mpmath.workprec(w + 64):
        assert lo <= mpmath.ldexp(mpmath.power(_mp(x), _mp(e)), w - n) <= hi
    assert hi - lo <= w


_near_one = st.builds(lambda k, sign: 1 + sign * Fraction(1, 2**k),
                      st.integers(min_value=1, max_value=300), st.sampled_from([1, -1]))
_bases = st.one_of(positive_rationals, _near_one, st.sampled_from([sf.PI, sf.EULER]))
_factor_tables = st.lists(
    st.tuples(_bases, st.fractions(min_value=-50, max_value=50, max_denominator=100)),
    min_size=1, max_size=6,
).map(tuple)


def _mp_log(x):
    if x == sf.ZETA_PRODUCT:
        # the factors j > J that the sum omits change it by less than 4^-J
        terms = range(1, mpmath.mp.prec // 2 + 10)
        return mpmath.fsum(mpmath.log(mpmath.zeta(2 * j)) for j in terms)
    if isinstance(x, tuple) and x[0] == "gamma":
        return mpmath.loggamma(_mp(x[1]))
    if isinstance(x, tuple):
        return mpmath.log(_mp_L(x[1], _mp(x[2])))
    if x == sf.PI:
        return mpmath.log(mpmath.pi)
    return mpmath.mpf(1) if x == sf.EULER else mpmath.log(_mp(x))


@given(_factor_tables, st.integers(min_value=16, max_value=2100))
@example(((Fraction(6894, 1000), 30), (sf.PI, -20), (sf.EULER, Fraction(-34, 1))), 2100)
@example(((1 + Fraction(1, 2**300), Fraction(1, 100)),), 16)
@example(((Fraction(2), 1), (Fraction(4), Fraction(-1, 2))), 64)  # log 2 - log 2 = 0
@settings(deadline=None, max_examples=40)
def test_power_products_against_mpmath(factors, prec):
    """Both enclosures hold the mpmath value.  The product keeps p - 16 bits
    relative to its value, and the log sum p - 16 bits relative to the sum of
    its terms' magnitudes: to its value when no terms cancel."""
    product = sf.power_product(factors, prec)
    log_sum = sf.log_power_product(factors, prec)
    with mpmath.workprec(prec + 800):
        terms = [_mp(Fraction(c)) * _mp_log(x) for x, c in factors]
        assert _contains_mp(product, mpmath.exp(mpmath.fsum(terms)))
        assert _contains_mp(log_sum, mpmath.fsum(terms))
        scale = mpmath.fsum(abs(t) for t in terms)
        assert _mp(log_sum.width()) <= mpmath.ldexp(scale, 16 - prec)
    assert _relative_bits(product) >= prec - 16, _relative_bits(product)


_near_gamma_zeros = st.builds(lambda k, zero, sign: zero + sign * Fraction(1, 2**k),
                              st.integers(min_value=1, max_value=200), st.sampled_from([1, 2]),
                              st.sampled_from([1, -1]))
_gamma_bases = st.one_of(
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
    _near_gamma_zeros,
).map(sf.GAMMA)
_zeta_bases = st.fractions(min_value=Fraction(11, 10), max_value=60,
                           max_denominator=10).map(sf.ZETA)
_L_bases = st.builds(sf.L, st.sampled_from(sf.SUPPORTED_L_MODULI),
                     st.fractions(min_value=Fraction(11, 10), max_value=40, max_denominator=10))
_special_tables = st.lists(
    st.tuples(st.one_of(_zeta_bases, _L_bases, _gamma_bases, positive_rationals, st.just(sf.PI)),
              st.fractions(min_value=-10, max_value=10, max_denominator=10)),
    min_size=1, max_size=4,
).map(tuple)


def _written_bits(r: Fraction) -> int:
    return max(r.numerator.bit_length(), r.denominator.bit_length())


def _near_zero_bits(r: Fraction) -> int:
    """About -log2 |log r| for r near 1: log r is about (r - 1)."""
    return max(r.denominator.bit_length() - abs(r.numerator - r.denominator).bit_length() + 1, 0)


def _oracle_bits(x) -> int:
    """Bits beyond the asked precision at which mpmath holds log x to that
    precision relative to its own size: the bits of the base as written, so
    that its numerator and denominator are exact, and the zero bits of log x
    near 0.  Near its zeros at 1 and 2, lnGamma(x) is about -0.58 (x - 1) or
    0.42 (x - 2); log L(s, chi_D) is about chi_D(m) m^-s, m >= 2 the least
    with chi_D(m) != 0.  Worked out here, not by specfun's ``_near_one_shift``,
    so that the oracle's precision does not come from the code it checks."""
    if x in (sf.PI, sf.EULER, sf.ZETA_PRODUCT):
        return 0
    if not isinstance(x, tuple):
        return _written_bits(x) + _near_zero_bits(x)
    if x[0] == "gamma":
        return _written_bits(x[1]) + max(_near_zero_bits(x[1]), _near_zero_bits(x[1] / 2) + 2)
    _, D, s = x
    m = next(k for k in range(2, D + 2) if sf.dirichlet_character(D, k))
    return _written_bits(s) + math.ceil(s * math.log2(m)) + 1


@given(_special_tables, st.integers(min_value=16, max_value=2100))
@example(sf.alpha_factors(Fraction(11, 5)), 2048)
@example(((sf.ZETA(60), 1),), 64)
@example(((sf.ZETA(60), 1),), 2100)
@example(((sf.GAMMA(1 + Fraction(1, 2**200)), 1),), 16)
@example(((sf.GAMMA(2 - Fraction(1, 2**150)), -3), (sf.PI, Fraction(1, 2))), 1024)
@example(((sf.L(24, 40), 1),), 1024)  # log L near 2^-93: the near-one shift
@example(((sf.L(5, Fraction(11, 10)), 2), (sf.L(13, 3), -1)), 300)
@example(((sf.GAMMA(Fraction(693, 100)), 10),), 16)  # value 2^-128 from the ends, not 2^-(p + 47)
@example(((sf.ZETA(2), 1), (sf.PI, -2), (Fraction(6), 1)), 16)  # zeta(2) = pi^2/6: terms that cancel
@settings(deadline=None, max_examples=25)
def test_gamma_and_zeta_tables_against_mpmath(factors, prec):
    """Tables with Gamma, zeta and L bases keep the promise of the rational ones:
    both enclosures hold the mpmath value, the product keeps p - 16 relative
    bits, and the log sum p - 16 bits relative to its terms' magnitudes.  An
    enclosure's ends lie at least 2^-rung of its magnitude from its value,
    rung <= max(p + 47, 128) (``specfun._cached_point``), and a log sum
    whose terms cancel is a few units of 2^-(rung + 32 + g) wide, g < 24 the
    kernel's guard bits.  So the oracle runs at max(p + 48, 128), plus the
    bits its bases need, plus 128 for those 32 + g, the terms' sizes (below
    2^14) and mpmath's last bits."""
    product = sf.power_product(factors, prec)
    log_sum = sf.log_power_product(factors, prec)
    bits = max(prec + 48, 128) + max(_oracle_bits(x) for x, _ in factors) + 128
    with mpmath.workprec(bits):
        terms = [_mp(Fraction(c)) * _mp_log(x) for x, c in factors]
        assert _contains_mp(product, mpmath.exp(mpmath.fsum(terms)))
        assert _contains_mp(log_sum, mpmath.fsum(terms))
        scale = mpmath.fsum(abs(t) for t in terms)
        assert _mp(log_sum.width()) <= mpmath.ldexp(scale, 16 - prec)
    assert _relative_bits(product) >= prec - 16, _relative_bits(product)


def test_gamma_and_zeta_bases_reject_points_outside_their_domain():
    with pytest.raises(sf.NonPositiveArgument):
        sf.GAMMA(0)
    with pytest.raises(sf.ArgumentNotGreaterThanOne):
        sf.ZETA(1)
    with pytest.raises(sf.UnsupportedModulus):
        sf.L(7, 2)
    with pytest.raises(sf.ArgumentNotGreaterThanOne):
        sf.L(5, 1)


def _zeta_K_2251(prec):
    field = nf.field_by_label(nf.default_catalog(), "2.2.5.1")
    return nf.dedekind_zeta_enclosure(field, 2, prec)


_ONE_POINT_ENCLOSURES = {
    "alpha": (lambda p: sf.alpha_enclosure(Interval.exact(Fraction(11, 5)), p),
              sf.alpha_factors(Fraction(11, 5))),
    "Gamma": (lambda p: sf.gamma_enclosure(Interval.exact(Fraction(11, 10)), p),
              ((sf.GAMMA(Fraction(11, 10)), 1),)),
    "pi": (lambda p: sf.pi_enclosure(p), ((sf.PI, 1),)),
    "zeta": (lambda p: sf.zeta_real_enclosure(Interval.exact(Fraction(11, 5)), p),
             ((sf.ZETA(Fraction(11, 5)), 1),)),
    "L": (lambda p: sf.dirichlet_L_enclosure(5, Interval.exact(2), p), ((sf.L(5, 2), 1),)),
    # zeta_K(2) = r pi^4 / sqrt(5) with r = 2/75 for Q(sqrt 5)
    "zeta_K": (_zeta_K_2251, ((Fraction(2, 75), 1), (sf.PI, 4), (Fraction(5), Fraction(-1, 2)))),
    "zeta_product": (zeta_product_enclosure, ((sf.ZETA_PRODUCT, 1),)),
}


@pytest.mark.parametrize("name", list(_ONE_POINT_ENCLOSURES))
def test_special_values_are_one_point_each(monkeypatch, name):
    """From cold caches, alpha(11/5), Gamma(11/10), pi, zeta(11/5),
    L(2, chi_5), zeta_K(2) of 2.2.5.1 and the zeta product of ``bounds``
    each leave one cached point, of kind exp: the product of their own
    factor table, with no point keyed by an endpoint of an interval and no
    Hurwitz or pi point beside it."""
    monkeypatch.setattr(sf, "_POINT_CACHE", {})
    monkeypatch.setattr(sf, "_LOG_MEMO", {})
    enclose, table = _ONE_POINT_ENCLOSURES[name]
    enclose(256)
    assert list(sf._POINT_CACHE) == [(("exp", table), 256)]


@given(st.one_of(st.just(sf.PI), _zeta_bases, _L_bases, _gamma_bases), kernel_bits)
@example(sf.PI, 2100)
@example(sf.ZETA(Fraction(11, 5)), 2127)
@example(sf.GAMMA(Fraction(11, 10)), 64)
@example(sf.L(24, 40), 128)  # L - 1 is about 5^-40, so log L is near 2^-93
@example(sf.L(5, Fraction(11, 10)), 256)  # the terms of the signed sum nearly cancel
@example(sf.ZETA_PRODUCT, 200)
@settings(deadline=None, max_examples=30)
def test_log_memo_brackets_pi_gamma_and_zeta(x, w):
    """The memo's bounds on 2^w log x for the bases that are not rationals:
    log pi and log L(s, chi_D) are one log series at the kernel's lower end
    plus the bracket's relative width, log Gamma(x) is the Stirling kernel,
    and the log of the zeta product sums a closed-form head and a
    prime-power tail."""
    lo, hi = sf._log_memo(x, w)
    _assert_brackets(lo, hi, w, lambda: _mp_log(x))


_moduli = st.sampled_from((1,) + sf.SUPPORTED_L_MODULI)


@given(st.fractions(min_value=Fraction(11, 10), max_value=40, max_denominator=20),
       _moduli, st.integers(min_value=64, max_value=400))
@example(Fraction(11, 5), 1, 208)
@example(Fraction(117), 24, 81)
@settings(deadline=None, max_examples=40)
def test_L_kernel_brackets(s, D, w):
    lo, hi = sf._L_kernel(D, s, w)
    with mpmath.workprec(w + 64 + hi.bit_length()):
        assert lo <= mpmath.ldexp(_mp_L(D, _mp(s)), w) <= hi
    assert hi - lo <= w


@given(st.fractions(min_value=Fraction(1, 1000), max_value=10**6, max_denominator=1000),
       st.integers(min_value=64, max_value=700))
@example(Fraction(11, 10), 208)
@example(Fraction(1), 64)
@example(Fraction(2), 64)
@settings(deadline=None, max_examples=50)
def test_lngamma_kernel_brackets(x, w):
    lo, hi = sf._lngamma_kernel(x, w)
    with mpmath.workprec(w + 64 + abs(hi).bit_length()):
        assert lo <= mpmath.ldexp(mpmath.loggamma(_mp(x)), w) <= hi
    assert hi - lo <= w


_ZETA_POINTS = [Fraction(11, 10), Fraction(3, 2), Fraction(11, 5), Fraction(21, 2)]
_ZETA_BITS = [64, 300, 1100, 2100]


@lru_cache(maxsize=None)
def _zeta_reference(s: Fraction):
    """zeta(s), once per s, at 72 bits above the largest scale in
    _ZETA_BITS: each zeta(s) here is below 16, so that is 68 bits below the
    kernel's ulp at every scale."""
    with mpmath.workprec(max(_ZETA_BITS) + 72):
        return mpmath.zeta(_mp(s))


@pytest.mark.parametrize("s", _ZETA_POINTS)
@pytest.mark.parametrize("w", _ZETA_BITS)
def test_zeta_kernel_brackets_with_prime_only_terms(s, w):
    """Only m = 1 and the primes take a power kernel, and each composite
    term is a product of two brackets.  The sum still brackets zeta(s), the
    kernel at D = 1, within two ulps per partial-sum term plus 16 for the tail."""
    n_cut = sf._hurwitz_cutoffs(s, Fraction(1), w)[0]
    lo, hi = sf._L_kernel(1, s, w)
    with mpmath.workprec(max(_ZETA_BITS) + 72):
        assert lo <= mpmath.ldexp(_zeta_reference(s), w) <= hi
    assert hi - lo <= 2 * n_cut + 16


@pytest.mark.parametrize("D", [1, 24])
def test_zeta_kernel_runs_power_kernels_for_primes_only(monkeypatch, D):
    """L(11/5, chi_D) at w = 2080, zeta(11/5) at D = 1, runs one power kernel
    for m = 1, one per prime up to the partial sum's end N D and one for
    each of the phi(D) tails (N D + a)^-s, and builds the tangent table
    once.  The power kernel is a stand-in that counts its calls; the
    brackets themselves are checked against mpmath above."""
    s, w = Fraction(11, 5), 2080
    end = D * sf._hurwitz_cutoffs(s, Fraction(1, D), w + (D - 1).bit_length())[0]
    primes = [m for m in range(2, end + 1) if all(m % d for d in range(2, math.isqrt(m) + 1))]
    phi = sum(math.gcd(a, D) == 1 for a in range(1, D + 1))
    monkeypatch.setattr(sf, "_TANGENT_TABLE", ())
    sf._em_coefficient.cache_clear()
    sf.bernoulli_number.cache_clear()
    pow_calls = mock.Mock(return_value=(0, 1, 2))  # n, lo, hi: 2^n [lo, hi] / 2^w
    builds = mock.Mock(wraps=sf._tangent_numbers)
    monkeypatch.setattr(sf, "_power_kernel", pow_calls)
    monkeypatch.setattr(sf, "_tangent_numbers", builds)
    sf._L_kernel(D, s, w)
    assert pow_calls.call_count == 1 + len(primes) + phi
    assert builds.call_count == 1


def test_alpha_builds_the_tangent_table_once(monkeypatch):
    """alpha(11/5) at 2048 bits, from an empty table and cold caches, builds
    the tangent table once: zeta(s), whose Euler-Maclaurin cut-off needs the
    larger index, runs before Gamma(s/2), whose Stirling cut-off fits in it."""
    monkeypatch.setattr(sf, "_TANGENT_TABLE", ())
    monkeypatch.setattr(sf, "_POINT_CACHE", {})
    monkeypatch.setattr(sf, "_LOG_MEMO", {})
    sf._em_coefficient.cache_clear()
    sf.bernoulli_number.cache_clear()
    builds = mock.Mock(wraps=sf._tangent_numbers)
    monkeypatch.setattr(sf, "_tangent_numbers", builds)
    sf.alpha_enclosure(Interval.exact(Fraction(11, 5)), 2048)
    assert builds.call_count == 1


# Cut-offs far below the request widen a bracket but must keep it sound: the
# remainder bounds hold for every N, M, K and shift, not only the derived ones.


@given(st.fractions(min_value=Fraction(11, 10), max_value=12, max_denominator=10),
       _moduli, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
@example(Fraction(11, 10), 1, 1, 1)
@settings(deadline=None, max_examples=60)
def test_L_kernel_sound_at_any_cutoff(s, D, n_cut, terms):
    with mock.patch.object(sf, "_hurwitz_cutoffs", lambda *_: (n_cut, terms)):
        lo, hi = sf._L_kernel(D, s, 64)
    with mpmath.workprec(128 + hi.bit_length()):
        assert lo <= mpmath.ldexp(_mp_L(D, _mp(s)), 64) <= hi


@given(st.fractions(min_value=1, max_value=20, max_denominator=100),
       st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=6))
@example(Fraction(1), 1, 0)
@settings(deadline=None, max_examples=60)
def test_lngamma_kernel_sound_at_any_cutoff(x, terms, shift):
    with mock.patch.object(sf, "_stirling_cutoffs", lambda *_: (terms, shift)):
        lo, hi = sf._lngamma_kernel(x, 64)
    with mpmath.workprec(128 + abs(hi).bit_length()):
        assert lo <= mpmath.ldexp(mpmath.loggamma(_mp(x)), 64) <= hi
