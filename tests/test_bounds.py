"""Tests for the covolume constants, the high-rank bound, and cutoffs."""

from fractions import Fraction

import mpmath
import pytest

from covcert.rigor import Comparison, Interval, iv_compare
from covcert import bounds as b
from covcert import numberfields as nf
from covcert import specfun as sf

mpmath.mp.dps = 50

PREC = 160


def _close(iv: Interval, printed: str, rel=Fraction(1, 200)) -> bool:
    """Enclosure midpoint within the given relative distance of a printed value."""
    target = Fraction(printed)
    return abs(iv.midpoint() - target) <= rel * target


def _mp(r: Fraction) -> "mpmath.mpf":
    return mpmath.mpf(r.numerator) / r.denominator


def _meets_oracle(iv: Interval, value: "mpmath.mpf", digits: int = 55) -> bool:
    """The enclosure meets the oracle's ball of relative radius 10^-digits.

    Enclosures at 256 or 1024 bits are far narrower than a 60-digit oracle,
    so containment is checked up to the oracle's own error.
    """
    eps = abs(value) * mpmath.mpf(10) ** -digits
    return _mp(iv.lo) <= value + eps and value - eps <= _mp(iv.hi)


def _relative_width(iv: Interval) -> Fraction:
    return iv.width() / max(abs(iv.lo), abs(iv.hi))


# Reference interval routes, kept here to cross-check the proof's routes:
# Pi(n) as c_n times a power of the pi enclosure, and Psi(n) as Pi(n) times
# the Euler-Maclaurin enclosures of zeta(2j).


def _pi_n_interval(n: int, prec: int) -> Interval:
    return Interval.exact(b.pi_n_coefficient(n)) * sf.pi_enclosure(prec).pow_int(
        -n * (n + 1)
    )


def _psi_n_interval(n: int, prec: int) -> Interval:
    acc = _pi_n_interval(n, prec)
    for j in range(1, n + 1):
        acc = acc * sf.zeta_real_enclosure(Interval.exact(2 * j), prec)
    return acc


# ---------------------------------------------------------------------------
# Pi, Psi, zeta product


def test_pi_n_coefficients():
    assert b.pi_n_coefficient(2) == Fraction(3, 32)
    assert b.pi_n_coefficient(3) == Fraction(45, 256)


def test_pi_4_printed_value():
    assert _close(_pi_n_interval(4, PREC), "3.9465e-10", Fraction(1, 1000))


def test_psi_exact_values():
    assert b.psi_n_exact(2) == Fraction(1, 5760)
    assert b.psi_n_exact(3) == Fraction(1, 2903040)


def test_psi_interval_contains_exact():
    for n in (2, 3, 4, 5):
        iv = _psi_n_interval(n, PREC)
        assert iv.lo <= b.psi_n_exact(n) <= iv.hi


def test_f_n():
    assert b.f_n(2) == 2
    assert b.f_n(3) == Fraction(15, 2)
    assert b.f_n(4) == 15


def test_zeta_product_bounded():
    enclosure = b.zeta_product_enclosure(PREC)
    assert enclosure.hi < Fraction("1.83")
    assert enclosure.lo > Fraction("1.82")


def test_zeta_product_single_factor():
    """The enclosure holds the full product and is no wider than the bracket
    zeta(2) [1, e^((2/3)/4)] that one closed-form factor and the crude tail
    bound zeta(s) <= 1 + 2^(1-s) give."""
    iv = b.zeta_product_enclosure(PREC)
    with mpmath.workdps(60):
        value = mpmath.exp(mpmath.fsum(mpmath.log(mpmath.zeta(2 * j)) for j in range(1, 111)))
        assert _meets_oracle(iv, value)
    bracket = (
        Interval.exact(sf.zeta_even_exact(1))
        * sf.pi_enclosure(PREC).pow_int(2)
        * Interval(1, sf.power_product(((sf.EULER, Fraction(1, 6)),), PREC).hi)
    )
    assert bracket.lo <= iv.midpoint() <= bracket.hi
    assert iv.width() <= bracket.width()


@pytest.mark.parametrize("J, w", [(1, 8), (1, 24), (5, 40), (20, 100), (64, 300)])
def test_log_zeta_tail_oracle(J, w):
    """The prime-power sum plus its remainder bound brackets 2^w times
    sum_{j>J} log zeta(2j), and its bounds are at most 2 apart."""
    lo, hi = sf._log_zeta_tail(J, w)
    with mpmath.workdps(120):
        value = mpmath.fsum(mpmath.log(mpmath.zeta(2 * j)) for j in range(J + 1, J + 400))
        assert lo <= mpmath.ldexp(value, w) <= hi
    assert hi - lo <= 2


@pytest.mark.parametrize("J, M", [(1, 2), (1, 3), (2, 4), (3, 10), (20, 5)])
def test_log_zeta_tail_sound_at_any_cutoff(J, M, monkeypatch):
    """A cut-off M far below the request widens the tail but keeps it sound:
    the bound on the omitted prime powers holds for every M."""
    monkeypatch.setattr(sf, "_prime_power_cutoff", lambda *_: M)
    lo, hi = sf._log_zeta_tail(J, 300)
    with mpmath.workdps(120):
        value = mpmath.fsum(mpmath.log(mpmath.zeta(2 * j)) for j in range(J + 1, J + 400))
        assert lo <= mpmath.ldexp(value, 300) <= hi


@pytest.mark.parametrize("prec", [16, 64, 256, 1024])
@pytest.mark.parametrize("J", [1, 20])
def test_zeta_product_matches_interval_route(J, prec):
    """The enclosure meets the interval product c pi^(J(J+1)) [1, e^tail] of
    the first J factors and the crude tail bound, and is at least as narrow,
    relative to its magnitude."""
    coeff = Fraction(1)
    for j in range(1, J + 1):
        coeff *= sf.zeta_even_exact(j)
    tail_sum = Fraction(2, 3) * Fraction(1, 4**J)
    tail = Interval(Fraction(1), sf.power_product(((sf.EULER, tail_sum),), 64).hi)
    pi_power = sf.pi_enclosure(prec).pow_int(J * (J + 1))
    reference = (Interval.exact(coeff) * pi_power * tail).coarsen(prec + 8)
    enclosure = b.zeta_product_enclosure(prec)
    assert enclosure.lo <= reference.hi and reference.lo <= enclosure.hi
    assert _relative_width(enclosure) <= _relative_width(reference)


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_zeta_product_oracle(prec):
    """prod_{j>=1} zeta(2j) against 60-digit mpmath; the omitted factors
    beyond j = 110 change its logarithm by less than 4^-110."""
    with mpmath.workdps(60):
        value = mpmath.exp(mpmath.fsum(mpmath.log(mpmath.zeta(2 * j)) for j in range(1, 111)))
        assert _meets_oracle(b.zeta_product_enclosure(prec), value)


def test_zeta_product_cutoff_stays_small_at_high_precision(monkeypatch):
    """At 4096 bits the prime powers of the tail stop below 2^14, and the
    enclosure still delivers the bits asked for."""
    cutoffs = []
    real_cutoff = sf._prime_power_cutoff

    def recording_cutoff(J, w):
        cutoffs.append(real_cutoff(J, w))
        return cutoffs[-1]

    monkeypatch.setattr(sf, "_prime_power_cutoff", recording_cutoff)
    # a cached 4096-bit product, or its cached log, runs no kernel
    monkeypatch.setattr(sf, "_POINT_CACHE", {})
    monkeypatch.setattr(sf, "_LOG_MEMO", {})
    prec = 4096
    iv = b.zeta_product_enclosure(prec)
    assert cutoffs and max(cutoffs) < 2**14
    assert iv.width() * 2**prec <= iv.lo


def test_bounds_binds_no_private_specfun_object():
    """Only specfun decides how a special value is cached and guarded: no
    name in bounds is bound to a private function or cache of specfun."""
    private = [
        value for name, value in vars(sf).items()
        if name.startswith("_") and not name.startswith("__")
        and (callable(value) or isinstance(value, dict))
    ]
    assert [name for name, value in vars(b).items() if any(value is p for p in private)] == []


def test_zeta_product_partial_monotone():
    previous = None
    for J in (1, 2, 5, 10, 20):
        coeff = Fraction(1)
        from covcert.specfun import zeta_even_exact, pi_enclosure

        for j in range(1, J + 1):
            coeff *= zeta_even_exact(j)
        partial = Interval.exact(coeff) * pi_enclosure(PREC).pow_int(J * (J + 1))
        if previous is not None:
            assert partial.lo > previous.hi
        previous = partial


# ---------------------------------------------------------------------------
# S(Lambda) and quotients


def test_s_lambda_Q_collapses_to_psi(catalog):
    """For Q, S(Lambda) = Psi(n): the quotient is the shift 2^(2d-1) = 2 and
    the adjusted quotient at unit index 1 is exactly 1."""
    for n in (2, 3):
        assert b.s_lambda_quotient(catalog[0], n) == Interval.exact(2)
        assert b.adjusted_quotient(catalog[0], n, 1) == Interval.exact(1)


def test_quotient_exact_values(catalog):
    for (d, D), n, value in (
        ((3, 49), 2, Fraction(1568, 79)),
        ((2, 8), 2, Fraction(32, 11)),
        ((2, 5), 2, Fraction(40)),
        ((2, 5), 3, Fraction(200, 67)),
    ):
        field = nf.field_by_discriminant(catalog, d, D)
        assert b.s_lambda_quotient(field, n, PREC) == Interval.exact(value), (D, n)


def test_quotient_interval_matches_exact(catalog):
    """The closed form against Psi(n) 2^(2d-1) / S(Lambda), with S(Lambda)
    built from the specfun series for zeta and L(chi_D) at 160 bits."""
    for D, n in ((5, 2), (8, 2), (5, 3)):
        field = nf.field_by_discriminant(catalog, 2, D)
        S = sf.power_product(((Fraction(D), Fraction(n * (2 * n + 1), 2)),), PREC)
        S = S * _pi_n_interval(n, PREC).pow_int(2)
        for j in range(1, n + 1):
            s = Interval.exact(2 * j)
            S = S * sf.zeta_real_enclosure(s, PREC) * sf.dirichlet_L_enclosure(D, s, PREC)
        series = Interval.exact(b.psi_n_exact(n) * 2**3) / S
        assert series.lo <= b.s_lambda_quotient(field, n).lo <= series.hi, (D, n)


def test_shifted_covolume_printed_values(catalog):
    """S(Lambda) / 2^(2d-1) = Psi(n) / quotient."""
    for (d, D), n, printed in (
        ((2, 5), 2, "4.34e-6"),
        ((3, 49), 2, "8.75e-6"),
        ((2, 5), 3, "1.154e-7"),
    ):
        field = nf.field_by_discriminant(catalog, d, D)
        shifted = Interval.exact(b.psi_n_exact(n)) / b.s_lambda_quotient(field, n)
        assert _close(shifted, printed), (D, n)


def test_quotient_printed_values(catalog):
    f49 = nf.field_by_discriminant(catalog, 3, 49)
    assert _close(b.s_lambda_quotient(f49, 2, PREC), "19.85")


def test_adjusted_quotient_rulings(catalog):
    """Only the discriminant-5 field at rank 2 survives the global stage."""
    cases = [
        ((2, 5), 2, True),
        ((2, 8), 2, False),
        ((3, 49), 2, False),
        ((2, 5), 3, False),
    ]
    for (d, D), n, survives in cases:
        field = nf.field_by_discriminant(catalog, d, D)
        index = nf.totally_positive_index(field)
        adjusted = b.adjusted_quotient(field, n, index, PREC)
        verdict = iv_compare(adjusted, Interval.exact(1))
        expected = (
            Comparison.CERTAINLY_GREATER if survives else Comparison.CERTAINLY_LESS
        )
        assert verdict is expected, (d, D, n)


def test_adjusted_quotient_exact_survivor(catalog):
    f5 = nf.field_by_discriminant(catalog, 2, 5)
    assert b.adjusted_quotient(f5, 2, nf.totally_positive_index(f5)) == Interval.exact(5)


# ---------------------------------------------------------------------------
# feasibility conditions and the high-rank bound in logarithms


def test_lemma35_conditions_examples():
    good = b.OdlyzkoPair(Fraction("6.894"), Fraction("2.2667"))
    assert b.lemma35_conditions(good, PREC) == {
        "cond_a": True,
        "cond_b": True,
        "cond_c": True,
    }
    low_A = b.OdlyzkoPair(Fraction(5), Fraction("2.2667"))
    assert not b.lemma35_conditions(low_A, PREC)["cond_b"]
    big_E = b.OdlyzkoPair(Fraction("6.894"), Fraction(10))
    verdicts = b.lemma35_conditions(big_E, PREC)
    assert not verdicts["cond_a"]
    assert verdicts["cond_b"]


def test_normalized_O_exceeds_threshold():
    pair = b.OdlyzkoPair(Fraction("6.894"), Fraction("2.2667"))
    assert b.normalized_O(4, 2, pair, PREC).lo > Fraction("1.83")


@pytest.mark.parametrize("prec", [16, 64, 256])
def test_log_differences_oracle(prec):
    """The differences at rank 4 enclose those of log inner(n) and of log
    normalized O(n, 2) at n = 4, 5, 6, evaluated with mpmath 64 bits beyond p."""
    A, E = Fraction("6.894"), Fraction("2.2667")
    with mpmath.workprec(prec + 64):
        log_A = mpmath.log(mpmath.mpf(A.numerator) / A.denominator)
        E_mp = mpmath.mpf(E.numerator) / E.denominator

        def log_pi_n(n):
            log_2pi = mpmath.log(2 * mpmath.pi)
            return mpmath.fsum(
                mpmath.log(mpmath.factorial(2 * j - 1)) - 2 * j * log_2pi for j in range(1, n + 1)
            )

        def f(n):
            return n * n + mpmath.mpf(n) / 2 - 3

        for (a_A, a_E), a in (((A, 0), log_A), ((A * A, E), 2 * log_A - E_mp)):
            l4, l5, l6 = (f(n) * a + log_pi_n(n) for n in (4, 5, 6))
            first, second = b.log_differences(a_A, a_E, prec)
            for iv, value in ((first, l5 - l4), (second, l6 - 2 * l5 + l4)):
                lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
                hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
                assert lo <= value <= hi, (a_A, prec)
                assert (iv.hi - iv.lo) * 2 ** (prec - 16) <= abs(iv.lo)


def test_rank_four_induction_agrees_with_the_chain():
    """What the induction from rank 4 concludes, checked rank by rank up to 16:
    the log inner factor and the normalized bound increase with the rank, and
    the bound stays above 1.83."""
    pair = b.OdlyzkoPair(Fraction("6.894"), Fraction("2.2667"))
    inner = [b.log_inner_factor(n, pair.A, 64) for n in range(4, 17)]
    bound = [b.normalized_O(n, 2, pair, 64) for n in range(4, 17)]
    for values in (inner, bound):
        assert all(x.hi < y.lo for x, y in zip(values, values[1:]))
    assert inner[0].lo > 0 and bound[0].lo > Fraction("1.83")


def test_inner_factor_oracle():
    """log Pi(n) and log(7.6 e^0.46 A^f(n) Pi(n)) against 60-digit mpmath."""
    A = Fraction("6.894")
    with mpmath.workdps(60):
        log_A = mpmath.log(mpmath.mpf(A.numerator) / A.denominator)
        log_2pi = mpmath.log(2 * mpmath.pi)
        for n in (4, 33, 64):
            log_pi_n = mpmath.fsum(
                mpmath.log(mpmath.factorial(2 * j - 1)) - 2 * j * log_2pi
                for j in range(1, n + 1)
            )
            f = n * n + mpmath.mpf(n) / 2 - 3
            log_inner = (
                mpmath.log(mpmath.mpf("7.6")) + mpmath.mpf("0.46") + f * log_A + log_pi_n
            )
            for iv, value in (
                (sf.log_power_product(b._pi_n(n), PREC), log_pi_n),
                (b.log_inner_factor(n, A, PREC), log_inner),
            ):
                lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
                hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
                assert lo <= value <= hi, n


def test_claim_b_range():
    """The inner factor 7.6 e^0.46 A^f(n) Pi(n) exceeds one."""
    pair = b.OdlyzkoPair(Fraction("6.894"), Fraction("2.2667"))
    for n in range(3, 15):
        assert b.log_inner_factor(n, pair.A, PREC).lo > 0, n


# ---------------------------------------------------------------------------
# discriminant cutoffs


@pytest.mark.parametrize(
    "n,d,printed",
    [
        (3, 2, "5.277"),
        (3, 3, "28.087"),
        (2, 2, "8.220"),
        (2, 3, "59.879"),
        (2, 4, "436.18"),
        (2, 5, "3177.29"),
    ],
)
def test_proto_D_bound_values(n, d, printed):
    assert _close(b.proto_D_bound(n, d, 1, PREC), printed)


def _cutoff_oracle(coeff, n: int, d: int, exponent) -> "mpmath.mpf":
    """(coeff Pi(n)^(1-d))^exponent, with Pi(n) = prod_j (2j-1)! / (2 pi)^(2j)."""
    pi_n = mpmath.fprod(
        mpmath.factorial(2 * j - 1) / (2 * mpmath.pi) ** (2 * j) for j in range(1, n + 1)
    )
    return (_mp(Fraction(coeff)) * pi_n ** (1 - d)) ** _mp(Fraction(exponent))


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_cutoff_oracle(prec):
    """The cutoffs the proof records, against 60-digit mpmath."""
    with mpmath.workdps(60):
        for n, d in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)):
            coeff = b.ZETA_PRODUCT_UPPER * b._proto_multiplier(n, d)
            value = _cutoff_oracle(coeff, n, d, Fraction(2, n * (2 * n + 1)))
            assert _meets_oracle(b.proto_D_bound(n, d, 1, prec), value), (n, d)
        for d in (2, 3):
            coeff = Fraction("1372.5") * (Fraction("7.6") * Fraction("1.58")) ** -d
            value = _cutoff_oracle(coeff, 3, d, Fraction(2, 15))
            assert _meets_oracle(b.n3_D_bound(d, prec), value), d


def test_proto_D_bound_monotone_in_h():
    small = b.proto_D_bound(2, 2, 1, PREC)
    large = b.proto_D_bound(2, 2, 3, PREC)
    assert large.lo > small.hi


def test_proto_D_bound_integer_floors():
    assert int(b.proto_D_bound(2, 3, 1, PREC).hi) == 59
    assert int(b.proto_D_bound(2, 2, 1, PREC).hi) == 8


def test_n3_D_bound_values():
    d2 = b.n3_D_bound(2, PREC)
    d3 = b.n3_D_bound(3, PREC)
    assert abs(d2.midpoint() - Fraction("10.63")) < Fraction(1, 50)
    assert abs(d3.midpoint() - Fraction("60.09")) < Fraction(1, 50)
    assert d2.hi < 49  # no quadratic field with D >= 11 survives at rank 3


@pytest.mark.parametrize(
    "d,printed",
    [(2, "25.74"), (3, "231.65"), (4, "2084.50"), (5, "18757.18")],
)
def test_n2_D_bound_values(d, printed):
    iv = b.n2_D_bound(d, PREC)
    assert abs(iv.midpoint() - Fraction(printed)) < Fraction(1, 50)


def test_n3_degree_threshold():
    pair = b.OdlyzkoPair(Fraction("13.047"), Fraction("3.8667"))
    iv = b.n3_degree_threshold(pair, PREC)
    assert abs(iv.midpoint() - Fraction("3.31")) < Fraction(1, 50)
    with pytest.raises(b.DenominatorNotPositive):
        b.n3_degree_threshold(b.OdlyzkoPair(Fraction(2), Fraction(2)), PREC)


def test_cutoff_preconditions():
    with pytest.raises(ValueError):
        b.n3_D_bound(4, PREC)
    with pytest.raises(ValueError):
        b.n2_D_bound(6, PREC)
    with pytest.raises(ValueError):
        b.proto_D_bound(1, 2, 1, PREC)


# ---------------------------------------------------------------------------
# table loading


def test_table_contents(table):
    assert len(table) == 32
    pairs = {(p.A, p.E) for p in table}
    assert (Fraction("6.894"), Fraction("2.2667")) in pairs
    assert (Fraction("13.047"), Fraction("3.8667")) in pairs
    assert (Fraction("21.512"), Fraction("6.0001")) in pairs
    assert all(p.A > 1 and p.E > 0 for p in table)
    As = [p.A for p in table]
    assert As == sorted(As)


def test_pair_invariants():
    with pytest.raises(ValueError):
        b.OdlyzkoPair(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        b.OdlyzkoPair(Fraction(2), Fraction(0))


def test_malformed_table(tmp_path):
    p = tmp_path / "odlyzko.csv"
    p.write_text("4.816,1.4136\nbadline\n")
    with pytest.raises(b.MalformedTable):
        b.load_odlyzko_table(str(p))
    with pytest.raises(FileNotFoundError):
        b.load_odlyzko_table(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize(
    "field", ["1e5000", "5E1", "-5", "+5", "1/2", "5.", ".5", " 5", "1_000", "٥", "inf", "0"]
)
def test_table_fields_are_plain_decimals(tmp_path, field):
    """A table field is digits with an optional fraction part: no exponent
    (which Fraction would expand), sign, ratio, underscore or non-ASCII digit.
    A plain decimal that breaks a pair invariant, as E = 0, is malformed too."""
    p = tmp_path / "odlyzko.csv"
    p.write_text(f"4.816,1.4136\n5.252,{field}\n")
    with pytest.raises(b.MalformedTable, match="line 2"):
        b.load_odlyzko_table(str(p))
    p.write_text("4.816,1.4136\n12,3\n")
    assert b.load_odlyzko_table(str(p))[1] == b.OdlyzkoPair(12, 3)
