"""Property tests for the interval arithmetic substrate."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covcert import certifier, report
from covcert.numberfields import InvariantViolation, NumberFieldRecord
from covcert.report import Enclosure
from covcert.rigor import (
    Comparison,
    DivisionByIntervalContainingZero,
    Interval,
    coarsen_relative,
    iv_arith,
    iv_compare,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=10**6
)


def _rand_fraction(rng, span=1000, den=10**6):
    return Fraction(rng.randint(-span * den, span * den), rng.randint(1, den))


def _rand_interval(rng):
    a, b = _rand_fraction(rng), _rand_fraction(rng)
    return Interval(min(a, b), max(a, b))


def _widen(rng, iv):
    pad_lo = abs(_rand_fraction(rng, span=1))
    pad_hi = abs(_rand_fraction(rng, span=1))
    return Interval(iv.lo - pad_lo, iv.hi + pad_hi)


BINARY_OPS = ("add", "sub", "mul")


def test_inclusion_monotonicity_randomized():
    """a <= a', b <= b' implies op(a,b) <= op(a',b'), 10^4 random cases."""
    rng = random.Random(20260823)
    for case in range(10_000):
        op = BINARY_OPS[case % len(BINARY_OPS)]
        a, b = _rand_interval(rng), _rand_interval(rng)
        a_wide, b_wide = _widen(rng, a), _widen(rng, b)
        narrow = iv_arith(op, a, b)
        wide = iv_arith(op, a_wide, b_wide)
        assert narrow.subset_of(wide), (op, a, b)


def test_containment_soundness_randomized():
    rng = random.Random(7)
    for case in range(2_000):
        op = BINARY_OPS[case % len(BINARY_OPS)]
        a, b = _rand_interval(rng), _rand_interval(rng)
        # random rational points inside each interval
        ta = Fraction(rng.randint(0, 1000), 1000)
        tb = Fraction(rng.randint(0, 1000), 1000)
        x = a.lo + ta * (a.hi - a.lo)
        y = b.lo + tb * (b.hi - b.lo)
        exact = {"add": x + y, "sub": x - y, "mul": x * y}[op]
        iv = iv_arith(op, a, b)
        assert iv.lo <= exact <= iv.hi


def test_division_soundness_randomized():
    rng = random.Random(11)
    checked = 0
    while checked < 1_000:
        a, b = _rand_interval(rng), _rand_interval(rng)
        if b.contains_zero():
            with pytest.raises(DivisionByIntervalContainingZero):
                iv_arith("div", a, b)
            continue
        x = a.midpoint()
        y = b.midpoint()
        iv = iv_arith("div", a, b)
        assert iv.lo <= x / y <= iv.hi
        checked += 1


@given(rationals)
def test_exact_embedding(r):
    iv = Interval.exact(r)
    assert iv.lo == iv.hi == r
    assert iv.is_point()


@given(rationals, rationals)
def test_canonical_form(a, b):
    """Fraction endpoints are always in lowest terms with positive denominator."""
    iv = Interval(min(a, b), max(a, b))
    from math import gcd

    for end in (iv.lo, iv.hi):
        assert end.denominator > 0
        assert gcd(abs(end.numerator), end.denominator) == 1


@given(rationals, rationals, rationals, rationals)
def test_compare_trichotomy(a, b, c, d):
    x = Interval(min(a, b), max(a, b))
    y = Interval(min(c, d), max(c, d))
    verdict = iv_compare(x, y)
    if verdict is Comparison.CERTAINLY_LESS:
        assert x.hi < y.lo
    elif verdict is Comparison.CERTAINLY_GREATER:
        assert x.lo > y.hi
    else:
        assert not (x.hi < y.lo or x.lo > y.hi)


def test_compare_examples():
    assert iv_compare(Interval(1, 2), Interval(3, 4)) is Comparison.CERTAINLY_LESS
    assert iv_compare(Interval(1, 3), Interval(2, 4)) is Comparison.OVERLAP
    assert iv_compare(Interval(5, 6), Interval(1, 2)) is Comparison.CERTAINLY_GREATER


def test_compare_returns_the_relation_a_report_records():
    """``compare`` returns the very string that ``render`` records and a
    JSON report holds, for each of the three outcomes: a rank-3 proof
    whose zeta product enclosure is moved onto its bound 1.83 overlaps."""
    assert iv_compare is report.compare
    proof = certifier.run_case(3, precision_bits=64)
    evidence = {s.id: (s.anchor, s.enclosures) for s in proof.steps}
    bound = Enclosure(report.ZETA_PRODUCT_UPPER, report.ZETA_PRODUCT_UPPER)
    evidence["zeta_product_bound"] = (None, [bound])
    cert = report.render(3, 64, evidence)
    doc = json.loads(report.emit_report(cert))
    recorded = []
    for step, step_doc in zip(cert.steps, doc["steps"], strict=True):
        for c, c_doc in zip(step.comparisons, step_doc["comparisons"], strict=True):
            assert type(c.relation) is str
            assert c.relation == report.compare(c.lhs, c.rhs) == c_doc["relation"]
            recorded.append(c.relation)
    assert set(recorded) == {"CertainlyLess", "CertainlyGreater", "Overlap"}


def test_arith_examples():
    assert iv_arith("add", Interval(1, 2), Interval(3, 4)) == Interval(4, 6)
    assert iv_arith("mul", Interval(-1, 2), Interval(3, 4)) == Interval(-4, 8)
    assert Interval(2, 2).pow_int(5) == Interval(32, 32)


def test_pow_int_even_straddle():
    assert Interval(-2, 3).pow_int(2) == Interval(0, 9)
    assert Interval(-3, -2).pow_int(2) == Interval(4, 9)
    assert Interval(-2, 3).pow_int(3) == Interval(-8, 27)


def test_pow_int_negative_exponent():
    assert Interval(2, 4).pow_int(-1) == Interval(Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(DivisionByIntervalContainingZero):
        Interval(-1, 1).pow_int(-2)


def test_invalid_interval_rejected():
    """Values are checked once, at construction, and cannot change after it."""
    with pytest.raises(ValueError):
        Interval(2, 1)
    iv = Interval(1, 2)
    with pytest.raises(AttributeError):
        iv.lo = Fraction(3)
    assert iv == Interval(Fraction(1), Fraction(2)) and iv != Interval(1, 3)
    assert hash(iv) == hash(Interval(Fraction(2, 2), 2))
    assert iv != (1, 2) and iv != Enclosure(Fraction(1), Fraction(2))
    third = Interval(Fraction(1, 3), Fraction(2, 3))
    assert eval(repr(third), {"Interval": Interval, "Fraction": Fraction}) == third
    with pytest.raises(InvariantViolation):
        NumberFieldRecord("2.2.5.1", 2, 5, 1, (-1, -1, 2))  # not monic


@given(rationals, rationals, st.integers(min_value=8, max_value=128))
def test_coarsen_sound_and_idempotent(a, b, bits):
    iv = Interval(min(a, b), max(a, b))
    rounded = iv.coarsen(bits)
    assert iv.subset_of(rounded)
    assert rounded.coarsen(bits) == rounded


def test_coarsen_relative_preserves_tiny_values():
    tiny = Fraction(1, 10**80)
    iv = Interval(tiny, tiny * Fraction(10**9 + 1, 10**9))
    rounded = coarsen_relative(iv, 64)
    assert iv.subset_of(rounded)
    assert rounded.lo > 0
    assert rounded.width() / rounded.lo < Fraction(1, 10**6)


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        iv_arith("nope", Interval(0, 1), Interval(0, 1))
    with pytest.raises(TypeError):
        iv_arith("add", Interval(0, 1), 3)
    with pytest.raises(ValueError):
        iv_arith("pow_int", Interval(0, 1), Interval(0, 1))


@st.composite
def endpoint_texts(draw):
    """An endpoint spelled -?[0-9]+ or -?[0-9]+/[0-9]+: small or of up to 4001
    digits, reduced or not, zero also as -0 or 0/q."""
    big = 10**4000 - 1
    num = draw(st.one_of(st.integers(-50, 50), st.integers(-big, big)))
    if draw(st.booleans()):
        return ("-" if num < 0 or draw(st.booleans()) else "") + str(abs(num))
    den = draw(st.one_of(st.integers(1, 50), st.integers(1, big)))
    k = draw(st.integers(1, 12))  # a common factor, so that 2/4 and 0/7 occur
    return ("-" if num < 0 else "") + f"{abs(num) * k}/{den * k}"


@settings(max_examples=200, deadline=None)
@given(st.lists(endpoint_texts(), min_size=4, max_size=4))
def test_checker_relation_is_fraction_order(texts):
    """The checker parses endpoints into integer pairs and decides order and
    equality by cross-multiplication: the same answers as ``Fraction``, on
    endpoints and on intervals, its own ``Enclosure`` or the prover's
    ``Interval``."""
    x, y = (report._endpoint(t) for t in texts[:2])
    fx, fy = (Fraction(t) for t in texts[:2])
    assert report._below(x, y) == (fx < fy) and report._below(y, x) == (fy < fx)
    assert report._equal(x, y) == (x == y) == (fx == fy) == (x == fy)
    fa_lo, fa_hi, fb_lo, fb_hi = (Fraction(t) for t in texts)
    a_lo, a_hi = sorted(texts[:2], key=Fraction)
    b_lo, b_hi = sorted(texts[2:], key=Fraction)
    a = report._parse_interval([a_lo, a_hi])
    b = report._parse_interval([b_lo, b_hi])
    a_iv = Interval(Fraction(a_lo), Fraction(a_hi))
    b_iv = Interval(Fraction(b_lo), Fraction(b_hi))
    if a_iv.hi < b_iv.lo:
        expected = Comparison.CERTAINLY_LESS
    elif a_iv.lo > b_iv.hi:
        expected = Comparison.CERTAINLY_GREATER
    else:
        expected = Comparison.OVERLAP
    assert report.compare(a, b) == report.compare(a_iv, b_iv) == expected
    assert report.compare(a, b_iv) == report.compare(a_iv, b) == expected
    if fa_lo != fa_hi:
        with pytest.raises(report.SchemaMismatch, match="does not parse"):
            report._parse_interval([a_hi, a_lo])


@pytest.mark.parametrize("pair", [["1/0", "1"], ["0", "-0/0"], ["2", "1"], ["1/2", "1/3"],
                                  ["-1/3", "-1/2"], ["0/7", "-1"]])
def test_checker_rejects_a_zero_denominator_and_lo_above_hi(pair):
    with pytest.raises(report.SchemaMismatch, match="does not parse"):
        report._parse_interval(pair)


def test_checker_endpoint_has_no_order():
    """A checker endpoint has value equality but no order: ``<`` and
    ``sorted`` refuse it, so no ordering of its fields can decide a
    comparison in its place."""
    x, y = report._endpoint("2/4"), report._endpoint("1/3")
    assert x == report._endpoint("1/2") == Fraction(1, 2) and x != y
    assert report._endpoint("-0") == report._endpoint("0/7") == 0
    for relation in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y,
                     lambda: x < Fraction(1), lambda: sorted([x, y])):
        with pytest.raises(TypeError):
            relation()
    with pytest.raises(TypeError):
        hash(x)
