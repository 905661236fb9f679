"""Tests for the certified grid searches."""

import random
from fractions import Fraction

import pytest

from covcert import certifier
from covcert import optimizer as opt
from covcert.bounds import (
    DenominatorNotPositive,
    NonPositiveT,
    OdlyzkoPair,
    n2_degree_threshold,
)

PREC = 160

N2_TARGET = Fraction("5.5535611217287")


def test_n2_rhs_at_optimum(table):
    pair = OdlyzkoPair(Fraction("21.512"), Fraction("6.0001"))
    iv = n2_degree_threshold(pair, Fraction(6, 5), PREC)
    assert abs(iv.midpoint() - N2_TARGET) < Fraction(1, 10**6)
    assert iv.width() < Fraction(1, 10**9)


def test_n2_rhs_rejects_nonpositive_t():
    pair = OdlyzkoPair(Fraction("21.512"), Fraction("6.0001"))
    with pytest.raises(NonPositiveT):
        n2_degree_threshold(pair, Fraction(0), PREC)
    with pytest.raises(NonPositiveT):
        n2_degree_threshold(pair, Fraction(-1), PREC)


def test_n2_rhs_infeasible_base():
    # for A barely above 1 and large t the base eta * A^(4.5-t/2) * alpha
    # drops below one and the threshold is meaningless
    pair = OdlyzkoPair(Fraction(101, 100), Fraction(1))
    with pytest.raises(DenominatorNotPositive):
        n2_degree_threshold(pair, Fraction(1, 10), PREC)


def test_default_t_grid():
    grid = opt.default_t_grid()
    assert grid[0] == Fraction(1, 10)
    assert grid[-1] == Fraction(249, 10)
    assert len(grid) == 249


def test_empty_table_rejected():
    with pytest.raises(opt.EmptyTable):
        opt.optimize_n2([], precision_bits=PREC)
    with pytest.raises(opt.EmptyTable):
        opt.optimize_n3([], precision_bits=PREC)


def test_optimize_n2_full_table(table):
    result = opt.optimize_n2(table, precision_bits=PREC)
    assert result.best_pair == OdlyzkoPair(Fraction("21.512"), Fraction("6.0001"))
    assert result.best_t == Fraction(6, 5)
    # the proof checks this point instead of repeating the search
    assert (result.best_pair.A, result.best_pair.E, result.best_t) == certifier.N2_WITNESS
    assert result.ties == ()
    assert result.rows_scanned == 32
    assert abs(result.best_value.midpoint() - N2_TARGET) < Fraction(1, 10**6)
    # the certified optimum excludes degree 6 and above at rank 2
    assert result.best_value.hi < 6


def test_optimize_n2_order_independent(table):
    """Scan order never changes the selected minimum."""
    baseline = opt.optimize_n2(table, precision_bits=PREC)
    shuffled = list(table)
    random.Random(5).shuffle(shuffled)
    for variant in (list(reversed(table)), shuffled):
        result = opt.optimize_n2(variant, precision_bits=PREC)
        assert result.best_pair == baseline.best_pair
        assert result.best_t == baseline.best_t
        assert result.best_value == baseline.best_value
        assert result.ties == baseline.ties


def test_optimize_n2_single_row():
    row = OdlyzkoPair(Fraction("21.512"), Fraction("6.0001"))
    result = opt.optimize_n2([row], t_grid=[Fraction(6, 5)], precision_bits=PREC)
    assert result.best_pair == row
    assert abs(result.best_value.midpoint() - N2_TARGET) < Fraction(1, 10**6)


def test_optimize_n2_finer_grid_barely_improves(table):
    """Refining the t grid near the optimum moves the value by < 0.05."""
    best_pair = OdlyzkoPair(Fraction("21.512"), Fraction("6.0001"))
    fine = [Fraction(k, 100) for k in range(100, 141)]
    result = opt.optimize_n2([best_pair], t_grid=fine, precision_bits=PREC)
    assert result.best_value.hi <= N2_TARGET + Fraction(1, 10**6)
    assert result.best_value.lo > N2_TARGET - Fraction(5, 100)


def test_optimize_n3_full_table(table):
    result = opt.optimize_n3(table, precision_bits=PREC)
    assert result.best_pair == OdlyzkoPair(Fraction("13.047"), Fraction("3.8667"))
    assert result.best_t is None
    assert result.ties == ()
    assert abs(result.best_value.midpoint() - Fraction("3.31")) < Fraction(1, 50)
    assert result.best_value.hi < 4


def test_optimize_n3_without_best_row(table):
    best = OdlyzkoPair(Fraction("13.047"), Fraction("3.8667"))
    reduced = [p for p in table if p != best]
    result = opt.optimize_n3(reduced, precision_bits=PREC)
    full = opt.optimize_n3(table, precision_bits=PREC)
    assert result.best_value.lo > full.best_value.hi
