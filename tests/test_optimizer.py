"""Tests for the certified grid searches."""

import random
from fractions import Fraction

import pytest

from covcert import certifier, cli
from covcert import optimizer as opt
from covcert.bounds import (
    DenominatorNotPositive,
    NonPositiveT,
    OdlyzkoPair,
    n2_degree_threshold,
)
from covcert.rigor import Interval

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
    assert (result.best_pair, result.best_t) == certifier.N2_WITNESS
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
    result = opt._search([row], [Fraction(6, 5)], n2_degree_threshold, PREC)
    assert result.best_pair == row
    assert abs(result.best_value.midpoint() - N2_TARGET) < Fraction(1, 10**6)


def test_optimize_n2_finer_grid_barely_improves(table):
    """Refining the t grid near the optimum moves the value by < 0.05."""
    best_pair = OdlyzkoPair(Fraction("21.512"), Fraction("6.0001"))
    fine = [Fraction(k, 100) for k in range(100, 141)]
    result = opt._search([best_pair], fine, n2_degree_threshold, PREC)
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


def _point_values(values):
    """An ``evaluate`` over points (A, 0, None) that records each call's
    precision and returns the interval ``values`` holds for A, or None."""
    calls = []

    def evaluate(key, prec):
        calls.append(prec)
        return values[key[0]]

    return evaluate, calls


def test_minimize_ties_at_the_asked_precision():
    """A point whose enclosure overlaps the running minimum is a tie, and
    every point is evaluated once, at the asked precision."""
    values = {
        Fraction(1): Interval(Fraction(5), Fraction(6)),
        Fraction(2): Interval(Fraction(11, 2), Fraction(7)),  # overlaps 1's
        Fraction(3): None,  # infeasible
        Fraction(4): Interval(Fraction(7), Fraction(8)),  # certainly greater
    }
    evaluate, calls = _point_values(values)
    points = [(A, Fraction(0), None) for A in values]
    best_val, best_key, ties = opt._minimize(points, evaluate, 32)
    assert (best_val, best_key) == (values[Fraction(1)], points[0])
    assert ties == [points[1]]
    assert calls == [32] * 4


def test_minimize_strictly_less_clears_the_ties():
    """A point certainly below the running minimum replaces it and drops the
    ties recorded against the old one."""
    values = {
        Fraction(1): Interval(Fraction(5), Fraction(6)),
        Fraction(2): Interval(Fraction(11, 2), Fraction(7)),  # ties with 1
        Fraction(3): Interval(Fraction(1), Fraction(2)),  # certainly less
    }
    evaluate, calls = _point_values(values)
    points = [(A, Fraction(0), None) for A in values]
    best_val, best_key, ties = opt._minimize(points, evaluate, 32)
    assert (best_val, best_key, ties) == (values[Fraction(3)], points[2], [])
    assert calls == [32] * 3


def _optimize(tmp_path, capsys, rows, *args):
    path = tmp_path / "table.csv"
    path.write_text("".join(f"{A},{E}\n" for A, E in rows))
    rc = cli.main(["optimize", *args, "--odlyzko", str(path)])
    return rc, capsys.readouterr().out


NEAR_TIED = [("13.047", "3.8667"), ("13.047", "3.86670000001")]


def test_optimize_reports_a_tie_at_the_asked_precision(tmp_path, capsys):
    """Two rows whose rank-3 thresholds overlap at 16 bits tie there, and
    exit 4; at 64 bits they are told apart and the smaller wins."""
    rc, out = _optimize(tmp_path, capsys, NEAR_TIED, "--case", "n3", "--precision", "16")
    assert rc == cli.EXIT_TIE
    assert "unresolved ties: 1\n" in out
    rc, out = _optimize(tmp_path, capsys, NEAR_TIED, "--case", "n3", "--precision", "64")
    assert rc == cli.EXIT_OK
    assert "best pair: A = 13047/1000, E = 38667/10000\n" in out
    assert "unresolved ties" not in out


@pytest.mark.parametrize(
    "case, row", [("n3", ("13.047", "3.8667")), ("n2", ("21.512", "6.0001"))]
)
def test_optimize_scans_a_repeated_row_once(tmp_path, capsys, case, row):
    """A row given twice is one point, not a tie with itself; rows scanned
    still counts the table's rows."""
    rc, out = _optimize(tmp_path, capsys, [row, row], "--case", case)
    assert rc == cli.EXIT_OK
    assert "unresolved ties" not in out
    assert "rows scanned: 2\n" in out
