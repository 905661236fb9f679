"""Tests for the local-factor arithmetic and the rank-2 exclusion chain."""

from fractions import Fraction

import pytest

from covcert.rigor import Comparison, Interval
from covcert import localfactors as lf
from covcert import report


def test_T_factor_values():
    assert lf.T_factor(2) == Fraction(5, 2)
    assert lf.T_factor(3) == 10
    assert lf.T_factor(4) == Fraction(51, 2)


def test_T_factor_exceeds_25_from_4():
    for q in range(4, 1001):
        assert lf.T_factor(q) > 25, q


def test_T_factor_rejects_small_q():
    with pytest.raises(ValueError):
        lf.T_factor(1)


def test_eprime_special_examples():
    assert lf.eprime_special(3, 2) == 35
    assert lf.eprime_special(2, 2) == 3
    assert lf.eprime_special(2, 3) == 8


def test_eprime_special_integrality():
    for q in range(2, 17):
        for n in range(2, 9):
            value = lf.eprime_special(n, q)
            assert isinstance(value, int)
            assert value >= 1, (n, q)


def test_h_rigidity_values():
    # h(2, 3) ~ 3.69 and h(3, 3) ~ 17.75
    h23 = lf.h_rigidity(2, 3)
    assert abs(h23.midpoint() - Fraction("3.69")) < Fraction(1, 50)
    h33 = lf.h_rigidity(3, 3)
    assert abs(h33.midpoint() - Fraction("17.75")) < Fraction(1, 50)
    # the closed form gives h(3, 2) = 160/27
    assert lf.h_rigidity(3, 2) == Interval.exact(Fraction(160, 27))


def test_h_rigidity_monotone():
    for n in range(1, 9):
        for q in range(2, 16):
            assert lf.h_rigidity(q + 1, n).lo > lf.h_rigidity(q, n).hi, (q, n)
    for q in range(2, 17):
        for n in range(1, 8):
            assert lf.h_rigidity(q, n + 1).lo > lf.h_rigidity(q, n).hi, (q, n)


def test_h_below_special_factor():
    for q in range(2, 17):
        for n in range(2, 9):
            assert lf.h_rigidity(q, n).hi <= lf.eprime_special(n, q), (q, n)


def test_nonspecial_gt_two():
    for q in range(2, 17):
        for n in range(2, 9):
            assert lf.nonspecial_gt_two(q, n) is Comparison.CERTAINLY_GREATER, (q, n)


def test_qsqrt5_exclusion_chain(catalog):
    """Each fragment is the evidence of a planned step whose anchor the
    prover states, (anchor, enclosures): one exact enclosure for each
    planned quantity, above its constant.  The third step's anchor is the
    plan's, and its quantities T(4), T(5) and T(9) exceed their constants."""
    steps = lf.qsqrt5_local_exclusion(catalog)
    plan = report.STEP_PLANS[2]
    assert len(steps) == 2
    assert plan["local_exclusion_2"][2] is not None
    for i, (_, enclosures) in enumerate(steps):
        _, _, anchor, planned = plan[f"local_exclusion_{i}"]
        assert anchor is None, i
        assert len(enclosures) == len(planned)
        for value, ((required, constant),) in zip(enclosures, planned):
            assert value.lo == value.hi, (i, value)
            assert (required, value.lo > constant) == ("CertainlyGreater", True), (i, value)
    _, _, _, planned = plan["local_exclusion_2"]
    assert len(planned) == 3
    for q, ((required, constant),) in zip((4, 5, 9), planned):
        assert (required, lf.T_factor(q) > constant) == ("CertainlyGreater", True), q
    assert "residue cardinality 2" in plan["local_exclusion_0"][1]
    assert "inert" in steps[0][0]


def test_the_plan_states_the_closed_forms():
    """Each point that the plan states is its closed form here, spelled as
    the prover's Fraction would be: e'(3, 2) and e'(4, 2), h(2, 3) and
    h(2, 4)/h(2, 3) (h(3, 2) at rank 2), T(2) and T(3), and T(4), T(5) and
    T(9).  Every other step that the plan states is an axiom, with none."""
    h = {(q, n): lf.h_rigidity(q, n).lo for q, n in ((2, 3), (2, 4), (3, 2))}
    local = {
        "local_special_factor": [lf.eprime_special(n, 2) for n in (3, 4)],
        "local_nonspecial_factor": [h[2, 3], h[2, 4] / h[2, 3]],
    }
    expected = {
        2: {
            "local_nonspecial_factor": [h[3, 2]],
            "local_T_values": [lf.T_factor(q) for q in (2, 3)],
            "local_exclusion_2": [lf.T_factor(q) for q in (4, 5, 9)],
        },
        3: local,
        4: local,
    }
    for rank_class, stated in report.STATED_POINTS.items():
        factors = {step_id: points for step_id, points in stated.items() if points}
        assert set(factors) <= set(report.STEP_PLANS[rank_class]), rank_class
        assert set(stated) - set(factors) == set(report.AXIOMS), rank_class
        assert {step_id: [str(x) for x in points] for step_id, points in factors.items()} == {
            step_id: [str(x) for x in values] for step_id, values in expected[rank_class].items()
        }, rank_class
