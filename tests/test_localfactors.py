"""Tests for the local-factor arithmetic and the plan's rank-2 exclusion chain."""

from fractions import Fraction

import pytest

from covcert.rigor import Comparison, Interval
from covcert import bounds, cli, numberfields, report
from covcert import localfactors as lf


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


def test_qsqrt5_exclusion_chain(capsys, calls_of):
    """The rank-2 exclusion chain is the plan's: the residue cardinalities 4
    and 9 of the survivor 2.2.5.1 above 2 and 3, each above its prime, and
    T(4), T(5) and T(9) above their constants, each step with the plan's
    anchor.  prove --all evaluates none of it: it calls neither the
    splitting rules nor the global stage's quotients."""
    plan, stated = report.STEP_PLANS[2], report.STATED_POINTS[2]
    for i, p in enumerate((2, 3)):
        _, claim, anchor, (((required, constant),),) = plan[f"local_exclusion_{i}"]
        assert anchor is not None and f"residue cardinality {p}" in claim, i
        assert (required, constant, stated[f"local_exclusion_{i}"]) == (
            "CertainlyGreater", p, (p * p,)), i
    _, _, anchor, planned = plan["local_exclusion_2"]
    assert anchor is not None and len(planned) == 3
    for q, ((required, constant),) in zip((4, 5, 9), planned):
        assert (required, lf.T_factor(q) > constant) == ("CertainlyGreater", True), q
    proved = calls_of(lambda: cli.main(["prove", "--all", "--format", "json"]),
                      numberfields.splitting_type, numberfields.padic_square_test,
                      bounds.s_lambda_quotient, bounds.adjusted_quotient)
    capsys.readouterr()
    assert proved == set()


def test_the_plan_states_the_closed_forms(catalog, candidates):
    """Each point that the plan states is its closed form here, spelled as
    the prover's Fraction would be: e'(3, 2) and e'(4, 2), h(2, 3) and
    h(2, 4)/h(2, 3) (h(3, 2) at rank 2), T(2) and T(3), and T(4), T(5) and
    T(9); each candidate field's quotient, adjusted by its unit index, which
    its anchor states; and the smallest residue cardinalities of 2.2.5.1
    above 2 and 3, whose splitting and 2- and 3-adic squareness its anchors
    state.  Every other step that the plan states is an axiom, with none.
    The coarse cutoffs' anchors state the vendored catalog's candidates
    below each cutoff's upper end, the same at 16, 256, 2048 and 8192 bits."""
    h = {(q, n): lf.h_rigidity(q, n).lo for q, n in ((2, 3), (2, 4), (3, 2))}
    local = {
        "local_special_factor": [lf.eprime_special(n, 2) for n in (3, 4)],
        "local_nonspecial_factor": [h[2, 3], h[2, 4] / h[2, 3]],
    }
    survivor = numberfields.field_by_discriminant(catalog, 2, 5)
    splits = [numberfields.splitting_type(survivor, p) for p in (2, 3)]
    expected = {
        2: {
            "local_nonspecial_factor": [h[3, 2]],
            "local_T_values": [lf.T_factor(q) for q in (2, 3)],
            **{f"local_exclusion_{i}": [min(split.residue_cardinalities)]
               for i, split in enumerate(splits)},
            "local_exclusion_2": [lf.T_factor(q) for q in (4, 5, 9)],
        },
        3: dict(local),
        4: local,
    }
    for rank_class, fields in report.CANDIDATE_FIELDS.items():
        for d, D, _ in fields:
            field = numberfields.field_by_discriminant(catalog, d, D)
            index = numberfields.totally_positive_index(field)
            quotient = bounds.adjusted_quotient(field, rank_class, index)
            assert quotient.lo == quotient.hi, (rank_class, D)
            expected[rank_class][f"verdict_d{d}_D{D}"] = [quotient.lo]
            anchor = report.STEP_PLANS[rank_class][f"verdict_d{d}_D{D}"][2]
            assert f"adjusted by unit index {index}," in anchor, (rank_class, D)
    for i, (p, split) in enumerate(zip((2, 3), splits)):
        square = numberfields.padic_square_test(survivor.discriminant, p)
        assert report.STEP_PLANS[2][f"local_exclusion_{i}"][2] == (
            f"prime {p} is {split.kind} with residue cardinality "
            f"{split.residue_cardinalities[0]}; discriminant is "
            f"{'' if square else 'not '}a square in the {p}-adic field"), p
    for bits in (16, 256, 2048, 8192):
        counts = [len(candidates(d, bounds.n2_D_bound(d, bits))) for d in (2, 3, 4, 5)]
        assert report.STEP_PLANS[2]["discriminant_cutoffs"][2] == (
            "catalog pruning by the coarse cutoffs, leaving candidate counts "
            + ", ".join(f"{count} at degree {d}" for d, count in zip((2, 3, 4, 5), counts))), bits
        quadratic, cubic = (candidates(d, bounds.n3_D_bound(d, bits)) for d in (2, 3))
        assert report.STEP_PLANS[3]["discriminant_cutoffs"][2] == (
            f"catalog pruning by the coarse cutoffs, leaving quadratic candidates {quadratic} "
            f"and cubic candidates {cubic}"), bits
    for rank_class, stated in report.STATED_POINTS.items():
        factors = {step_id: points for step_id, points in stated.items() if points}
        assert set(factors) <= set(report.STEP_PLANS[rank_class]), rank_class
        assert set(stated) - set(factors) == set(report.AXIOMS), rank_class
        assert {step_id: [str(x) for x in points] for step_id, points in factors.items()} == {
            step_id: [str(x) for x in values] for step_id, values in expected[rank_class].items()
        }, rank_class
