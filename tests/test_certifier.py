"""End-to-end tests for the certificate pipeline, serialization, and CLI."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from string import Formatter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covcert
from covcert import bounds
from covcert import certifier as ct
from covcert import cli, numberfields, optimizer, report, specfun
from covcert.bounds import OdlyzkoPair
from covcert.rigor import Interval

PREC = 160


@pytest.fixture(scope="module")
def cert_by_rank():
    return {n: ct.run_case(n, precision_bits=PREC) for n in range(2, 9)}


def test_all_ranks_proved(cert_by_rank):
    for n, cert in cert_by_rank.items():
        assert cert.all_proved, n
        assert not cert.has_tie, n
        assert cert.final_conclusion == ct.FINAL_CONCLUSION, n


def test_axiom_sets(cert_by_rank):
    for n, cert in cert_by_rank.items():
        axioms = {s.id for s in cert.steps if s.verdict == "Axiom"}
        expected = {"A2", "A3", "A4", "A5"}
        if n == 2:
            expected.add("A1")
        assert axioms == expected, n


def test_rank2_survivors(cert_by_rank):
    assert cert_by_rank[2].surviving_fields_after_global == ["1.1.1.1", "2.2.5.1"]
    assert cert_by_rank[3].surviving_fields_after_global == ["1.1.1.1"]
    for n in range(4, 9):
        assert cert_by_rank[n].surviving_fields_after_global == ["1.1.1.1"], n


def test_dependency_dag(cert_by_rank):
    """Dependencies point to earlier, non-failed steps only."""
    for cert in cert_by_rank.values():
        seen = {}
        for step in cert.steps:
            for dep in step.dependencies:
                assert dep in seen, (step.id, dep)
                assert seen[dep] in ("Proved", "Axiom"), (step.id, dep)
            seen[step.id] = step.verdict


@pytest.mark.parametrize("n, users", [
    (2, ["refined_cutoffs"]),
    (3, ["discriminant_cutoffs", "refined_cutoffs"]),
    (4, ["high_rank_conclusion"]),
])
def test_every_class_proves_the_zeta_product_bound_it_uses(n, users, cert_by_rank):
    """Each step whose formula takes prod zeta(2j) < 1.83 (the refined
    cutoffs, rank 3's coarse cutoffs and the rank >= 4 conclusion) depends
    on a proved step that records that bound."""
    cert = cert_by_rank[n]
    assert [s.id for s in cert.steps if "zeta_product_bound" in s.dependencies] == users
    assert next(s for s in cert.steps if s.id == "zeta_product_bound").verdict == "Proved"


def test_byte_deterministic_reports(cert_by_rank):
    again = ct.run_case(3, precision_bits=PREC)
    assert ct.emit_report(cert_by_rank[3]) == ct.emit_report(again)
    assert ct.emit_report(cert_by_rank[3], "text") == ct.emit_report(again, "text")


def test_json_schema_basics(cert_by_rank):
    doc = json.loads(ct.emit_report(cert_by_rank[2]).decode())
    assert doc["schema_version"] == ct.SCHEMA_VERSION
    assert doc["rank"] == 2
    for step in doc["steps"]:
        for c in step["comparisons"]:
            assert c["relation"] in ("CertainlyLess", "CertainlyGreater", "Overlap")
        for lo, hi in step["enclosures"]:
            assert "/" in lo or lo.lstrip("-").isdigit()


def test_text_report_contents(cert_by_rank):
    text = ct.emit_report(cert_by_rank[2], "text").decode()
    assert "rank: 2" in text
    assert "49/79" in ct.emit_report(cert_by_rank[2]).decode()
    assert "conclusion: " + ct.FINAL_CONCLUSION in text
    with pytest.raises(ValueError):
        ct.emit_report(cert_by_rank[2], "xml")


def test_verify_roundtrip(cert_by_rank):
    for cert in cert_by_rank.values():
        assert ct.verify_report(ct.emit_report(cert)) == "Proved"


def test_verify_detects_flipped_verdict(cert_by_rank):
    doc = json.loads(ct.emit_report(cert_by_rank[3]).decode())
    for step in doc["steps"]:
        if step["id"] == "degree_threshold":
            step["verdict"] = "Failed"
    with pytest.raises(ct.TamperDetected):
        ct.verify_report(json.dumps(doc).encode())


def test_verify_detects_flipped_relation(cert_by_rank):
    doc = json.loads(ct.emit_report(cert_by_rank[3]).decode())
    comp = doc["steps"][-3]["comparisons"]
    for step in doc["steps"]:
        for c in step["comparisons"]:
            if c["relation"] == "CertainlyLess":
                c["relation"] = "CertainlyGreater"
                break
    with pytest.raises(ct.TamperDetected):
        ct.verify_report(json.dumps(doc).encode())


def test_verify_schema_mismatch(cert_by_rank):
    """A schema version other than the integer 1, though equal to it as
    JSON values compare in Python (true, 1.0), is a schema mismatch."""
    doc = json.loads(ct.emit_report(cert_by_rank[3]).decode())
    for version in (0, True, 1.0):
        doc["schema_version"] = version
        with pytest.raises(ct.SchemaMismatch):
            ct.verify_report(json.dumps(doc).encode())
    with pytest.raises(ct.SchemaMismatch):
        ct.verify_report(b"not json at all")


def _step(doc, step_id):
    return next(s for s in doc["steps"] if s["id"] == step_id)


def _no_steps(doc):
    doc["steps"] = []


def _proved_without_comparisons(doc):
    _step(doc, "degree_threshold")["comparisons"] = []


def _duplicate_step(doc):
    doc["steps"].append(dict(doc["steps"][-1]))


def _axiom_text_edited(doc):
    _step(doc, "A3")["claim"] = "any statement at all"


def _non_dict_step(doc):
    doc["steps"].insert(1, "step")


def _zero_denominator(doc):
    _step(doc, "degree_threshold")["comparisons"][0]["lhs"][0] = "1/0"


def _enclosure_reversed(doc):
    _step(doc, "degree_threshold")["enclosures"] = [["2", "1"]]


def _enclosure_not_fractions(doc):
    _step(doc, "degree_threshold")["enclosures"] = [["x", "y"]]


def _enclosure_object(doc):
    enclosures = _step(doc, "degree_threshold")["enclosures"]
    enclosures[0] = dict.fromkeys(enclosures[0], 0)


def _enclosure_string(doc):
    _step(doc, "degree_threshold")["enclosures"][0] = "12"


def _rank_not_int(doc):
    doc["rank"] = "seven"


def _precision_below_16(doc):
    doc["precision_bits"] = -1


def _precision_above_8192(doc):
    """One bit more than ``--precision`` accepts."""
    _precision_raised(doc, 8193)


def _step_precision_differs(doc):
    _step(doc, "degree_threshold")["precision_bits"] += 1


def _tie_without_overlap(doc):
    step = _step(doc, "verdict_d2_D5")
    step["comparisons"][0]["required"] = "CertainlyLess"
    step["verdict"] = "Tie"
    doc["final_conclusion"] = ""


def _failed_with_overlap(doc):
    step = _step(doc, "verdict_d2_D5")
    comparison = step["comparisons"][0]
    comparison["lhs"] = comparison["rhs"]
    comparison["relation"] = "Overlap"
    step["verdict"] = "Failed"
    doc["final_conclusion"] = ""


def _cut_to_two_steps(doc):
    doc["steps"] = [_step(doc, "A5"), _step(doc, "local_T_values")]
    doc["surviving_fields_after_global"] = ["1.1.1.1"]


def _step_added(doc):
    extra = dict(_step(doc, "verdict_d2_D5"), id="verdict_d2_D13")
    doc["steps"].insert(len(doc["steps"]) - 1, extra)


def _edge_dropped(doc):
    _step(doc, "refined_cutoffs")["dependencies"] = []


def _axioms_reordered(doc):
    doc["steps"][0], doc["steps"][1] = doc["steps"][1], doc["steps"][0]


def _rank_outside_plans(doc):
    doc["rank"] = 99


def _rank_of_another_class(doc):
    doc["rank"] = 3


def _survivors_not_labels(doc):
    doc["surviving_fields_after_global"] = [1]


def _claim_not_string(doc):
    _step(doc, "degree_threshold")["claim"] = 5


def _anchor_null(doc):
    _step(doc, "degree_threshold")["anchor"] = None


def _dependency_not_string(doc):
    _step(doc, "degree_threshold")["dependencies"].append(7)


def _cut_and_unknown_verdict(doc):
    _cut_to_two_steps(doc)
    doc["steps"].append(dict(doc["steps"][-1], id="extra", verdict="Plausible"))


@pytest.mark.parametrize(
    "mutate, error",
    [
        (_cut_to_two_steps, ct.TamperDetected),
        (_step_added, ct.TamperDetected),
        (_edge_dropped, ct.TamperDetected),
        (_axioms_reordered, ct.TamperDetected),
        (_rank_outside_plans, ct.TamperDetected),
        (_rank_of_another_class, ct.TamperDetected),
        (_survivors_not_labels, ct.TamperDetected),
        (_claim_not_string, ct.TamperDetected),
        (_anchor_null, ct.TamperDetected),
        (_cut_and_unknown_verdict, ct.SchemaMismatch),
        (_no_steps, ct.TamperDetected),
        (_proved_without_comparisons, ct.TamperDetected),
        (_duplicate_step, ct.TamperDetected),
        (_axiom_text_edited, ct.TamperDetected),
        (_non_dict_step, ct.SchemaMismatch),
        (_zero_denominator, ct.SchemaMismatch),
        (_enclosure_reversed, ct.SchemaMismatch),
        (_enclosure_not_fractions, ct.SchemaMismatch),
        (_enclosure_object, ct.SchemaMismatch),
        (_enclosure_string, ct.SchemaMismatch),
        (_rank_not_int, ct.SchemaMismatch),
        (_precision_below_16, ct.SchemaMismatch),
        (_precision_above_8192, ct.SchemaMismatch),
        (_step_precision_differs, ct.SchemaMismatch),
        (_dependency_not_string, ct.SchemaMismatch),
        (_tie_without_overlap, ct.TamperDetected),
        (_failed_with_overlap, ct.TamperDetected),
    ],
    ids=lambda value: getattr(value, "__name__", "").lstrip("_") or None,
)
def test_verify_rejects_forged_and_malformed(cert_by_rank, mutate, error):
    doc = json.loads(ct.emit_report(cert_by_rank[2]).decode())
    mutate(doc)
    with pytest.raises(error):
        ct.verify_report(json.dumps(doc).encode())


def test_cli_verify_names_a_dependency_that_is_not_a_string(cert_by_rank, tmp_path, capsys):
    doc = json.loads(ct.emit_report(cert_by_rank[2]).decode())
    _dependency_not_string(doc)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == cli.EXIT_DATA_MISSING
    assert capsys.readouterr().err == (
        "SchemaMismatch: step degree_threshold: dependency 7 is not a string\n"
    )


def test_verify_rejects_forged_rank9_reports():
    """Forgeries of a rank-9 report that hold step by step but prove
    nothing: two steps with their dependencies emptied, then also rank 99
    and surviving fields 7; and the whole report with surviving fields 7
    and a numeric claim and no anchor on its conclusion."""
    honest = json.loads(ct.emit_report(ct.run_case(9, precision_bits=64)))
    cut = json.loads(json.dumps(honest))
    cut["steps"] = [_step(cut, "A5"), _step(cut, "zeta_product_bound")]
    for step in cut["steps"]:
        step["dependencies"] = []
    relabelled = dict(cut, rank=99, surviving_fields_after_global=7)
    conclusion_edited = json.loads(json.dumps(honest))
    conclusion_edited["surviving_fields_after_global"] = 7
    _step(conclusion_edited, "high_rank_conclusion").update(claim=5, anchor=None)
    for doc in (cut, relabelled, conclusion_edited):
        with pytest.raises(ct.TamperDetected):
            ct.verify_report(json.dumps(doc).encode())


def _relabelled_rank9(doc):
    doc["rank"] = 9


def _axiom_a3_proved(doc):
    comparison = {"lhs": ["0", "0"], "rhs": ["1", "1"], "relation": "CertainlyLess",
                  "required": "CertainlyLess"}
    _step(doc, "A3").update(
        verdict="Proved", claim="any statement at all", comparisons=[comparison]
    )


def _conclusion_claim_edited(doc):
    _step(doc, "high_rank_conclusion")["claim"] = "1 + 1 = 3"


def _zeta_product_sides_replaced(doc):
    _step(doc, "zeta_product_bound")["comparisons"][0].update(lhs=["1", "1"], rhs=["100", "100"])


def _constant_side_moved(doc):
    _step(doc, "inner_factor_ge_one")["comparisons"][0]["rhs"] = ["-5", "-5"]


def _constant_side_flipped(doc):
    _step(doc, "inner_factor_ge_one")["comparisons"][0].update(
        rhs=[str(10**8)] * 2, relation="CertainlyLess", required="CertainlyLess"
    )


def _conclusion_constant_side_zeroed(doc):
    _step(doc, "high_rank_conclusion")["comparisons"][0]["rhs"] = ["0", "0"]


def _comparison_dropped(doc):
    del _step(doc, "high_rank_conclusion")["comparisons"][1]


def _withdrawn_step_restored(doc):
    """The rank >= 4 plan as it stood with a step for Lemma 3.5's conditions
    (a), (b) and (c) on the witness row between A3 and inner_factor_ge_one,
    which depended on it."""

    def greater(lhs, rhs):
        return {"lhs": lhs, "rhs": rhs, "relation": "CertainlyGreater",
                "required": "CertainlyGreater"}

    lhs = ["15945/10000", "15947/10000"]  # 2 log A - E
    steps = doc["steps"]
    inner = _step(doc, "inner_factor_ge_one")
    inner["dependencies"] = ["feasible_pair"]
    steps[steps.index(_step(doc, "A3")) + 1:steps.index(inner)] = [{
        "id": "feasible_pair",
        "claim": "the stated bound pair (A, E) satisfies the three high-rank conditions",
        "anchor": "stated row (A, E) = (3447/500, 22667/10000) of the vendored table",
        "verdict": "Proved",
        "dependencies": ["A3"],
        "precision_bits": doc["precision_bits"],
        "enclosures": [],
        "comparisons": [
            greater(lhs, ["12284/10000", "12285/10000"]),
            greater(["3447/500", "3447/500"], ["283/50", "283/50"]),
            greater(lhs, ["15933/10000", "15935/10000"]),
        ],
    }]


def _survivors_forged(doc):
    doc["surviving_fields_after_global"] = ["7.7.7.7", "2.2.5.1"]


def _top_level_key_added(doc):
    doc["also_proves"] = "the Riemann hypothesis"


def _step_key_added(doc):
    _step(doc, "high_rank_conclusion")["also_proves"] = "the Riemann hypothesis"


def _comparison_key_added(doc):
    _step(doc, "high_rank_conclusion")["comparisons"][0]["strict"] = True


def _axiom_anchor_rewritten(doc):
    _step(doc, "A5")["anchor"] = "A5 is proved in the appendix"


def _threshold_anchor_cites_rank3_row(doc):
    """The rank-2 threshold claimed at the rank-3 witness row, which the
    benchmark's search-target check would read."""
    _step(doc, "degree_threshold")["anchor"] = (
        "grid minimum at (A, E, t) = (13047/1000, 38667/10000, 6/5)"
    )


def _conclusion_anchor_rewritten(doc):
    _step(doc, "high_rank_conclusion")["anchor"] = "the normalized bound at degree 3, at rank 4"


def _special_factor_anchor_rewritten(doc):
    _step(doc, "local_special_factor")["anchor"] = "local covolume factors at ranks 5 and 6"


def _constant_side_respelled(doc):
    _step(doc, "high_rank_conclusion")["comparisons"][0]["rhs"] = ["366/200", "366/200"]


def _overlapped(doc):
    """The report NotProved, as it verifies: zeta_product_bound ties."""
    step = _step(doc, "zeta_product_bound")
    step["comparisons"][0].update(lhs=step["comparisons"][0]["rhs"], relation="Overlap")
    step["enclosures"] = [step["comparisons"][0]["rhs"]]  # the computed side, rendered
    step["verdict"] = "Tie"
    doc["final_conclusion"] = ""


def _not_proved_conclusion_edited(doc):
    _overlapped(doc)
    doc["final_conclusion"] = "Sp_{2n}(Z) is not minimal"


def _not_proved_conclusion_dropped(doc):
    _overlapped(doc)
    del doc["final_conclusion"]


def _survivor_dropped(doc):
    doc["surviving_fields_after_global"] = ["1.1.1.1"]


def _threshold_enclosure_rewritten(doc):
    """The value the benchmark's search-target check reads, moved off the computed side."""
    _step(doc, "degree_threshold")["enclosures"] = [["59/10", "59/10"]]


def _verdict_enclosures_emptied(doc):
    _step(doc, "verdict_d2_D5")["enclosures"] = []


def _zeta_product_enclosure_repeated(doc):
    enclosures = _step(doc, "zeta_product_bound")["enclosures"]
    enclosures.append(enclosures[0])


def _cutoff_enclosures_reversed(doc):
    _step(doc, "discriminant_cutoffs")["enclosures"].reverse()


def _coarse_constant_raised(doc):
    """The quadratic cutoff checked against 30 in place of the least
    discriminant above the candidates, 28."""
    _step(doc, "discriminant_cutoffs")["comparisons"][0]["rhs"] = ["30", "30"]


def _cutoff_met_by_two_values(doc, index, low, high):
    """The refined cutoff whose bounds are comparisons index and index + 1
    meets the first with the point low and the second with high, and the
    enclosures are the step's distinct left sides."""
    step = _step(doc, "refined_cutoffs")
    for comparison, value in zip(step["comparisons"][index:index + 2], (low, high)):
        comparison["lhs"] = [value, value]
    step["enclosures"] = []
    for comparison in step["comparisons"]:
        if comparison["lhs"] not in step["enclosures"]:
            step["enclosures"].append(comparison["lhs"])


def _cubic_cutoff_met_by_two_values(doc):
    """At rank 2, > 49 met by 60 and < 81 by 70: 5 enclosures for 4 cutoffs."""
    _cutoff_met_by_two_values(doc, 2, "60", "70")


def _cubic_cutoff_upper_side_met_by_60(doc):
    """At rank 2, < 81 met by 60 in the comparison alone: its enclosure
    stays the computed one."""
    _step(doc, "refined_cutoffs")["comparisons"][3]["lhs"] = ["60", "60"]


def _quadratic_cutoff_met_by_two_values(doc):
    """At rank 3, > 5 met by 6 and < 8 by 7: 3 enclosures for 2 cutoffs."""
    _cutoff_met_by_two_values(doc, 0, "6", "7")


def _precision_raised(doc, bits=8192):
    """A report that claims more bits than it was proved at, at the top and in every step."""
    for record in (doc, *doc["steps"]):
        record["precision_bits"] = bits


def _point_recorded_as(doc, step_id, index, value):
    """The exact rational that the plan states as the step's enclosure
    index recorded as the point value, with its one comparison's left side
    rewritten to match."""
    step = _step(doc, step_id)
    step["enclosures"][index] = step["comparisons"][index]["lhs"] = [value, value]


def _t2_set_to_five(doc):
    _point_recorded_as(doc, "local_T_values", 0, "5")


def _t9_doubled(doc):
    _point_recorded_as(doc, "local_exclusion_2", 2, "656")


def _h23_doubled(doc):
    _point_recorded_as(doc, "local_nonspecial_factor", 0, "945/128")


def _eprime32_doubled(doc):
    _point_recorded_as(doc, "local_special_factor", 0, "70")


def _d8_quotient_set_to_8_11(doc):
    _point_recorded_as(doc, "verdict_d2_D8", 0, "8/11")


def _residue_cardinality_above_2_set_to_8(doc):
    _point_recorded_as(doc, "local_exclusion_0", 0, "8")


def _unit_index_anchor_set_to_2(doc):
    step = _step(doc, "verdict_d2_D5")
    step["anchor"] = step["anchor"].replace("unit index 1", "unit index 2")


def _coarse_anchor_counts_rewritten(doc):
    """The rank-2 candidate counts of a catalog without 5.5.14641.1."""
    step = _step(doc, "discriminant_cutoffs")
    step["anchor"] = step["anchor"].replace("1 at degree 5", "0 at degree 5")


def _coarse_anchor_candidates_rewritten(doc):
    """The rank-3 candidates of a catalog without 3.3.49.1."""
    step = _step(doc, "discriminant_cutoffs")
    step["anchor"] = step["anchor"].replace("cubic candidates [49]", "cubic candidates []")


@pytest.mark.parametrize(
    "n, mutate",
    [
        (5, _relabelled_rank9),
        (5, _axiom_a3_proved),
        (5, _conclusion_claim_edited),
        (4, _zeta_product_sides_replaced),
        (4, _constant_side_moved),
        (4, _constant_side_flipped),
        (4, _conclusion_constant_side_zeroed),
        (4, _comparison_dropped),
        (5, _withdrawn_step_restored),
        (4, _survivors_forged),
        (2, _survivor_dropped),
        (4, _top_level_key_added),
        (4, _step_key_added),
        (4, _comparison_key_added),
        (4, _axiom_anchor_rewritten),
        (2, _threshold_anchor_cites_rank3_row),
        (4, _conclusion_anchor_rewritten),
        (3, _special_factor_anchor_rewritten),
        (4, _constant_side_respelled),
        (4, _not_proved_conclusion_edited),
        (4, _not_proved_conclusion_dropped),
        (4, _precision_raised),
        (2, _threshold_enclosure_rewritten),
        (2, _verdict_enclosures_emptied),
        (2, _zeta_product_enclosure_repeated),
        (2, _cutoff_enclosures_reversed),
        (2, _coarse_constant_raised),
        (2, _cubic_cutoff_met_by_two_values),
        (2, _cubic_cutoff_upper_side_met_by_60),
        (3, _quadratic_cutoff_met_by_two_values),
        (2, _t2_set_to_five),
        (2, _t9_doubled),
        (3, _h23_doubled),
        (4, _eprime32_doubled),
        (2, _d8_quotient_set_to_8_11),
        (3, _unit_index_anchor_set_to_2),
        (2, _residue_cardinality_above_2_set_to_8),
        (2, _coarse_anchor_counts_rewritten),
        (3, _coarse_anchor_candidates_rewritten),
    ],
    ids=lambda value: getattr(value, "__name__", "").lstrip("_") or None,
)
def test_verify_rejects_forgeries_of_the_plan(n, mutate):
    """Each forgery holds step by step, but states another proof than its
    plan's: a relabelled rank, an axiom turned into a proof, an edited
    claim, replaced or moved constant sides (among them the conclusion's
    1.83 replaced by 0), a flipped relation, a dropped comparison,
    surviving fields that are not the plan's, a step the plan no longer has,
    a key that the rendering lacks (at the top, in a step, in a comparison),
    a rewritten anchor (an axiom's, the rank-2 threshold's citing the
    rank-3 row, the conclusion's, a local factor's, a verdict's unit index,
    the coarse cutoffs' candidate counts and lists),
    a constant side spelled other than in lowest
    terms, a NotProved report with another conclusion or none, a
    precision raised above the one its enclosures deliver, enclosures
    other than the step's computed quantities (rewritten, emptied, repeated
    or reordered), a coarse cutoff's constant raised, a cutoff bounded
    on both sides that meets each bound with another value, or one bound
    with a left side that is not its enclosure, and an exact
    rational that the plan states recorded as another value that still
    meets its bound (T(2) as 5, T(9), h(2, 3) and e'(3, 2) doubled, the
    quotient of 2.2.8.1 as 8/11, a residue cardinality 4 as 8)."""
    doc = json.loads(ct.emit_report(ct.run_case(n, precision_bits=64)))
    mutate(doc)
    with pytest.raises(ct.TamperDetected):
        ct.verify_report(json.dumps(doc).encode())


# What a 64-bit report of each rank class may be forged into and still verify
# Proved, as (rank class, step id, field, mutation): a field is a path in the
# step, and a mutation is one of ``_mutants``.  Each is a computed enclosure,
# which the checker trusts within its planned bounds.
_BY_1001 = "rescaled by 1001/1000"
_BY_2 = "rescaled by 2"
TRUSTED = {
    (2, "degree_threshold", "enclosures[0]", _BY_1001),
    (2, "discriminant_cutoffs", "enclosures[0]", _BY_1001),
    (2, "discriminant_cutoffs", "enclosures[1]", _BY_1001),
    (2, "discriminant_cutoffs", "enclosures[2]", _BY_1001),
    (2, "discriminant_cutoffs", "enclosures[3]", _BY_1001),
    (2, "zeta_product_bound", "enclosures[0]", _BY_1001),
    (2, "refined_cutoffs", "enclosures[0]", _BY_1001),
    (2, "refined_cutoffs", "enclosures[0]", _BY_2),
    (2, "refined_cutoffs", "enclosures[1]", _BY_1001),
    (2, "refined_cutoffs", "enclosures[2]", _BY_1001),
    (2, "refined_cutoffs", "enclosures[3]", _BY_1001),
    (3, "degree_threshold", "enclosures[0]", _BY_1001),
    (3, "zeta_product_bound", "enclosures[0]", _BY_1001),
    (3, "discriminant_cutoffs", "enclosures[0]", _BY_1001),
    (3, "discriminant_cutoffs", "enclosures[1]", _BY_1001),
    (3, "discriminant_cutoffs", "enclosures[2]", _BY_1001),
    (3, "discriminant_cutoffs", "enclosures[2]", _BY_2),
    (3, "refined_cutoffs", "enclosures[0]", _BY_1001),
    (3, "refined_cutoffs", "enclosures[1]", _BY_1001),
    (4, "inner_factor_ge_one", "enclosures[0]", _BY_1001),
    (4, "inner_factor_ge_one", "enclosures[0]", _BY_2),
    (4, "inner_factor_ge_one", "enclosures[1]", _BY_1001),
    (4, "inner_factor_ge_one", "enclosures[1]", _BY_2),
    (4, "inner_factor_ge_one", "enclosures[2]", _BY_1001),
    (4, "inner_factor_ge_one", "enclosures[2]", _BY_2),
    (4, "zeta_product_bound", "enclosures[0]", _BY_1001),
    (4, "high_rank_conclusion", "enclosures[0]", _BY_1001),
    (4, "high_rank_conclusion", "enclosures[0]", _BY_2),
    (4, "high_rank_conclusion", "enclosures[1]", _BY_1001),
    (4, "high_rank_conclusion", "enclosures[1]", _BY_2),
    (4, "high_rank_conclusion", "enclosures[2]", _BY_1001),
    (4, "high_rank_conclusion", "enclosures[2]", _BY_2),
}


def _leaves(node, path=()):
    """(path, value) for each leaf of a JSON document, the path being its keys and indices."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*path, key))
    else:
        yield path, node


def _mutants(honest):
    """(step id, field, mutation) and the mutated document, for each of two
    kinds of mutation of an honest report.  One changes a single leaf: an
    endpoint scaled by 1001/1000, an integer raised by 1, another string
    extended; an endpoint 0 is left out, as scaling leaves it.  The other
    rescales an enclosure by 1001/1000 or by 2 and rewrites the left sides
    that recorded it to match.  A top-level field has the step id None."""
    for path, value in _leaves(honest):
        if isinstance(value, int):
            mutated, mutation = value + 1, "raised"
        elif len(path) > 3 and (path[-3] == "enclosures" or path[-2] in ("lhs", "rhs")):
            mutated, mutation = str(Fraction(value) * Fraction(1001, 1000)), "scaled"
        else:
            mutated, mutation = value + "!", "extended"
        if mutated == value:
            continue
        doc = json.loads(json.dumps(honest))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = mutated
        step_id = honest["steps"][path[1]]["id"] if path[0] == "steps" and len(path) > 2 else None
        field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[2 * bool(step_id):])
        yield (step_id, field.lstrip("."), mutation), doc
    for i, step in enumerate(honest["steps"]):
        for j, old in enumerate(step["enclosures"]):
            for factor, mutation in ((Fraction(1001, 1000), _BY_1001), (2, _BY_2)):
                doc = json.loads(json.dumps(honest))
                forged = doc["steps"][i]
                forged["enclosures"][j] = new = [str(Fraction(x) * factor) for x in old]
                for comparison in forged["comparisons"]:
                    if comparison["lhs"] == old:
                        comparison["lhs"] = new
                yield (step["id"], f"enclosures[{j}]", mutation), doc


def test_verify_trusts_only_the_trusted_surface():
    """Every mutant of an honest 64-bit report of each rank class is
    rejected, by TamperDetected, SchemaMismatch or a NotProved verdict,
    except those of TRUSTED, which verify Proved: so a change that closes a
    hole must remove its entry, and one that opens a hole must add one.  The
    plan states every exact rational (the local factors, the global stage's
    quotients, the rank-2 exclusion's residue cardinalities) and every anchor
    (the coarse cutoffs' candidates among them), so none of them is trusted."""
    accepted, labels = set(), []
    for rank_class in (2, 3, 4):
        honest = json.loads(ct.emit_report(ct.run_case(rank_class, precision_bits=64)))
        for label, doc in _mutants(honest):
            labels.append((rank_class, *label))
            try:
                verdict = ct.verify_report(json.dumps(doc).encode())
            except (ct.TamperDetected, ct.SchemaMismatch):
                continue
            if verdict == "Proved":
                accepted.add(labels[-1])
    assert len(labels) == len(set(labels))
    assert (sorted(accepted - TRUSTED), sorted(TRUSTED - accepted)) == ([], [])


@pytest.mark.parametrize("endpoint", ["1e400", "100.5", "+100", "\u0661\u0660\u0660"])
def test_verify_takes_endpoints_only_as_emitted(cert_by_rank, endpoint):
    """An endpoint is an integer or a fraction p/q in ASCII digits, as
    ``emit_report`` writes it; Fraction would also expand an exponent."""
    doc = json.loads(ct.emit_report(cert_by_rank[2]))
    _step(doc, "degree_threshold")["enclosures"][0][1] = endpoint
    with pytest.raises(ct.SchemaMismatch, match="does not parse"):
        ct.verify_report(json.dumps(doc).encode())


def test_verify_rejects_an_over_long_integer(cert_by_rank):
    """A JSON integer beyond Python's digit limit is a schema mismatch."""
    data = ct.emit_report(cert_by_rank[2]).replace(b'"rank":2', b'"rank":' + b"9" * 5001)
    with pytest.raises(ct.SchemaMismatch):
        ct.verify_report(data)


@pytest.mark.parametrize(
    "n, bits",
    [(n, bits) for bits in (16, 256) for n in (2, 3, 4, 9, 64)]
    + [(2, 2048), (3, 2048), (4, 2048), (4, 4096), (4, 8192)],
)
def test_honest_reports_follow_the_plan(n, bits):
    """run_case states its rank class's plan: every step in order, with the
    plan's dependencies, claim and anchor, one
    enclosure for each planned quantity, and as comparisons, in plan order,
    each enclosure against each of its quantity's bounds: the bound's
    relation required, its constant the right side.  So rank 2's
    refined_cutoffs has 4 enclosures and 6 comparisons."""
    cert = ct.run_case(n, precision_bits=bits)
    plan = report.step_plan(n)
    assert [s.id for s in cert.steps] == list(plan)
    for step, (dependencies, claim, anchor, planned) in zip(cert.steps, plan.values()):
        assert step.dependencies == dependencies, step.id
        assert step.claim == claim.format(rank=n), step.id
        assert step.anchor == anchor, step.id
        assert len(step.enclosures) == len(planned), step.id
        expected = [(enclosure, required, constant)
                    for enclosure, quantity in zip(step.enclosures, planned)
                    for required, constant in quantity]
        assert len(step.comparisons) == len(expected), step.id
        for c, (enclosure, required, constant) in zip(step.comparisons, expected):
            assert c.lhs is enclosure and c.required == required, step.id
            value = Fraction(constant.numerator, constant.denominator)  # an int or a Ratio
            assert (c.rhs.lo, c.rhs.hi) == (value, value), step.id
        assert step.verdict == ("Axiom" if step.id in report.AXIOMS else "Proved"), step.id
    if n == 2:
        refined = next(s for s in cert.steps if s.id == "refined_cutoffs")
        assert (len(refined.enclosures), len(refined.comparisons)) == (4, 6)
    assert ct.verify_report(ct.emit_report(cert)) == "Proved"


# Each coarse cutoff's bound, the least discriminant of a totally real
# field of its degree above the candidates, by rank and degree.
COARSE_BOUNDS = {(2, 2): 28, (2, 3): 257, (2, 4): 2225, (2, 5): 24217, (3, 2): 12, (3, 3): 81}


@pytest.mark.parametrize("n, d", list(COARSE_BOUNDS))
def test_a_cutoff_past_its_bound_fails(n, d, monkeypatch, capsys):
    """Each coarse comparison can fail: with one cutoff moved to its bound
    plus 1, discriminant_cutoffs is Failed and prove exits 2."""
    cutoff = {2: bounds.n2_D_bound, 3: bounds.n3_D_bound}[n]

    def moved(degree, prec):
        return Interval.exact(COARSE_BOUNDS[n, d] + 1) if degree == d else cutoff(degree, prec)

    monkeypatch.setattr(bounds, cutoff.__name__, moved)
    cert = ct.run_case(n, precision_bits=64)
    assert next(s for s in cert.steps if s.id == "discriminant_cutoffs").verdict == "Failed"
    assert cli.main(["prove", "--n", str(n), "--precision", "64"]) == cli.EXIT_STEP_FAILED
    capsys.readouterr()


def test_candidates_lie_below_the_cutoffs_upper_end(candidates):
    """The rule by which the plan's coarse-cutoff anchors are checked counts
    a field whose discriminant lies inside a cutoff's enclosure: a quadratic
    cutoff of [47/2, 49/2] keeps 24 among 7."""
    widened = Interval(Fraction(47, 2), Fraction(49, 2))
    assert candidates(2, widened) == [5, 8, 12, 13, 17, 21, 24]


def test_verify_corpus_keeps_its_exit_codes(cert_by_rank, tmp_path, capsys):
    """Every variant kind of the benchmark's verify corpus gets its documented
    exit code: 0 honest, 2 tampered or forged, 3 malformed or crashing."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("verify_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    expected = {kind: corpus.EXIT_TAMPERED for kind in corpus.TAMPERED + corpus.FORGED}
    expected.update({kind: corpus.EXIT_MALFORMED for kind in corpus.MALFORMED + corpus.CRASHING})
    reports = [ct.emit_report(cert) for cert in cert_by_rank.values()]
    reports.append(ct.emit_report(ct.run_case(9, precision_bits=64)))
    for i, honest in enumerate(reports):
        target = tmp_path / f"honest{i}.json"
        target.write_bytes(honest)
        assert cli.main(["verify", str(target)]) == corpus.EXIT_OK
        for kind, code in expected.items():
            for seed in range(3):
                data = corpus.variant(kind, honest, random.Random(seed))
                target = tmp_path / f"{kind.__name__}{i}_{seed}.json"
                if data is not corpus.MISSING:
                    target.write_bytes(data)
                assert cli.main(["verify", str(target)]) == code, (kind.__name__, i, seed)
    capsys.readouterr()


def test_global_stage_quotients_are_exact(cert_by_rank):
    """Each verdict step records the exact quotient adjusted by its unit
    index, and compares it with 1.  The raw quotient is the adjusted one
    times 2^(2d - 1) over the unit index, both of which the step states."""
    catalog = numberfields.default_catalog()
    for n in (2, 3):
        steps = [s for s in cert_by_rank[n].steps if s.id.startswith("verdict_")]
        assert len(steps) == {2: 3, 3: 1}[n]
        for step in steps:
            d, D = (int(x[1:]) for x in step.id.split("_")[1:])
            field = numberfields.field_by_discriminant(catalog, d, D)
            index = numberfields.totally_positive_index(field)
            adjusted = bounds.adjusted_quotient(field, n, index)
            assert step.enclosures == ((adjusted.lo, adjusted.hi),), step.id
            raw = adjusted * Interval.exact(Fraction(1 << (2 * d - 1), index))
            assert raw == bounds.s_lambda_quotient(field, n), step.id
            assert [c.lhs for c in step.comparisons] == list(step.enclosures), step.id
            rhs = step.comparisons[0].rhs  # the plan's constant, compared by value
            assert (rhs.lo, rhs.hi) == (1, 1), step.id
            assert f"unit index {index}" in step.anchor, step.id


def test_no_proved_step_only_compares_one_with_zero(cert_by_rank):
    """A Proved step whose every comparison sets an exact point against the
    constant 0 proves nothing.  An endpoint is a Fraction, or a Ratio where
    the plan states the enclosure."""
    for n in (2, 3):
        for step in cert_by_rank[n].steps:
            if step.verdict == "Proved":
                assert not all(
                    Fraction(c.lhs.lo.numerator, c.lhs.lo.denominator)
                    == Fraction(c.lhs.hi.numerator, c.lhs.hi.denominator)
                    and (c.rhs.lo, c.rhs.hi) == (0, 0)
                    for c in step.comparisons
                ), step.id


def test_each_candidate_quotient_is_evaluated_once(capsys, calls_of, catalog):
    """Each candidate field's quotient is evaluated once, where the plan's
    stated value is checked against it (test_the_plan_states_the_closed_forms):
    prove --all calls neither s_lambda_quotient nor adjusted_quotient, nor
    totally_positive_index for the unit index.  A direct call is seen."""
    quotients = (bounds.s_lambda_quotient, bounds.adjusted_quotient,
                 numberfields.totally_positive_index)
    field = numberfields.field_by_discriminant(catalog, 2, 5)
    seen = calls_of(lambda: bounds.adjusted_quotient(field, 2, 1), *quotients)
    assert seen == {"s_lambda_quotient", "adjusted_quotient"}
    proved = calls_of(lambda: cli.main(["prove", "--all", "--format", "json"]), *quotients)
    capsys.readouterr()
    assert proved == set()


def test_verdict_steps_record_what_adjusted_quotient_returns(calls_of, catalog):
    """Each verdict step compares with 1 the point that
    bounds.adjusted_quotient, the route acceptance criterion 7 checks,
    returns for its field, rank and unit index, spelled as the prover's
    Fraction; the plan states it, and run_case does not call the function."""
    for n in (2, 3):
        certs = []
        run = lambda: certs.append(ct.run_case(n, precision_bits=64))
        assert calls_of(run, bounds.adjusted_quotient) == set(), n
        for step in certs[0].steps:
            if step.id.startswith("verdict_"):
                d, D = (int(x[1:]) for x in step.id.split("_")[1:])
                field = numberfields.field_by_discriminant(catalog, d, D)
                value = bounds.adjusted_quotient(
                    field, n, numberfields.totally_positive_index(field))
                assert [str(x) for x in step.enclosures[0]] == [str(value.lo), str(value.hi)]
                assert step.comparisons[0].lhs is step.enclosures[0], step.id


def test_rank_validation():
    with pytest.raises(ValueError):
        ct.run_case(1, precision_bits=PREC)


# ---------------------------------------------------------------------------
# CLI


def test_cli_prove_and_verify(tmp_path, capsysbinary):
    rc = cli.main(
        ["prove", "--n", "3", "--precision", str(PREC), "--format", "json"]
    )
    assert rc == cli.EXIT_OK
    report = capsysbinary.readouterr().out.decode()

    path = tmp_path / "r.json"
    path.write_text(report)
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK

    doc = json.loads(report)
    for step in doc["steps"]:
        if step["verdict"] == "Proved":
            step["verdict"] = "Failed"
            break
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify", str(bad)]) == 2


def test_cli_missing_data():
    rc = cli.main(["optimize", "--case", "n3", "--odlyzko", "/nonexistent/t.csv"])
    assert rc == 3


def _zeta_product_side(lo, hi):
    """Evidence for the zeta-product step whose one side is [lo, hi]."""

    def evidence(prec):
        return [Interval(lo, hi)]

    return evidence


@pytest.mark.parametrize("lo, hi, verdict, code", [
    (Fraction(182, 100), Fraction(184, 100), "Tie", cli.EXIT_TIE),
    (2, 2, "Failed", cli.EXIT_STEP_FAILED),
])
def test_cli_prove_exits_with_the_step_verdict(lo, hi, verdict, code, monkeypatch, capsysbinary):
    """A zeta-product side that overlaps 183/100 ties and exits 4; one of
    [2, 2] fails and exits 2.  Either way the report concludes nothing."""
    monkeypatch.setitem(ct._EVIDENCE[4], "zeta_product_bound", _zeta_product_side(lo, hi))
    assert cli.main(["prove", "--n", "4", "--format", "json"]) == code
    doc = json.loads(capsysbinary.readouterr().out)
    assert _step(doc, "zeta_product_bound")["verdict"] == verdict
    assert doc["final_conclusion"] == ""


def test_cli_prove_all_exits_with_the_worst_code(monkeypatch, capsysbinary):
    """Rank 2 failed and ranks 4 to 8 tied: prove --all exits 4, the worse code."""
    monkeypatch.setitem(ct._EVIDENCE[2], "zeta_product_bound", _zeta_product_side(2, 2))
    monkeypatch.setitem(
        ct._EVIDENCE[4], "zeta_product_bound",
        _zeta_product_side(Fraction(182, 100), Fraction(184, 100)),
    )
    assert cli.main(["prove", "--all", "--format", "json"]) == cli.EXIT_TIE
    docs = [json.loads(line) for line in capsysbinary.readouterr().out.splitlines()]
    verdicts = [_step(doc, "zeta_product_bound")["verdict"] for doc in docs]
    assert verdicts == ["Failed", "Proved"] + ["Tie"] * 5


def test_cli_field_ops(capsys):
    assert cli.main(["field", "2.2.5.1", "--op", "units"]) == 0
    out = capsys.readouterr().out
    assert "unit" in out.lower() or "index" in out.lower()
    assert cli.main(["field", "2.2.5.1", "--op", "splitting", "--p", "2"]) == 0


def test_cli_optimize(capsys):
    assert cli.main(["optimize", "--case", "n3"]) == 0
    out = capsys.readouterr().out
    assert "13047/1000" in out
    assert "3.30724" in out


# ---------------------------------------------------------------------------
# witness checks, history independence, high-rank emission, bad CLI input


def test_rank3_witness_is_search_minimum(table):
    best = optimizer.optimize_n3(table, precision_bits=PREC).best_pair
    assert best == ct.N3_WITNESS


def test_proof_path_does_not_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the proof path ran a grid search")

    for name in ("optimize_n2", "optimize_n3", "_minimize"):
        monkeypatch.setattr(optimizer, name, forbidden)
    for n in (2, 3):
        cert = ct.run_case(n, precision_bits=PREC)
        assert cert.all_proved, n
        assert next(s for s in cert.steps if s.id == "degree_threshold").verdict == "Proved", n


def test_l35_witness_is_only_passing_row(table):
    passing = [p for p in table if all(bounds.lemma35_conditions(p, PREC).values())]
    assert passing == [ct.L35_WITNESS]


def test_high_rank_proof_has_no_rank_chain(monkeypatch):
    """A proof of any rank from 4 on evaluates the normalized bound at rank 4 only."""
    calls = []
    normalized_O = bounds.normalized_O

    def counted(n, *args, **kwargs):
        calls.append(n)
        return normalized_O(n, *args, **kwargs)

    monkeypatch.setattr(bounds, "normalized_O", counted)
    for n in (4, 9, 30, 1000):
        calls.clear()
        assert ct.run_case(n, precision_bits=64).all_proved, n
        assert calls == [4], n


def test_reports_from_rank_four_on_differ_only_in_rank_and_claims():
    """Reports of ranks 4, 9, 64, 65 and 1000 record the same steps, anchors,
    enclosures and comparisons: only the rank and the claims that name it
    differ.  The rank-3 report's local stage records the same evidence."""
    def without_rank(n):
        doc = json.loads(ct.emit_report(ct.run_case(n, precision_bits=64)))
        claims = [step.pop("claim") for step in doc["steps"]]
        assert claims == [claim.format(rank=n) for _, claim, _, _ in report.step_plan(n).values()]
        assert doc.pop("rank") == n
        return doc

    docs = {n: without_rank(n) for n in (3, 4, 9, 64, 65, 1000)}
    for n in (9, 64, 65, 1000):
        assert docs[n] == docs[4], n
    for step_id in ("local_special_factor", "local_nonspecial_factor"):
        assert _step(docs[3], step_id) == _step(docs[4], step_id), step_id


def test_proof_above_rank_two_does_not_evaluate_hurwitz_zeta(monkeypatch):
    """zeta(2j) enters the proof only through its closed form; the
    Euler-Maclaurin kernel of zeta and L runs at rank 2 alone, for
    alpha(2.2) in the degree threshold.  The caches start cold, so a zeta
    or L value any proof reads would run the kernel."""
    calls = []
    L_kernel = specfun._L_kernel

    def counted(*args):
        calls.append(args)
        return L_kernel(*args)

    monkeypatch.setattr(specfun, "_L_kernel", counted)
    monkeypatch.setattr(specfun, "_POINT_CACHE", {})
    monkeypatch.setattr(specfun, "_LOG_MEMO", {})
    bounds._n2_t_terms.cache_clear()
    assert ct.run_case(2, precision_bits=64).all_proved
    assert calls
    calls.clear()
    for n in (3, 4, 8, 9):
        assert ct.run_case(n, precision_bits=64).all_proved, n
        assert calls == [], n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proof_computes_no_point_far_above_its_precision(monkeypatch, n):
    """Every quantity asks for the precision of its step and specfun alone
    adds guard bits, inside the kernel, and a cache miss computes at the rung
    of the precision asked for, so no cached point is recomputed at a
    doubled working precision within one proof."""
    computed = []
    cached_point = specfun._cached_point

    def recorded(key, prec, compute):
        def run(q):
            computed.append((key[0], q))
            return compute(q)

        return cached_point(key, prec, run)

    monkeypatch.setattr(specfun, "_cached_point", recorded)
    specfun._POINT_CACHE.clear()
    try:
        assert ct.run_case(n, precision_bits=2048).all_proved
    finally:
        specfun._POINT_CACHE.clear()
    assert computed
    assert max(q for _, q in computed) <= 2048 + 128, sorted(computed, key=lambda c: -c[1])[:3]


def test_ranks_above_four_reuse_the_rank_four_evidence(monkeypatch):
    """Every class-4 quantity is one cached point, so after rank 4 the proofs
    of ranks 5 to 8 at the same precision run no kernel: they add no point
    and no logarithm to the caches and never sum the zeta-product tail."""
    tails = []
    log_zeta_tail = specfun._log_zeta_tail

    def counted(*args):
        tails.append(args)
        return log_zeta_tail(*args)

    monkeypatch.setattr(specfun, "_log_zeta_tail", counted)
    monkeypatch.setattr(specfun, "_POINT_CACHE", {})
    monkeypatch.setattr(specfun, "_LOG_MEMO", {})
    assert ct.run_case(4, precision_bits=192).all_proved
    assert tails
    points, logs = len(specfun._POINT_CACHE), len(specfun._LOG_MEMO)
    tails.clear()
    for n in range(5, 9):
        assert ct.run_case(n, precision_bits=192).all_proved, n
    assert (len(specfun._POINT_CACHE), len(specfun._LOG_MEMO), tails) == (points, logs, [])


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_report_bytes_do_not_depend_on_history(n):
    """A report at 96, 256 or 1024 bits is the same before and after a
    1500-bit run."""
    try:
        for prec in (96, 256, 1024):
            specfun._POINT_CACHE.clear()
            cold = ct.emit_report(ct.run_case(n, precision_bits=prec))
            ct.run_case(n, precision_bits=1500)
            assert ct.emit_report(ct.run_case(n, precision_bits=prec)) == cold, prec
    finally:
        specfun._POINT_CACHE.clear()


# The SHA-256 of the stdout of each command line.  A change that alters
# these bytes on purpose pastes the fresh table that a mismatch prints, and
# names the changed outputs and the reason in CHANGES.md.
PINNED_DIGESTS = {
    "prove --all --format json":
        "2d46f9919ec17d38e5fd1636018ec0006df314cf6f39a9ce867e50e24c1bfad7",
    "prove --all --format text":
        "e9d9818499c73feca76d1baf52115d719eb08400d37cb378d0d139fef41f3606",
    "prove --n 2 --precision 16 --format json":
        "e4c62ffc917be0b7ae8b5436e95a7e7c5569e802025b2d3dd05e0c6243fdedb1",
    "prove --n 2 --precision 256 --format json":
        "6b7707375996d3d1301ef5c220472aa83d016a881d661478870e242affde5cc8",
    "prove --n 2 --precision 2048 --format json":
        "d08ff4cdbdf24f51e71dc328db4e0739d7fb87aa33baeb31898e822dc45f73bf",
    "prove --n 3 --precision 16 --format json":
        "543cab73c73e6502388472d3dcc9513211917e77492f3cbf30115c0800d7c648",
    "prove --n 3 --precision 256 --format json":
        "fa415fc3c72a1dfbc3c01b09ce89df15c6dd84e81872913f775caa71043b8bbb",
    "prove --n 3 --precision 2048 --format json":
        "a0ff0a45727fff8de044e40be15786363438c170ad30215dbeebc03236846af9",
    "prove --n 4 --precision 16 --format json":
        "04216563416469bb0b195662e9c885dcdaa55afd7356c2e355d4edc997d78039",
    "prove --n 4 --precision 256 --format json":
        "0a45f51373e3e9a712f5f541280237110c040c04166bc83f02604d3ec65eb8e7",
    "prove --n 4 --precision 2048 --format json":
        "125422de1016b349e7791cf601796fdddb6e4033184d4e9123669c08929c8452",
    "prove --n 9 --precision 64 --format json":
        "c3a2dc16dd466ec8e44093433dfc03e1b0f290d7d36666ecbdac378531dc4125",
    "prove --n 64 --precision 64 --format json":
        "11769f454501b5f3f4e6c681e82fcbe481c5c924909329adedb0944a4e16f9a8",
    "prove --n 1000 --precision 64 --format json":
        "e37363e2db29cb8799322a16fd5ca6e47b3524db49c5927ed164cc4ce79f9430",
    "optimize --case n2":
        "ac8543c27539addc495e41ce4c052b5e60306e3718b4dd10d29a7912495bf21d",
    "optimize --case n3":
        "a1c36f42e95765c7c549b28c321c07841c4f9f7788416144e53a7edea76db803",
}


def test_outputs_match_pinned_digests(capsysbinary):
    """Each pinned command line, run in this process after whatever ran
    before it, exits 0 and prints the bytes whose digest is pinned."""
    fresh = {}
    for line in PINNED_DIGESTS:
        assert cli.main(line.split()) == cli.EXIT_OK, line
        fresh[line] = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    table = "".join(f'    "{line}":\n        "{digest}",\n' for line, digest in fresh.items())
    assert fresh == PINNED_DIGESTS, "fresh digests:\n" + table


@pytest.mark.parametrize(
    "n, prec",
    [(n, 256) for n in range(2, 9)]
    + [(9, 64), (64, 64), (2, 1024), (2, 2048), (3, 2048), (4, 2048)],
)
def test_every_enclosure_delivers_the_requested_bits(n, prec):
    """Each recorded enclosure is narrower than 2^-(p - 16) relative to its
    magnitude, where p is the precision the report was asked for.  An
    endpoint is a Fraction, or a Ratio where the plan states the enclosure."""
    floor = prec - 16
    for step in ct.run_case(n, precision_bits=prec).steps:
        for e in step.enclosures:
            lo, hi = (Fraction(x.numerator, x.denominator) for x in (e.lo, e.hi))
            assert (hi - lo) * 2**floor <= max(abs(lo), abs(hi)), (step.id, e)


def test_rank3_cutoffs_check_their_e046_constant(cert_by_rank, tmp_path):
    """The rank-3 cutoffs use 1.58 in place of e^0.46 = 1.5841, and the step
    records that comparison.  1.58 has one definition, in report.py: in a
    copy of the package where it reads 1.59, the cutoffs change with it and
    the step fails."""
    package = Path(covcert.__file__).parent
    copy = tmp_path / "covcert"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / "report.py").read_text()
    assert source.count("Ratio(79, 50)") == 1
    (copy / "report.py").write_text(source.replace("Ratio(79, 50)", "Ratio(159, 100)"))
    out = subprocess.run(
        [sys.executable, "-m", "covcert.cli", "prove", "--n", "3", "--precision", str(PREC),
         "--format", "json"],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True,
        timeout=120,
    )
    assert out.returncode == cli.EXIT_STEP_FAILED
    edited = _step(json.loads(out.stdout), "discriminant_cutoffs")
    honest = _step(json.loads(ct.emit_report(cert_by_rank[3])), "discriminant_cutoffs")
    assert edited["verdict"] == "Failed"
    assert edited["comparisons"][-1]["relation"] == "CertainlyLess"
    assert edited["comparisons"][-1]["rhs"] == ["159/100", "159/100"]
    assert edited["enclosures"][:2] != honest["enclosures"][:2]  # the cutoffs


def _vendored_rows():
    """The rows of the vendored bound-pair table as written, each an (A, E) of Fractions."""
    vendored = Path(numberfields.__file__).parent / "data" / "odlyzko.csv"
    return {
        tuple(map(Fraction, line.split(","))): line
        for line in vendored.read_text().splitlines() if line[:1].isdigit()
    }


@pytest.mark.parametrize("witness", [ct.N2_WITNESS[0], ct.N3_WITNESS, ct.L35_WITNESS])
def test_witness_rows_are_rows_of_the_vendored_table(witness):
    """Each bound pair the proof evaluates is a row of the vendored table,
    the table that axiom A3 takes as valid, though the proof reads no table."""
    assert tuple(witness) in _vendored_rows()
    assert witness in bounds.load_odlyzko_table()


@pytest.mark.parametrize(
    "n, witness", [(2, ct.N2_WITNESS[0]), (3, ct.N3_WITNESS), (4, ct.L35_WITNESS)]
)
def test_missing_witness_row(tmp_path, table, n, witness, capsys):
    """The witnesses are the table's optima: over the vendored table without
    a witness row, ``optimize`` finds another best pair at ranks 2 and 3,
    and at rank 4 no row passes Lemma 3.5's conditions."""
    rows = [line for row, line in _vendored_rows().items() if row != tuple(witness)]
    assert len(rows) == len(table) - 1
    path = tmp_path / "odlyzko.csv"
    path.write_text("\n".join(rows) + "\n")
    if n == 4:
        passing = [p for p in bounds.load_odlyzko_table(str(path))
                   if all(bounds.lemma35_conditions(p, PREC).values())]
        assert passing == []
    else:
        assert cli.main(["optimize", "--case", f"n{n}", "--odlyzko", str(path)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "best pair: " in out and f"A = {witness.A}, E = {witness.E}" not in out


def test_overlap_gives_tie_that_verifies(cert_by_rank):
    """A rank-4 report with one comparison overlapped: a Tie, so no conclusion."""
    doc = json.loads(ct.emit_report(cert_by_rank[4]))
    _overlapped(doc)
    assert ct.verify_report(json.dumps(doc).encode()) == "NotProved"


def test_step_without_comparisons_is_not_proved(cert_by_rank):
    """A step emptied of its comparisons is not the rendering of its
    enclosures, and one emptied of its enclosures falls short of its plan's
    quantities.  A step that keeps both but does not hold, on one overlapped
    comparison, leaves a plan-shaped report NotProved, though a later step
    depends on it (high_rank_conclusion on inner_factor_ge_one).  Its
    overlapping side is the point 0: an interval about 0 is wider than any
    precision allows."""
    for emptied, message in (("comparisons", "not its rendering's"),
                             ("enclosures", "enclosures are not its plan's")):
        doc = json.loads(ct.emit_report(cert_by_rank[4]))
        doc["final_conclusion"] = ""
        _step(doc, "inner_factor_ge_one").update({emptied: [], "verdict": "Failed"})
        with pytest.raises(ct.TamperDetected, match=message):
            ct.verify_report(json.dumps(doc).encode())
    doc = json.loads(ct.emit_report(cert_by_rank[4]))
    doc["final_conclusion"] = ""
    step = _step(doc, "inner_factor_ge_one")
    step["comparisons"][0].update(lhs=["0", "0"], relation="Overlap")
    step["enclosures"][0] = ["0", "0"]
    step["verdict"] = "Tie"
    assert ct.verify_report(json.dumps(doc).encode()) == "NotProved"


def test_clipped_step_is_named(cert_by_rank):
    """A step with an enclosure fewer than its plan's quantities is
    tampered, and the error names the step and both counts."""
    doc = json.loads(ct.emit_report(cert_by_rank[3]))
    _step(doc, "refined_cutoffs")["enclosures"].pop()
    with pytest.raises(ct.TamperDetected,
                       match="step refined_cutoffs: its 1 enclosures are not its plan's 2"):
        ct.verify_report(json.dumps(doc).encode())


def test_off_plan_report_with_a_failing_step_is_tampered():
    """A one-step rank-1 report follows no plan, whatever its verdicts."""
    step = ct.CertificateStep("empty", "claim", "anchor", (), (), "Failed", (), PREC)
    cert = ct.Certificate(1, PREC, [step], [], "")
    with pytest.raises(ct.TamperDetected, match="rank 1 is outside"):
        ct.verify_report(ct.emit_report(cert))


def test_plans_depend_only_on_earlier_steps_and_known_axioms():
    """Each planned dependency names an earlier step of its plan; the axiom
    steps are exactly A1-A5, each claiming its axiom's text with the axiom
    anchor and no comparison; every claim is a template whose only field is
    {rank}; every anchor is text."""
    planned_axioms = set()
    for rank, plan in report.STEP_PLANS.items():
        earlier = set()
        for step_id, (dependencies, claim, anchor, comparisons) in plan.items():
            assert set(dependencies) <= earlier, (rank, step_id)
            earlier.add(step_id)
            fields = {field for _, field, _, _ in Formatter().parse(claim)}
            assert fields <= {None, "rank"}, (rank, step_id)
            assert (step_id in report.AXIOMS) == (step_id[0] == "A"), step_id
            assert isinstance(anchor, str), (rank, step_id)
            if step_id in report.AXIOMS:
                expected = (report.AXIOMS[step_id], report.AXIOM_ANCHOR, ())
                assert (claim, anchor, comparisons) == expected, step_id
            else:
                assert comparisons, (rank, step_id)
        planned_axioms |= set(plan) & set(report.AXIOMS)
    assert planned_axioms == set(report.AXIOMS)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_run_case_walks_the_plan(n, monkeypatch):
    """The prover's evidence covers exactly its class's plan steps whose
    enclosures the plan does not state, and evidence with one side fewer
    than the plan's comparisons stops the proof with an error that names the
    step and both counts."""
    evidence = ct._EVIDENCE[report.rank_class(n)]
    stated = report.STATED_POINTS[report.rank_class(n)]
    assert set(evidence) == set(report.step_plan(n)) - set(stated)
    step_id = next(step_id for step_id in report.step_plan(n) if step_id in evidence)
    full = evidence[step_id]

    def short(prec):
        return full(prec)[:-1]

    monkeypatch.setitem(evidence, step_id, short)
    quantities = len(report.step_plan(n)[step_id][3])
    message = f"step {step_id}: its {quantities - 1} enclosures are not its plan's {quantities}"
    with pytest.raises(ValueError, match=message):
        ct.run_case(n, precision_bits=64)


STANDALONE_CHECK = """
import importlib.util, sys
module_path, *reports = sys.argv[1:]
spec = importlib.util.spec_from_file_location("report", module_path)
report = importlib.util.module_from_spec(spec)
sys.modules["report"] = report
spec.loader.exec_module(report)
for path in reports:
    try:
        print(report.verify_report(open(path, "rb").read()))
    except (report.TamperDetected, report.SchemaMismatch) as exc:
        print(type(exc).__name__)
print(sorted(name for name in sys.modules if name.startswith("covcert")))
print("dataclasses" in sys.modules)
"""


def _forged_reports(docs):
    """Forgeries of honest reports (by rank, ranks 2, 4 and 5 used), each
    with the outcome the checker must give it."""

    def edited(rank, step_id, **fields):
        doc = json.loads(json.dumps(docs[rank]))
        step = _step(doc, step_id)
        step.update(fields)
        return doc, step

    overlapped = json.loads(json.dumps(docs[4]))
    _overlapped(overlapped)
    zero_below_one = {"lhs": ["0", "0"], "rhs": ["1", "1"], "relation": "CertainlyLess",
                      "required": "CertainlyLess"}
    axiom_proved, _ = edited(5, "A3", verdict="Proved", claim="any statement at all",
                             comparisons=[zero_below_one])
    claim_edited, _ = edited(5, "high_rank_conclusion", claim="1 + 1 = 3")
    zeta_sides, step = edited(4, "zeta_product_bound")
    step["comparisons"][0].update(lhs=["1", "1"], rhs=["100", "100"])
    bound_side_zeroed, step = edited(4, "high_rank_conclusion")
    step["comparisons"][0]["rhs"] = ["0", "0"]
    exponent, step = edited(4, "zeta_product_bound")
    step["enclosures"][0][1] = "1e10000000"
    edits = {
        "rank 4 with a top-level key added": _top_level_key_added,
        "rank 4 with a key added to a step": _step_key_added,
        "rank 4 with a key added to a comparison": _comparison_key_added,
        "rank 4 axiom A5's anchor rewritten": _axiom_anchor_rewritten,
        "rank 4 conclusion's 1.83 side spelled 366/200": _constant_side_respelled,
        "rank 4 NotProved with another conclusion": _not_proved_conclusion_edited,
        "rank 4 NotProved with no conclusion": _not_proved_conclusion_dropped,
    }
    closed = {}
    for name, mutate in edits.items():
        doc = json.loads(json.dumps(docs[4]))
        mutate(doc)
        closed[name] = (doc, "TamperDetected")
    return {
        "rank 2 cut to two steps": (dict(docs[2], steps=docs[2]["steps"][:2]), "TamperDetected"),
        "rank 2 relabelled rank 3": (dict(docs[2], rank=3), "TamperDetected"),
        "rank 4 with one comparison overlapped": (overlapped, "NotProved"),
        "rank 5 relabelled rank 9": (dict(docs[5], rank=9), "TamperDetected"),
        "rank 5 axiom A3 turned into a proof of 0 < 1": (axiom_proved, "TamperDetected"),
        "rank 5 conclusion claiming 1 + 1 = 3": (claim_edited, "TamperDetected"),
        "rank 4 zeta product sides replaced by 1 < 100": (zeta_sides, "TamperDetected"),
        "rank 4 surviving fields forged": (
            dict(docs[4], surviving_fields_after_global=["7.7.7.7", "2.2.5.1"]), "TamperDetected"
        ),
        "rank 4 conclusion's 1.83 side replaced by 0": (bound_side_zeroed, "TamperDetected"),
        "rank 4 endpoint spelled 1e10000000": (exponent, "SchemaMismatch"),
        **closed,
    }


# the reports CI proves through the installed script: prove --all at the
# default 256 bits, then single ranks at 64 to 2048 bits
_CI_REPORTS = [(n, 256) for n in range(2, 9)] + [
    (64, 64), (64, 256), (4, 2048), (2, 1024), (2, 2048), (3, 2048), (1000, 64)
]


def test_report_module_verifies_alone(cert_by_rank, tmp_path):
    """report.py, copied alone and loaded by path, re-checks reports without
    covcert or dataclasses, those of the tier-1 suite and of CI's proofs
    alike, and rejects forgeries of them."""
    source = (Path(covcert.__file__).parent / "report.py").read_text()
    nodes = list(ast.walk(ast.parse(source)))
    from_imports = [node for node in nodes if isinstance(node, ast.ImportFrom)]
    assert all(node.level == 0 for node in from_imports)  # no relative import
    imported = [node.module for node in from_imports] + [
        alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names
    ]
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names
    module = tmp_path / "report.py"
    module.write_text(source)
    honest = [*cert_by_rank.values()]
    honest += [ct.run_case(n, precision_bits=bits) for n, bits in _CI_REPORTS]
    paths = []
    for i, cert in enumerate(honest):
        paths.append(tmp_path / f"honest{i}.json")
        paths[-1].write_bytes(ct.emit_report(cert))
    doc = json.loads(ct.emit_report(cert_by_rank[3]))
    _step(doc, "degree_threshold")["verdict"] = "Failed"
    paths.append(tmp_path / "tampered.json")
    paths[-1].write_text(json.dumps(doc))
    docs = {n: json.loads(ct.emit_report(cert)) for n, cert in cert_by_rank.items()}
    forged = _forged_reports(docs)
    for i, (doc, _) in enumerate(forged.values()):
        paths.append(tmp_path / f"forged{i}.json")
        paths[-1].write_text(json.dumps(doc))
    # -I: no PYTHONPATH, no user site and no script directory on sys.path
    out = subprocess.run(
        [sys.executable, "-I", "-c", STANDALONE_CHECK, str(module), *map(str, paths)],
        cwd=tmp_path,
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    ).stdout.splitlines()
    outcomes = dict(zip(forged, out[len(honest) + 1 : -2]))
    assert outcomes == {name: outcome for name, (_, outcome) in forged.items()}
    assert out[: len(honest) + 1] == ["Proved"] * len(honest) + ["TamperDetected"]
    assert out[-2:] == ["[]", "False"]  # no covcert module, and no dataclasses either


@pytest.mark.parametrize("n", [34, 55, 64])
def test_high_rank_reports_emit_and_verify(n):
    cert = ct.run_case(n, precision_bits=64)
    assert cert.all_proved
    assert ct.verify_report(ct.emit_report(cert)) == "Proved"


def test_prove_all_matches_separate_processes():
    """A report's bytes do not depend on what ran earlier in the process."""
    env = dict(os.environ)
    src = str(Path(covcert.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def prove(*args):
        return subprocess.run(
            [sys.executable, "-m", "covcert.cli", "prove", "--format", "json", *args],
            env=env,
            capture_output=True,
            check=True,
            timeout=300,
        ).stdout

    together = prove("--all")
    separate = b"".join(prove("--n", str(n)) for n in range(2, 9))
    assert together == separate


BAD_FLAGS = [
    (["prove", "--n", "1"], "must be at least 2"),
    (["prove", "--n", "3", "--precision", "8"], "must be at least 16"),
    (["prove", "--n", "4", "--precision", "16384"], "must be at most 8192"),
    (["prove", "--n", "9" * 5000], "invalid integer"),
    *(
        (["field", "2.2.5.1", "--op", "splitting", "--p", p], "must be a prime")
        for p in ("0", "1", "4", "-3")
    ),
    (["prove", "--all", "--n", "5"], "not allowed with argument"),
    (["prove", "--n", "2", "--all"], "not allowed with argument"),
    # a command takes only the data paths it reads
    (["optimize", "--case", "n3", "--fields", "x"], "unrecognized arguments: --fields x"),
    (["field", "2.2.5.1", "--op", "units", "--odlyzko", "x"], "unrecognized arguments: --odlyzko x"),
    # prove reads no data file: its witness rows and candidates are stated
    (["prove", "--n", "3", "--odlyzko", "x"], "unrecognized arguments: --odlyzko x"),
    (["prove", "--n", "3", "--fields", "x"], "unrecognized arguments: --fields x"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_FLAGS, ids=[f"argv{i}" for i in range(len(BAD_FLAGS))]
)
def test_cli_rejects_bad_flags(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


LONG_ARGUMENTS = [
    (["prove", "--n", "9" * 5000], 2),
    (["prove", "--n", "-" + "9" * 4000], 2),
    (["prove", "--precision", "9" * 4000], 2),
    (["field", "2.2.5.1", "--op", "zeta", "--s", "9" * 5000], 2),
    (["field", "2.2.5.1", "--op", "zeta", "--s", "9" * 4000], 3),
    (["field", "2.2.5.1", "--op", "splitting", "--p", "9" * 4000], 2),
    (["field", "x" * 4000, "--op", "units"], 3),
]


@pytest.mark.parametrize(
    "argv, code", LONG_ARGUMENTS, ids=[f"argv{i}" for i in range(len(LONG_ARGUMENTS))]
)
def test_cli_echoes_a_long_argument_on_one_short_line(argv, code, capsys):
    """A rejected argument thousands of characters long is echoed in part:
    the error is one short line, after argparse's usage on a usage error."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    *usage, message = capsys.readouterr().err.splitlines()
    assert len(message) < 160 and "Traceback" not in message
    assert bool(usage) == (code == 2)
    assert all(line.startswith(("usage:", " ")) for line in usage)


_OPTIONS = ("--n", "--all", "--format", "--odlyzko", "--fields", "--precision", "--case",
            "--op", "--s", "--p")
_VALUES = (
    "2", "4", "7", "16", "64", "json", "text", "n2", "n3", "zeta", "units", "splitting",
    "2.2.5.1", "report.json", "",  # valid somewhere
    "x", "0", "1", "8", "16384", "xml", "n4", "4294967296", "+4", "\u0663",  # invalid somewhere
    "-3", "-1", "-" + "9" * 40,  # negative
    "9" * 40, "9" * 5000,  # huge
    "-x", "--x", "-",  # dash-led
)
_TOKENS = st.sampled_from(_OPTIONS + _VALUES + (
    "--pre", "--fo", "--a", "--c", "--o", "--precision=64", "--n=4", "--format=json",
    "--", "-h", "--help", "prove", "verify",
))


@st.composite
def _argv(draw):
    """A command line: some of the command's own arguments, each once and
    with a drawn value, in any order, with up to two other tokens inserted."""
    command = draw(st.sampled_from(sorted(cli._ARGUMENTS) + ["bogus", "-h", "--help", "--"]))
    arguments = dict(cli._ARGUMENTS.get(command, ("", ()))[1])
    tokens = [command]
    for name in draw(st.permutations(list(arguments))):
        if draw(st.booleans()):
            if name.startswith("-"):
                tokens.append(name)
            if arguments[name].get("action") != "store_true":
                choices = arguments[name].get("choices")
                values = st.sampled_from(_VALUES)
                tokens.append(draw(st.one_of(st.sampled_from(choices), values) if choices else values))
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(1, len(tokens))), draw(_TOKENS))
    return tokens


@settings(max_examples=1000, deadline=None)
@given(argv=_argv())
def test_plain_args_agree_with_argparse(argv):
    """Whenever ``_plain_args`` parses a command line, argparse parses it
    without error to the same namespace."""
    plain = cli._plain_args(argv)
    if plain is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = cli.build_parser().parse_args(argv)
        assert vars(plain) == vars(parsed)


# every command line that perfbench/run.py, perfbench/child.py and the CI
# workflow run; each must skip argparse
PLAIN_LINES = [
    ["prove", "--all", "--format", "json"],
    ["prove", "--format", "json"],
    *(["prove", "--n", str(n), "--format", "json"] for n in range(2, 9)),
    *(
        ["prove", "--n", str(n), "--precision", "64", "--format", "json"]
        for n in (*range(9, 13), *range(19, 23), *range(29, 35), 53, 55)
    ),
    *(["prove", "--n", str(n), "--precision", "256", "--format", "json"] for n in range(3, 9)),
    ["verify", "report_rank4.json"],
    ["optimize", "--case", "n3"],
    ["field", "2.2.5.1", "--op", "zeta"],
    ["field", "3.3.49.1", "--op", "units"],
    ["field", "3.3.49.1", "--op", "splitting", "--p", "7"],
]


@pytest.mark.parametrize("argv", PLAIN_LINES, ids=[" ".join(argv) for argv in PLAIN_LINES])
def test_benchmark_and_ci_lines_are_plain(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("n", ["65", "100000"])
def test_cli_proves_every_rank_from_two(n, tmp_path, capsysbinary):
    """``prove --n`` has no upper limit: a rank above 64 proves and verifies."""
    assert cli.main(["prove", "--n", n, "--precision", "16", "--format", "json"]) == cli.EXIT_OK
    path = tmp_path / "report.json"
    path.write_bytes(capsysbinary.readouterr().out)
    assert json.loads(path.read_bytes())["rank"] == int(n)
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK


@pytest.fixture
def bad_data(tmp_path):
    """Paths of inputs that are missing, malformed or incomplete."""
    (tmp_path / "malformed").write_text("1,2,3\n")
    (tmp_path / "not_json.json").write_text("{not json")
    (tmp_path / "infeasible").write_text("2,1\n3,1\n")
    (tmp_path / "comments_only").write_text("# no rows\n\n")
    vendored = Path(numberfields.__file__).parent / "data"
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for name in ("CHECKSUMS", "fields.catalog", "odlyzko.csv"):
        (data_dir / name).write_bytes((vendored / name).read_bytes())
    with open(data_dir / "fields.catalog", "a") as f:
        f.write("# edited\n")
    lines = (vendored / "fields.catalog").read_text().splitlines(keepends=True)
    (tmp_path / "repeated.catalog").write_text("".join(lines) + "2.2.5.1|2|5|1|-1,-1,1\n")
    (tmp_path / "relabelled.catalog").write_text("".join(lines) + "2.2.5.2|2|5|1|-1,-1,1\n")
    (tmp_path / "reducible.catalog").write_text("".join(lines) + "2.2.4.1|2|4|1|-1,0,1\n")
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    (tmp_path / "long_int.json").write_text('{"schema_version": 1, "rank": ' + "9" * 5001 + "}")
    (tmp_path / "latin1").write_bytes(b"\xff\xfe not UTF-8\n")
    # an exponent, which Fraction would expand to 5001 digits
    (tmp_path / "exponent").write_bytes((vendored / "odlyzko.csv").read_bytes() + b"1e5000,1\n")
    torn = tmp_path / "torn"
    torn.mkdir()
    for name in ("fields.catalog", "odlyzko.csv"):
        (torn / name).write_bytes((vendored / name).read_bytes())
    (torn / "CHECKSUMS").write_bytes((vendored / "CHECKSUMS").read_bytes() + b"garbage\n")
    return {"tmp": str(tmp_path), "data": str(data_dir), "torn": str(torn)}


LONG_MISSING_PATH = "{tmp}/missing/" + "/".join(["y" * 200] * 19)
BAD_INPUT = [
    ["field", "4.4.725.1", "--op", "zeta"],
    ["field", "2.2.5.1", "--op", "zeta", "--s", "3"],
    ["field", "2.2.5.1", "--op", "zeta", "--fields", "{tmp}/malformed"],
    ["field", "2.2.5.1", "--op", "units", "--fields", "{tmp}/malformed"],
    ["optimize", "--case", "n2", "--odlyzko", "{tmp}/malformed"],
    ["optimize", "--case", "n3", "--odlyzko", "{tmp}/malformed"],
    ["field", "2.2.5.1", "--op", "zeta", "--fields", "{data}/fields.catalog"],
    ["field", "2.2.5.1", "--op", "units", "--fields", "{data}/fields.catalog"],
    ["verify", "{tmp}"],
    ["verify", "{tmp}/deep.json"],
    ["field", "2.2.5.1", "--op", "units", "--fields", "{torn}/fields.catalog"],
    ["field", "2.2.5.1", "--op", "units", "--fields", "{tmp}/latin1"],
    ["optimize", "--case", "n3", "--odlyzko", "{tmp}/latin1"],
    ["optimize", "--case", "n3", "--precision", "16", "--odlyzko", "{tmp}/exponent"],
    ["optimize", "--case", "n3", "--odlyzko", "{tmp}/exponent"],
    ["optimize", "--case", "n2", "--odlyzko", "{tmp}/exponent"],
    ["optimize", "--case", "n3", "--odlyzko", "{tmp}/infeasible"],
    ["optimize", "--case", "n3", "--odlyzko", "{tmp}/comments_only"],
    ["verify", "{tmp}/long_int.json"],
    # a file name longer than the system allows (ENAMETOOLONG)
    ["verify", "{tmp}/" + "x" * 300],
    ["optimize", "--case", "n2", "--odlyzko", "{tmp}/" + "x" * 300],
    ["field", "2.2.5.1", "--op", "units", "--fields", "{tmp}/" + "x" * 300],
    ["optimize", "--case", "n3", "--odlyzko", "{tmp}/" + "x" * 300],
    # a missing path thousands of characters long, each name within the limit
    ["verify", LONG_MISSING_PATH],
    ["field", "2.2.5.1", "--op", "units", "--fields", LONG_MISSING_PATH],
    ["optimize", "--case", "n3", "--odlyzko", LONG_MISSING_PATH],
    ["verify", "{tmp}/not_json.json"],
    ["field", "3.3.49.1", "--op", "splitting", "--p", "7", "--fields", "{tmp}/malformed"],
    # an empty path names no file: it is not the vendored one
    ["field", "2.2.5.1", "--op", "zeta", "--precision", "16", "--fields", ""],
    ["optimize", "--case", "n2", "--odlyzko", ""],
    ["optimize", "--case", "n3", "--odlyzko", ""],
    ["field", "2.2.5.1", "--op", "units", "--fields", ""],
    # UnsupportedField: no splitting rule for a quartic field
    ["field", "4.4.725.1", "--op", "splitting", "--p", "5"],
    # a repeated record, which would list its field twice
    ["field", "2.2.5.1", "--op", "units", "--fields", "{tmp}/repeated.catalog"],
    # the same field under a new label
    ["field", "2.2.5.1", "--op", "units", "--fields", "{tmp}/relabelled.catalog"],
    # a square discriminant, whose units Pell's equation would seek forever
    ["field", "2.2.4.1", "--op", "units", "--fields", "{tmp}/reducible.catalog"],
]


@pytest.mark.parametrize("argv", BAD_INPUT, ids=[f"argv{i}" for i in range(len(BAD_INPUT))])
def test_cli_bad_input(argv, bad_data, capsys):
    rc = cli.main([arg.format(**bad_data) for arg in argv])
    assert rc == cli.EXIT_DATA_MISSING
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    if any(len(arg) > 200 for arg in argv):  # a long path is echoed in part
        assert len(err.encode()) < 160, err[:200]
    if "" in argv:  # an empty path names the data file it stood for, not the working directory
        name = {"--fields": "fields.catalog", "--odlyzko": "odlyzko.csv"}[argv[argv.index("") - 1]]
        assert name in err and os.getcwd() not in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--case", "n3", "--odlyzko", "{missing}"],
        ["field", "2.2.5.1", "--op", "units", "--fields", "{missing}"],
    ],
    ids=["optimize", "field"],
)
def test_cli_missing_data_file(argv, tmp_path, capsys):
    """A missing data file exits 3 as DataMissing under every command that reads one."""
    missing = str(tmp_path / "missing.csv")
    assert cli.main([arg.format(missing=missing) for arg in argv]) == cli.EXIT_DATA_MISSING
    err = capsys.readouterr().err
    assert err.startswith("DataMissing: ") and err.count("\n") == 1, err


@pytest.fixture
def opened(monkeypatch):
    """Names of the files opened through ``Path.open`` during the test."""
    names = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        names.append(self.name)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    return names


def test_data_files_read_once_and_cached_by_path(bad_data, opened):
    """Each load hashes and parses one read, once per path; another path is
    read afresh."""
    numberfields._parsed.cache_clear()
    bounds.load_odlyzko_table()
    bounds.load_odlyzko_table()
    assert opened.count("odlyzko.csv") == 1
    numberfields.default_catalog()
    opened.clear()
    with pytest.raises(numberfields.InvariantViolation):  # it fails its checksum
        numberfields.default_catalog(f"{bad_data['data']}/fields.catalog")
    assert opened.count("fields.catalog") == 1


def test_data_files_hashed_by_the_builtin_sha256(bad_data):
    """``read_data_file`` checks each vendored file by the same SHA-256 as
    hashlib's; a one-byte edit fails the check."""
    vendored = Path(numberfields.__file__).parent / "data"
    manifest = numberfields._manifest_digests(vendored / "CHECKSUMS")
    assert sorted(manifest) == ["fields.catalog", "odlyzko.csv"]
    for name, expected in manifest.items():
        data = numberfields.read_data_file(vendored / name)
        assert numberfields.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest() == expected
    edited = Path(bad_data["data"]) / "odlyzko.csv"
    data = bytearray(edited.read_bytes())
    data[-2] ^= 1  # a digit of the last row
    edited.write_bytes(bytes(data))
    for name in manifest:  # fields.catalog has an appended line
        with pytest.raises(numberfields.InvariantViolation, match="checksum mismatch"):
            numberfields.read_data_file(Path(bad_data["data"]) / name)


def test_data_files_hashed_without_builtin_sha256():
    """A build without the builtin SHA-256 modules hashes through hashlib."""
    probe = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "from covcert import bounds, numberfields; "
        "print(len(bounds.load_odlyzko_table()) > 0, len(numberfields.default_catalog()) > 0, "
        "'hashlib' in sys.modules)"
    )
    src = str(Path(covcert.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    ).stdout
    assert out.split() == ["True", "True", "True"]


def test_prove_all_opens_no_data_file(bad_data, opened, capsysbinary):
    """``prove --all`` opens no file, neither the field catalog nor the
    bound-pair table: its plan states the witness rows and the coarse
    cutoffs' candidates.  ``optimize`` does not cache a malformed table and exits 3
    on it every time."""
    numberfields._parsed.cache_clear()
    assert cli.main(["prove", "--all", "--precision", str(PREC)]) == cli.EXIT_OK
    assert opened == []
    malformed = ["optimize", "--case", "n3", "--odlyzko", f"{bad_data['tmp']}/malformed"]
    assert cli.main(malformed) == cli.main(malformed) == cli.EXIT_DATA_MISSING
    assert capsysbinary.readouterr().err.count(b"MalformedTable") == 2


def test_input_errors_share_one_base():
    """Every input error is a ``report.InputError``, which the CLI maps to exit
    3 without naming a layer; a tampered report is not one and exits 2."""
    errors = [
        ct.SchemaMismatch, bounds.MalformedTable, numberfields.MalformedCatalog,
        numberfields.InvariantViolation, numberfields.UnsupportedField,
        numberfields.UnsupportedArgument, optimizer.NoFeasiblePoint, optimizer.EmptyTable,
    ]
    assert all(issubclass(error, report.InputError) for error in errors)
    assert issubclass(report.InputError, ValueError)
    assert not issubclass(ct.TamperDetected, report.InputError)


VERIFY_PROBE = """
import json, sys, types
from covcert import cli
layers = ["rigor", "specfun", "numberfields", "bounds", "localfactors", "optimizer", "certifier"]

def executed():
    return [name for name in layers if type(sys.modules[f"covcert.{name}"]) is types.ModuleType]

results = [(cli.main(["verify", path]), executed()) for path in sys.argv[1:]]
results.append([name for name in ("argparse", "gettext", "locale", "fractions", "decimal",
                                  "numbers") if name in sys.modules])
results.append((cli.main(["prove", "--n", "4", "--precision", "64"]), executed()))
results.append([(cli.main(["prove", "--n", n, "--precision", "64"]), executed())
                for n in ("2", "3")])
results.append([name for name in ("argparse", "gettext", "locale", "hashlib", "_hashlib")
                if name in sys.modules])
print(json.dumps(results))
"""


def test_verify_executes_no_layer(cert_by_rank, tmp_path):
    """``verify`` runs ``report.py`` alone: on an honest, a tampered and a
    malformed report every proof layer stays registered but unexecuted, and
    argparse, gettext and locale are not imported, nor are fractions,
    decimal and numbers: the checker decides by integer arithmetic.
    ``prove`` at rank 4 in the same process executes every layer but the
    search and ``localfactors``, whose exact factors the plan states, and
    still imports neither argparse, gettext and locale (its command line is
    plain) nor hashlib and OpenSSL's _hashlib (it reads no data file).  ``prove`` at ranks 2 and 3 executes no
    ``localfactors`` either: the plan states their global stage and the
    rank-2 local exclusion."""
    honest = tmp_path / "honest.json"
    honest.write_bytes(ct.emit_report(cert_by_rank[4]))
    doc = json.loads(honest.read_bytes())
    _step(doc, "high_rank_conclusion")["verdict"] = "Failed"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    src = str(Path(covcert.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", VERIFY_PROBE, str(honest), str(tampered), str(malformed)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    ).stdout.splitlines()
    results = json.loads(out[-1])
    assert results[:4] == [[0, []], [2, []], [3, []], []]
    assert results[4] == [0, ["rigor", "specfun", "numberfields", "bounds", "certifier"]]
    assert results[5] == [[0, results[4][1]]] * 2
    assert results[6] == []


def test_verify_imports_neither_pathlib_nor_typing(cert_by_rank, tmp_path):
    """Without site hooks, a verify process imports neither pathlib nor typing:
    it reads the report with ``open``, and the report's record types are
    ``collections.namedtuple`` subclasses."""
    honest = tmp_path / "honest.json"
    honest.write_bytes(ct.emit_report(cert_by_rank[4]))
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); from covcert import cli; "
        "code = cli.main(['verify', sys.argv[2]]); "
        "print(code, [m for m in ('pathlib', 'typing') if m in sys.modules])"
    )
    src = str(Path(covcert.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-I", "-c", probe, src, str(honest)],  # no site, no PYTHONPATH
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    ).stdout.splitlines()
    assert out == ["verdict: Proved", "0 []"]


PROCESS_ARGV = [
    (["verify", "{honest}"], 0),
    (["verify", "{tampered}"], 2),
    (["verify", "{malformed}"], 3),
    (["verify", "{missing}"], 3),
    (["verify", "{raised}"], 2),
    (["verify", "{beyond}"], 3),
    (["verify"], 2),
    (["verify", "-h"], 0),
    (["verify", "{honest}", "{honest}"], 2),
    (["verify", "--", "-x"], 3),
    (["prove", "--n", "4", "--format", "json"], 0),
    (["prove", "-h"], 0),
    (["prove", "--n", "1"], 2),
]


def test_process_entry_matches_main(cert_by_rank, tmp_path, monkeypatch, capsysbinary):
    """A ``python -m covcert.cli`` process gives the exit code, stdout and
    stderr of ``cli.main`` in this process, for plain command lines, the
    parser's help and usage errors, and ``prove``.  Stdout goes to a file,
    block-buffered, so a report line reaches it only through ``run``'s flush.
    A report that claims 8192 bits it was not proved at is tampered, and one
    that claims 8193, more than ``--precision`` accepts, is malformed."""
    names = ("honest", "tampered", "malformed", "missing", "raised", "beyond")
    paths = {name: tmp_path / f"{name}.json" for name in names}
    paths["honest"].write_bytes(ct.emit_report(cert_by_rank[4]))
    doc = json.loads(paths["honest"].read_bytes())
    _step(doc, "high_rank_conclusion")["verdict"] = "Failed"
    paths["tampered"].write_text(json.dumps(doc))
    for name, mutate in (("raised", _precision_raised), ("beyond", _precision_above_8192)):
        doc = json.loads(paths["honest"].read_bytes())
        mutate(doc)
        paths[name].write_text(json.dumps(doc))
    paths["malformed"].write_text("{not json")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    env = {**os.environ, "PYTHONPATH": str(Path(covcert.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    for template, code in PROCESS_ARGV:
        argv = [arg.format(**paths) for arg in template]
        try:
            assert cli.main(argv) == code, argv
        except SystemExit as exc:
            assert exc.code == code, argv
        expected = (code, *capsysbinary.readouterr())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.run(
                [sys.executable, "-m", "covcert.cli", *argv],
                stdout=out, stderr=err, env=env, timeout=120,
            )
        assert (proc.returncode, out_path.read_bytes(), err_path.read_bytes()) == expected, argv
        assert expected[1] or expected[2], argv


def _widened_endpoint(data: bytes) -> bytes:
    """A report with its first fraction endpoint p/q written as (p 10^k)/(q 10^k),
    its numerator longer than ``cli.INT_MAX_STR_DIGITS`` digits."""
    doc = json.loads(data)
    for step in doc["steps"]:
        for enclosure in step["enclosures"]:
            for i, text in enumerate(enclosure):
                if "/" in text:
                    num, den = text.split("/")
                    zeros = "0" * cli.INT_MAX_STR_DIGITS
                    enclosure[i] = f"{num}{zeros}/{den}{zeros}"
                    return json.dumps(doc).encode()
    raise AssertionError("no fraction endpoint")


def test_integer_digit_limit_of_the_environment_is_ignored(tmp_path):
    """With PYTHONINTMAXSTRDIGITS at 640, below a 4096-bit report's longest
    endpoint, or at 0, no limit, a ``python -m covcert.cli`` process writes
    the same report as without it and verifies it; an endpoint longer than
    ``cli.INT_MAX_STR_DIGITS`` digits is still malformed (exit 3)."""
    env = {**os.environ, "PYTHONPATH": str(Path(covcert.__file__).parent.parent)}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    prove = [sys.executable, "-m", "covcert.cli", "prove", "--n", "4", "--precision", "4096",
             "--format", "json"]
    honest = subprocess.run(prove, capture_output=True, env=env, timeout=120, check=True).stdout
    assert max(len(part) for part in honest.replace(b"/", b'"').split(b'"')) > 640
    path, widened = tmp_path / "report.json", tmp_path / "widened.json"
    widened.write_bytes(_widened_endpoint(honest))
    for digits in ("640", "0"):
        limited = {**env, "PYTHONINTMAXSTRDIGITS": digits}
        proc = subprocess.run(prove, capture_output=True, env=limited, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, honest, b""), digits
        path.write_bytes(proc.stdout)
        for report_path, code, out in ((path, 0, b"verdict: Proved\n"), (widened, 3, b"")):
            proc = subprocess.run(
                [sys.executable, "-m", "covcert.cli", "verify", str(report_path)],
                capture_output=True, env=limited, timeout=120,
            )
            assert (proc.returncode, proc.stdout) == (code, out), (digits, report_path)
        assert b"SchemaMismatch" in proc.stderr and b"Traceback" not in proc.stderr


def test_console_script_entry_point_resolves():
    """pyproject.toml's ``[project.scripts] covcert`` names the callable
    ``covcert.cli.run``, so a renamed entry point fails here, not only in
    an installed script."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["covcert"]
    module, _, name = entry.partition(":")
    target = getattr(importlib.import_module(module), name)
    assert callable(target) and target is cli.run


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["prove", "--all", "--format", "json"], ["prove", "--all"],
                                  ["verify", "{honest}"]])
def test_closed_stdout_pipe_exits_141_quietly(cert_by_rank, tmp_path, argv, unbuffered):
    """A ``python -m covcert.cli`` process whose stdout is a pipe with its read
    end already closed exits 141 (128 + SIGPIPE) with nothing on stderr, with
    block-buffered and with unbuffered stdout."""
    honest = tmp_path / "honest.json"
    honest.write_bytes(ct.emit_report(cert_by_rank[4]))
    env = {**os.environ, "PYTHONPATH": str(Path(covcert.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "covcert.cli", *(arg.format(honest=honest) for arg in argv)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_BROKEN_PIPE, b"")


def test_proof_does_not_import_the_search():
    """``import covcert.certifier`` leaves ``covcert.optimizer`` unloaded."""
    probe = "import sys, covcert.certifier; print('covcert.optimizer' in sys.modules)"
    src = str(Path(covcert.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_graph():
    """``import covcert.cli`` registers all eight layers and loads none of
    dataclasses, inspect, hashlib, fractions, decimal, numbers."""
    layers = ["rigor", "specfun", "numberfields", "bounds", "optimizer", "localfactors",
              "certifier", "cli"]
    probe = (
        "import sys, covcert.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('covcert.'))); "
        "print([m for m in ('dataclasses', 'inspect', 'hashlib', 'fractions', 'decimal', "
        "'numbers') if m in sys.modules])"
    )
    src = str(Path(covcert.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],  # -S: no site hooks of the environment
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    ).stdout.splitlines()
    assert set(ast.literal_eval(out[0])) >= {f"covcert.{name}" for name in layers}
    assert out[1] == "[]"
