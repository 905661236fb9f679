"""Proof pipeline orchestration.

``run_case(n)`` executes the full exclusion argument for one rank and
returns its :class:`Certificate`.  Every numerical verdict in the
certificate is backed by a recorded interval comparison, so a report can
be re-verified later without recomputing any transcendental enclosure.

The certificate records, ``render``, ``emit_report`` and the checker
``verify_report`` live in :mod:`covcert.report`, which imports nothing from
covcert, so that checking a report does not mean trusting this module.
They are re-exported here.

``report.STEP_PLANS`` is the proof's one statement, and ``report.render``
the one rule that turns a plan and its evidence into a certificate: every
step's id, position, dependencies, claim, required relations, constant
sides and verdict, the surviving fields and the conclusion.  The checker
renders a report's recorded evidence with the same function.  This module
supplies only the evidence, looked up by step id in ``_EVIDENCE``, and
``run_case`` does nothing else: it loads the inputs, evaluates the
evidence in plan order and renders it.  Non-numerical inputs (structural
group theory, the validity of the vendored bound table, and so on) are the
axiom steps A1 through A5, which the plan places like any other step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Optional

from .rigor import Interval
from . import bounds, localfactors, numberfields
from .numberfields import DataMissing
from .report import (  # noqa: F401  (re-exported)
    AXIOMS, FINAL_CONCLUSION, SCHEMA_VERSION, SURVIVING_FIELDS, Certificate, CertificateStep,
    RecordedComparison, SchemaMismatch, TamperDetected, compare, emit_report, rank_class,
    render, step_plan, step_verdict, verify_report,
)


# Witness points for the degree thresholds: the minima that
# ``optimizer.optimize_n2`` and ``optimize_n3`` find over the vendored table.
# A step only needs some table point below its bound, so the proof evaluates
# the threshold at the stated point and leaves the search to
# ``covcert optimize``.
N2_WITNESS = (Fraction("21.512"), Fraction("6.0001"), Fraction("1.2"))
N3_WITNESS = (Fraction("13.047"), Fraction("3.8667"))
# The bound pair at which both rank >= 4 induction steps, inner_factor_ge_one
# and high_rank_conclusion, are evaluated.
L35_WITNESS = (Fraction("6.894"), Fraction("2.2667"))


def _table_row(table, A: Fraction, E: Fraction) -> bounds.OdlyzkoPair:
    """The bound pair (A, E) of the loaded table; DataMissing if absent."""
    for pair in table:
        if (pair.A, pair.E) == (A, E):
            return pair
    raise DataMissing(f"bound-pair table has no witness row (A, E) = ({A}, {E})")


# The evidence for one step: its anchor, the computed sides of its planned
# comparisons (a pair, or the left side alone where the plan fixes the
# right) and its enclosures.  Each takes the bound-pair table, the field
# catalog and the precision in bits, and is the same at every rank of its class.


def _degree_threshold_n2(table, catalog, prec: int):
    A, E, t = N2_WITNESS
    pair = _table_row(table, A, E)
    value = bounds.n2_degree_threshold(pair, t, prec)
    return f"grid minimum at (A, E, t) = ({pair.A}, {pair.E}, {t})", [value], [value]


def _discriminant_cutoffs_n2(table, catalog, prec: int):
    cuts = {d: bounds.n2_D_bound(d, prec) for d in (2, 3, 4, 5)}
    counts = {
        d: [f.discriminant for f in numberfields.fields_by_degree_below(catalog, d, cuts[d].lo)]
        for d in (2, 3, 4, 5)
    }
    return (
        "catalog pruning by the coarse cutoffs, leaving candidate counts "
        + ", ".join(f"{len(counts[d])} at degree {d}" for d in (2, 3, 4, 5)),
        [(Interval.exact(max(counts[d], default=0)), cuts[d]) for d in (2, 3, 4, 5)],
        [cuts[d] for d in (2, 3, 4, 5)],
    )


def _refined_cutoffs_n2(table, catalog, prec: int):
    protos = {d: bounds.proto_D_bound(2, d, 1, prec) for d in (2, 3, 4, 5)}
    return (
        "sharpened discriminant cutoffs with unit-index powers",
        [protos[5], protos[4], protos[3], protos[3], protos[2], protos[2]],
        [protos[d] for d in (2, 3, 4, 5)],
    )


def _degree_threshold_n3(table, catalog, prec: int):
    pair = _table_row(table, *N3_WITNESS)
    value = bounds.n3_degree_threshold(pair, prec)
    return f"table minimum at (A, E) = ({pair.A}, {pair.E})", [value], [value]


def _discriminant_cutoffs_n3(table, catalog, prec: int):
    cut2 = bounds.n3_D_bound(2, prec)
    cut3 = bounds.n3_D_bound(3, prec)
    e046 = bounds.e046_enclosure(prec)
    quad = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 2, cut2.lo)]
    cubic = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 3, cut3.lo)]
    return (
        f"catalog pruning by the coarse cutoffs, leaving quadratic candidates {quad} and "
        f"cubic candidates {cubic}",
        [
            (Interval.exact(max(quad, default=0)), cut2),
            (Interval.exact(max(cubic, default=0)), cut3),
            e046,
        ],
        [cut2, cut3, e046],
    )


def _refined_cutoffs_n3(table, catalog, prec: int):
    proto2 = bounds.proto_D_bound(3, 2, 1, prec)
    proto3 = bounds.proto_D_bound(3, 3, 1, prec)
    return (
        "sharpened discriminant cutoffs with unit-index powers",
        [proto2, proto2, proto3],
        [proto2, proto3],
    )


def _verdict(d: int, D: int, n: int, table, catalog, prec: int):
    fld = numberfields.field_by_discriminant(catalog, d, D)
    unit_index = numberfields.totally_positive_index(fld)
    quotient = bounds.s_lambda_quotient(fld, n)
    adjusted = bounds.adjusted_quotient(fld, n, unit_index)
    return (
        f"covolume quotient against the rational lattice, adjusted by unit index {unit_index}, "
        "versus 1",
        [adjusted],
        [quotient, adjusted],
    )


# each induction step records a quantity at rank 4 and its log's first and second differences
def _inner_factor_ge_one(table, catalog, prec: int):
    A = _table_row(table, *L35_WITNESS).A
    sides = [bounds.log_inner_factor(4, A, prec), *bounds.log_differences(A, 0, prec)]
    return "monotonicity in the field degree, via the logarithm of the base at rank 4", sides, sides


def _zeta_product_bound(table, catalog, prec: int):
    zeta_product = bounds.zeta_product_enclosure(prec)
    return "reference covolume constant bound", [zeta_product], [zeta_product]


def _high_rank_conclusion(table, catalog, prec: int):
    pair = _table_row(table, *L35_WITNESS)
    bound = bounds.normalized_O(4, 2, pair, prec)
    sides = [bound, *bounds.log_differences(pair.A**2, pair.E, prec)]
    return "the normalized lower bound at degree 2, at rank 4", sides, sides


def _local_special_factor(table, catalog, prec: int):
    values = [Interval.exact(localfactors.eprime_special(n, 2)) for n in (3, 4)]
    return "local covolume factor lower bounds at ranks 3 and 4", values, values


def _local_nonspecial_factor(q: int, n: int, table, catalog, prec: int):
    lower = localfactors.h_rigidity(q, n)
    return "volume rigidity lower bound", [lower], [lower]


def _local_nonspecial_growth(table, catalog, prec: int):
    h3 = localfactors.h_rigidity(2, 3)
    values = [h3, localfactors.h_rigidity(2, 4) / h3]
    return "volume rigidity lower bound at rank 3 and its growth to rank 4", values, values


def _local_T_values(table, catalog, prec: int):
    t2 = Interval.exact(localfactors.T_factor(2))
    t3 = Interval.exact(localfactors.T_factor(3))
    return "closed-form local factors at small residue cardinality", [t2, t3], [t2, t3]


def _local_exclusion(i: int, table, catalog, prec: int):
    frag = localfactors.qsqrt5_local_exclusion(catalog)[i]
    return frag.detail, [Interval.exact(v) for v in frag.values], []


# Each rank class's evidence, by the id of every step of its plan but the axioms.
_LOCAL_EVIDENCE = {
    "local_special_factor": _local_special_factor,
    "local_nonspecial_factor": _local_nonspecial_growth,
}
_EVIDENCE: Dict[int, Dict[str, Callable]] = {
    2: {
        "degree_threshold": _degree_threshold_n2,
        "discriminant_cutoffs": _discriminant_cutoffs_n2,
        "zeta_product_bound": _zeta_product_bound,
        "refined_cutoffs": _refined_cutoffs_n2,
        **{f"verdict_d{d}_D{D}": partial(_verdict, d, D, 2) for d, D in ((3, 49), (2, 8), (2, 5))},
        "local_nonspecial_factor": partial(_local_nonspecial_factor, 3, 2),
        "local_T_values": _local_T_values,
        **{f"local_exclusion_{i}": partial(_local_exclusion, i) for i in range(3)},
    },
    3: {
        "degree_threshold": _degree_threshold_n3,
        "zeta_product_bound": _zeta_product_bound,
        "discriminant_cutoffs": _discriminant_cutoffs_n3,
        "refined_cutoffs": _refined_cutoffs_n3,
        "verdict_d2_D5": partial(_verdict, 2, 5, 3),
        **_LOCAL_EVIDENCE,
    },
    4: {
        "inner_factor_ge_one": _inner_factor_ge_one,
        "zeta_product_bound": _zeta_product_bound,
        "high_rank_conclusion": _high_rank_conclusion,
        **_LOCAL_EVIDENCE,
    },
}


def run_case(
    n: int,
    precision_bits: int = 256,
    odlyzko_path: Optional[str] = None,
    fields_path: Optional[str] = None,
) -> Certificate:
    """Execute the full exclusion pipeline for one rank: evaluate the evidence
    of ``_EVIDENCE`` for each step of its class's plan but the axioms, in plan
    order, and render the certificate with ``report.render``.  Evidence with
    another number of sides than the plan has comparisons is a fault of this
    module that no input reaches: ValueError.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    table = bounds.load_odlyzko_table(odlyzko_path)
    catalog = numberfields.default_catalog(fields_path)
    evidence = _EVIDENCE[rank_class(n)]
    return render(n, precision_bits, {
        step_id: evidence[step_id](table, catalog, precision_bits)
        for step_id in step_plan(n) if step_id not in AXIOMS
    })
