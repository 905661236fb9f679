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
step's id, position, dependencies, claim, comparisons (each enclosure
against each of its quantity's planned bounds) and verdict, the surviving
fields and the conclusion.  The checker renders a report's recorded
evidence with the same function.  This module supplies only the evidence,
an anchor and one enclosure for each quantity the step's plan bounds,
looked up by step id in ``_EVIDENCE``, and
``run_case`` does nothing else: it loads the field catalog, evaluates the
evidence in plan order and renders it.  The bound pairs the proof
evaluates are stated witnesses, rows of the vendored table; ``prove`` does
not read the table.
Non-numerical inputs (structural group theory, the validity of the
vendored bound table, and so on) are the axiom steps A1 through A5, which
the plan places like any other step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Optional

from .rigor import Interval
from . import bounds, localfactors, numberfields
from .bounds import OdlyzkoPair
from .report import (  # noqa: F401  (re-exported)
    AXIOMS, CANDIDATE_FIELDS, FINAL_CONCLUSION, SCHEMA_VERSION, Certificate, CertificateStep,
    SchemaMismatch, TamperDetected, emit_report, rank_class, render, step_plan, verify_report,
)


# Witness points for the degree thresholds: the minima that
# ``optimizer.optimize_n2`` and ``optimize_n3`` find over the vendored table,
# each a row of it.  A step only needs some table point below its bound, so
# the proof evaluates the threshold at the stated point and leaves the
# search to ``covcert optimize``.
N2_WITNESS = (OdlyzkoPair("21.512", "6.0001"), Fraction("1.2"))
N3_WITNESS = OdlyzkoPair("13.047", "3.8667")
# The bound pair at which both rank >= 4 induction steps, inner_factor_ge_one
# and high_rank_conclusion, are evaluated.
L35_WITNESS = OdlyzkoPair("6.894", "2.2667")


# The evidence for one step: its anchor and one enclosure for each quantity
# that its plan bounds.  Each takes the field catalog and the precision in
# bits, and is the same at every rank of its class.


def _degree_threshold_n2(catalog, prec: int):
    pair, t = N2_WITNESS
    value = bounds.n2_degree_threshold(pair, t, prec)
    return f"grid minimum at (A, E, t) = ({pair.A}, {pair.E}, {t})", [value]


# A field whose discriminant lies inside a cutoff's enclosure may be below the
# cutoff, so the candidates are the catalog's fields below its upper end.
def _discriminant_cutoffs_n2(catalog, prec: int):
    cuts = {d: bounds.n2_D_bound(d, prec) for d in (2, 3, 4, 5)}
    counts = {d: len(numberfields.fields_by_degree_below(catalog, d, cut.hi))
              for d, cut in cuts.items()}
    return (
        "catalog pruning by the coarse cutoffs, leaving candidate counts "
        + ", ".join(f"{counts[d]} at degree {d}" for d in counts),
        list(cuts.values()),
    )


def _refined_cutoffs(n: int, degrees, catalog, prec: int):
    return (
        "sharpened discriminant cutoffs with unit-index powers",
        [bounds.proto_D_bound(n, d, 1, prec) for d in degrees],
    )


def _degree_threshold_n3(catalog, prec: int):
    value = bounds.n3_degree_threshold(N3_WITNESS, prec)
    return f"table minimum at (A, E) = ({N3_WITNESS.A}, {N3_WITNESS.E})", [value]


def _discriminant_cutoffs_n3(catalog, prec: int):
    cut2 = bounds.n3_D_bound(2, prec)
    cut3 = bounds.n3_D_bound(3, prec)
    quad = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 2, cut2.hi)]
    cubic = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 3, cut3.hi)]
    return (
        f"catalog pruning by the coarse cutoffs, leaving quadratic candidates {quad} and "
        f"cubic candidates {cubic}",
        [cut2, cut3, bounds.e046_enclosure(prec)],
    )


def _verdict(d: int, D: int, n: int, catalog, prec: int):
    fld = numberfields.field_by_discriminant(catalog, d, D)
    unit_index = numberfields.totally_positive_index(fld)
    return (
        f"covolume quotient against the rational lattice, adjusted by unit index {unit_index}, "
        "versus 1",
        [bounds.adjusted_quotient(fld, n, unit_index)],
    )


# each induction step records a quantity at rank 4 and its log's first and second differences
def _inner_factor_ge_one(catalog, prec: int):
    A = L35_WITNESS.A
    return (
        "monotonicity in the field degree, via the logarithm of the base at rank 4",
        [bounds.log_inner_factor(4, A, prec), *bounds.log_differences(A, 0, prec)],
    )


def _zeta_product_bound(catalog, prec: int):
    return "reference covolume constant bound", [bounds.zeta_product_enclosure(prec)]


def _high_rank_conclusion(catalog, prec: int):
    A, E = L35_WITNESS
    return (
        "the normalized lower bound at degree 2, at rank 4",
        [bounds.normalized_O(4, 2, L35_WITNESS, prec), *bounds.log_differences(A**2, E, prec)],
    )


def _local_special_factor(catalog, prec: int):
    values = [Interval.exact(localfactors.eprime_special(n, 2)) for n in (3, 4)]
    return "local covolume factor lower bounds at ranks 3 and 4", values


def _local_nonspecial_factor(q: int, n: int, catalog, prec: int):
    return "volume rigidity lower bound", [localfactors.h_rigidity(q, n)]


def _local_nonspecial_growth(catalog, prec: int):
    h3 = localfactors.h_rigidity(2, 3)
    return (
        "volume rigidity lower bound at rank 3 and its growth to rank 4",
        [h3, localfactors.h_rigidity(2, 4) / h3],
    )


def _local_T_values(catalog, prec: int):
    values = [Interval.exact(localfactors.T_factor(q)) for q in (2, 3)]
    return "closed-form local factors at small residue cardinality", values


def _local_exclusion(i: int, catalog, prec: int):
    return localfactors.qsqrt5_local_exclusion(catalog)[i]


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
        "refined_cutoffs": partial(_refined_cutoffs, 2, (5, 4, 3, 2)),
        **{f"verdict_d{d}_D{D}": partial(_verdict, d, D, 2) for d, D, _ in CANDIDATE_FIELDS[2]},
        "local_nonspecial_factor": partial(_local_nonspecial_factor, 3, 2),
        "local_T_values": _local_T_values,
        **{f"local_exclusion_{i}": partial(_local_exclusion, i) for i in range(3)},
    },
    3: {
        "degree_threshold": _degree_threshold_n3,
        "zeta_product_bound": _zeta_product_bound,
        "discriminant_cutoffs": _discriminant_cutoffs_n3,
        "refined_cutoffs": partial(_refined_cutoffs, 3, (2, 3)),
        **{f"verdict_d{d}_D{D}": partial(_verdict, d, D, 3) for d, D, _ in CANDIDATE_FIELDS[3]},
        **_LOCAL_EVIDENCE,
    },
    4: {
        "inner_factor_ge_one": _inner_factor_ge_one,
        "zeta_product_bound": _zeta_product_bound,
        "high_rank_conclusion": _high_rank_conclusion,
        **_LOCAL_EVIDENCE,
    },
}


def run_case(n: int, precision_bits: int = 256, fields_path: Optional[str] = None) -> Certificate:
    """Execute the full exclusion pipeline for one rank: evaluate the evidence
    of ``_EVIDENCE`` for each step of its class's plan but the axioms, in plan
    order, and render the certificate with ``report.render``, which makes
    each step's comparisons from its enclosures and the plan.  Evidence with
    another number of enclosures than the plan has quantities is a fault of
    this module that no input reaches: ValueError.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    catalog = numberfields.default_catalog(fields_path)
    evidence = _EVIDENCE[rank_class(n)]
    return render(n, precision_bits, {
        step_id: evidence[step_id](catalog, precision_bits)
        for step_id in step_plan(n) if step_id not in AXIOMS
    })
