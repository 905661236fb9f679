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
evidence with the same function.  This module supplies only the evidence
the plan does not state, by step id in ``_EVIDENCE``: the computed
enclosures, one for each quantity the step's plan bounds, and the anchors
that read the catalog.  ``run_case`` does nothing else: it loads the
field catalog, evaluates the evidence in plan order and renders it.  The
bound pairs the proof evaluates are the witness rows that ``report``
states, rows of the vendored table; ``prove`` does not read the table.
Non-numerical inputs (structural group theory, the validity of the
vendored bound table, and so on) are the axiom steps A1 through A5, which
the plan places like any other step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Optional

from . import bounds, localfactors, numberfields, report
from .bounds import OdlyzkoPair
from .report import (  # noqa: F401  (re-exported)
    CANDIDATE_FIELDS, FINAL_CONCLUSION, SCHEMA_VERSION, Certificate, CertificateStep,
    SchemaMismatch, TamperDetected, emit_report, rank_class, render, verify_report,
)


# The witness rows of ``report``, as the bound pairs (and t) that ``bounds`` evaluates.
_N2, _N3, _L35 = ([Fraction(c.numerator, c.denominator) for c in row]
                  for row in (report.N2_WITNESS, report.N3_WITNESS, report.L35_WITNESS))
N2_WITNESS = (OdlyzkoPair(*_N2[:2]), _N2[2])
N3_WITNESS = OdlyzkoPair(*_N3)
L35_WITNESS = OdlyzkoPair(*_L35)


# The evidence of the steps that read the catalog, whose anchors the prover
# states.  Each takes the field catalog and the precision in bits.  A field
# whose discriminant lies inside a cutoff's enclosure may be below the cutoff,
# so the candidates are the catalog's fields below its upper end.
def _discriminant_cutoffs_n2(catalog, prec: int):
    cuts = {d: bounds.n2_D_bound(d, prec) for d in (2, 3, 4, 5)}
    counts = {d: len(numberfields.fields_by_degree_below(catalog, d, cut.hi))
              for d, cut in cuts.items()}
    return (
        "catalog pruning by the coarse cutoffs, leaving candidate counts "
        + ", ".join(f"{counts[d]} at degree {d}" for d in counts),
        list(cuts.values()),
    )


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


# Each rank class's evidence, by the id of every step that its plan does not
# state: a callable of (catalog, prec) that returns (anchor, enclosures),
# one enclosure for each quantity the plan bounds.  Its anchor is None where
# the plan states it.  Each calls its layer functions by module attribute when
# the proof runs, so a replaced function is the one evaluated.  The induction
# steps record a quantity at rank 4 and its log's first and second differences.
_ZETA_PRODUCT_EVIDENCE = {
    "zeta_product_bound": lambda catalog, prec: (None, [bounds.zeta_product_enclosure(prec)]),
}
_EVIDENCE: Dict[int, Dict[str, Callable]] = {
    2: {
        "degree_threshold": lambda catalog, prec: (
            None, [bounds.n2_degree_threshold(*N2_WITNESS, prec)]),
        "discriminant_cutoffs": _discriminant_cutoffs_n2,
        **_ZETA_PRODUCT_EVIDENCE,
        "refined_cutoffs": lambda catalog, prec: (
            None, [bounds.proto_D_bound(2, d, 1, prec) for d in (5, 4, 3, 2)]),
        **{f"verdict_d{d}_D{D}": partial(_verdict, d, D, 2) for d, D, _ in CANDIDATE_FIELDS[2]},
        **{f"local_exclusion_{i}": lambda catalog, prec, i=i: (
            localfactors.qsqrt5_local_exclusion(catalog)[i]) for i in range(2)},
    },
    3: {
        "degree_threshold": lambda catalog, prec: (
            None, [bounds.n3_degree_threshold(N3_WITNESS, prec)]),
        **_ZETA_PRODUCT_EVIDENCE,
        "discriminant_cutoffs": _discriminant_cutoffs_n3,
        "refined_cutoffs": lambda catalog, prec: (
            None, [bounds.proto_D_bound(3, d, 1, prec) for d in (2, 3)]),
        **{f"verdict_d{d}_D{D}": partial(_verdict, d, D, 3) for d, D, _ in CANDIDATE_FIELDS[3]},
    },
    4: {
        "inner_factor_ge_one": lambda catalog, prec: (None, [
            bounds.log_inner_factor(4, L35_WITNESS.A, prec),
            *bounds.log_differences(L35_WITNESS.A, 0, prec)]),
        **_ZETA_PRODUCT_EVIDENCE,
        "high_rank_conclusion": lambda catalog, prec: (None, [
            bounds.normalized_O(4, 2, L35_WITNESS, prec),
            *bounds.log_differences(L35_WITNESS.A**2, L35_WITNESS.E, prec)]),
    },
}


def run_case(n: int, precision_bits: int = 256, fields_path: Optional[str] = None) -> Certificate:
    """Execute the full exclusion pipeline for one rank: evaluate each entry
    of its class's ``_EVIDENCE``, in plan order, and render the certificate
    with ``report.render``, which adds the points the plan states and makes
    each step's comparisons from its enclosures and the plan.  Evidence with
    another number of enclosures than the plan has quantities is a fault of
    this module that no input reaches: ValueError.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    catalog = numberfields.default_catalog(fields_path)
    evidence = _EVIDENCE[rank_class(n)]
    return render(n, precision_bits, {key: f(catalog, precision_bits) for key, f in evidence.items()})
