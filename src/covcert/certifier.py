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
enclosures, one for each quantity the step's plan bounds.  ``run_case``
does nothing else: it evaluates the evidence in plan order and renders it.
The bound pairs the proof evaluates are the witness rows that ``report``
states, rows of the vendored table, and the coarse cutoffs' candidates are
the plan's too, fields of the vendored catalog; ``prove`` reads neither
data file.
Non-numerical inputs (structural group theory, the validity of the
vendored bound table, and so on) are the axiom steps A1 through A5, which
the plan places like any other step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict

from . import bounds, report
from .bounds import OdlyzkoPair
from .report import (  # noqa: F401  (re-exported)
    FINAL_CONCLUSION, SCHEMA_VERSION, Certificate, CertificateStep, SchemaMismatch,
    TamperDetected, emit_report, rank_class, render, verify_report,
)


# The witness rows of ``report``, as the bound pairs (and t) that ``bounds`` evaluates.
_N2, _N3, _L35 = ([Fraction(c.numerator, c.denominator) for c in row]
                  for row in (report.N2_WITNESS, report.N3_WITNESS, report.L35_WITNESS))
N2_WITNESS = (OdlyzkoPair(*_N2[:2]), _N2[2])
N3_WITNESS = OdlyzkoPair(*_N3)
L35_WITNESS = OdlyzkoPair(*_L35)


# Each rank class's evidence, by the id of every step whose enclosures its
# plan does not state: a callable of the precision in bits that returns the
# computed enclosures, one for each quantity the plan bounds.  Each calls its
# layer functions by module attribute when the proof runs, so a replaced
# function is the one evaluated.  The induction steps record a quantity at
# rank 4 and its log's first and second differences.
_ZETA_PRODUCT_EVIDENCE = {"zeta_product_bound": lambda prec: [bounds.zeta_product_enclosure(prec)]}
_EVIDENCE: Dict[int, Dict[str, Callable]] = {
    2: {
        "degree_threshold": lambda prec: [bounds.n2_degree_threshold(*N2_WITNESS, prec)],
        "discriminant_cutoffs": lambda prec: [bounds.n2_D_bound(d, prec) for d in (2, 3, 4, 5)],
        **_ZETA_PRODUCT_EVIDENCE,
        "refined_cutoffs": lambda prec: [
            bounds.proto_D_bound(2, d, 1, prec) for d in (5, 4, 3, 2)],
    },
    3: {
        "degree_threshold": lambda prec: [bounds.n3_degree_threshold(N3_WITNESS, prec)],
        **_ZETA_PRODUCT_EVIDENCE,
        "discriminant_cutoffs": lambda prec: [
            bounds.n3_D_bound(2, prec), bounds.n3_D_bound(3, prec), bounds.e046_enclosure(prec)],
        "refined_cutoffs": lambda prec: [bounds.proto_D_bound(3, d, 1, prec) for d in (2, 3)],
    },
    4: {
        "inner_factor_ge_one": lambda prec: [
            bounds.log_inner_factor(4, L35_WITNESS.A, prec),
            *bounds.log_differences(L35_WITNESS.A, 0, prec)],
        **_ZETA_PRODUCT_EVIDENCE,
        "high_rank_conclusion": lambda prec: [
            bounds.normalized_O(4, 2, L35_WITNESS, prec),
            *bounds.log_differences(L35_WITNESS.A**2, L35_WITNESS.E, prec)],
    },
}


def run_case(n: int, precision_bits: int = 256) -> Certificate:
    """Execute the full exclusion pipeline for one rank: evaluate each entry
    of its class's ``_EVIDENCE`` in plan order, and render the certificate
    with ``report.render``, which adds the anchors and points the plan states
    and makes each step's comparisons from its enclosures and the plan.
    Evidence with another number of enclosures than the plan has quantities
    is a fault of this module that no input reaches: ValueError.
    """
    if n < 2:
        raise ValueError("rank must be >= 2")
    evidence = _EVIDENCE[rank_class(n)]
    return render(n, precision_bits, {key: f(precision_bits) for key, f in evidence.items()})
