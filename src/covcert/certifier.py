"""Proof pipeline orchestration.

``run_case(n)`` executes the full exclusion argument for one rank and
returns an ordered :class:`Certificate`.  Every numerical verdict in the
certificate is backed by a recorded interval comparison, so a report can
be re-verified later without recomputing any transcendental enclosure.

The certificate records, ``emit_report`` and the checker ``verify_report``
live in :mod:`covcert.report`, which imports nothing from covcert, so that
checking a report does not mean trusting this module.  They are
re-exported here.  Each step's verdict comes from ``report.step_verdict``,
the rule the checker applies.

``report.STEP_PLANS`` is the proof's one statement: every step's id,
position, dependencies, claim, required relations and constant sides come
from its rank class's plan, and this module supplies only the evidence.
Non-numerical inputs (structural group theory, the validity of the vendored
bound table, and so on) are the axiom steps A1 through A5, which the
builder records where the plan places them rather than assuming them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .rigor import Interval
from . import bounds, localfactors, numberfields
from .report import (  # noqa: F401  (re-exported)
    AXIOMS,
    FINAL_CONCLUSION,
    SCHEMA_VERSION,
    Certificate,
    CertificateStep,
    RecordedComparison,
    SchemaMismatch,
    TamperDetected,
    compare,
    emit_report,
    step_plan,
    step_verdict,
    verify_report,
)


class DataMissing(FileNotFoundError):
    """A required data file is absent."""


class _Builder:
    """Records one rank's proof along its class's plan, ``report.step_plan``.

    The plan states every step: its claim, its dependencies, and for each
    comparison the relation it requires and any constant right side.  The
    caller gives only the evidence: the anchor, the enclosures and the
    computed sides of each comparison, the left side alone where the plan
    fixes the right.  Axiom steps are recorded where the plan places them.
    Recording a step that is not the plan's next one, with a number of
    comparisons other than its plan's, or finishing before the plan does, is
    a fault of this module that no input reaches: it raises RuntimeError.
    """

    def __init__(self, rank: int, precision_bits: int) -> None:
        self.rank = rank
        self.precision_bits = precision_bits
        self.steps: List[CertificateStep] = []
        self._pending = list(step_plan(rank).items())[::-1]  # the next step last
        self._record_axiom()

    def _record_axiom(self) -> None:
        """Record the plan's next step if it is an axiom (and so on)."""
        if self._pending and self._pending[-1][0] in AXIOMS:
            self.record(self._pending[-1][0], "structural input, outside certified numerics")

    def record(
        self, step_id: str, anchor: str, sides: Sequence = (), enclosures: Sequence[Interval] = ()
    ) -> None:
        """Append the plan's next step, its verdict the ``step_verdict`` of
        its comparisons (or Axiom), then any axiom steps that follow it."""
        planned_id, (dependencies, claim, planned) = (
            self._pending.pop() if self._pending else (None, ((), "", ()))
        )
        if step_id != planned_id or len(sides) != len(planned):
            raise RuntimeError(
                f"recorded step {step_id} with {len(sides)} sides where the plan has {planned_id}"
            )
        comparisons = []
        for given, (required, constant) in zip(sides, planned):
            lhs, rhs = given if constant is None else (given, Interval.exact(constant))
            comparisons.append(RecordedComparison(lhs, rhs, compare(lhs, rhs).value, required))
        self.steps.append(
            CertificateStep(
                id=step_id,
                claim=claim.format(rank=self.rank),
                anchor=anchor,
                enclosures=tuple(enclosures),
                comparisons=tuple(comparisons),
                verdict="Axiom" if step_id in AXIOMS else step_verdict(comparisons),
                dependencies=dependencies,
                precision_bits=self.precision_bits,
            )
        )
        self._record_axiom()

    def finish(self) -> List[CertificateStep]:
        """The recorded steps, once the plan is complete."""
        if self._pending:
            raise RuntimeError(f"proof ended before its planned step {self._pending[-1][0]}")
        return self.steps


def _load_inputs(odlyzko_path: Optional[str], fields_path: Optional[str]):
    try:
        table = bounds.load_odlyzko_table(odlyzko_path)
        catalog = numberfields.default_catalog(fields_path)
    except FileNotFoundError as exc:
        raise DataMissing(str(exc)) from exc
    return table, catalog


# Witness points for the degree thresholds: the minima that
# ``optimizer.optimize_n2`` and ``optimize_n3`` find over the vendored table.
# A step only needs some table point below its bound, so the proof evaluates
# the threshold at the stated point and leaves the search to
# ``covcert optimize``.
N2_WITNESS = (Fraction("21.512"), Fraction("6.0001"), Fraction("1.2"))
N3_WITNESS = (Fraction("13.047"), Fraction("3.8667"))
# The only table row passing the three rank >= 4 conditions of
# ``bounds.lemma35_conditions``.
L35_WITNESS = (Fraction("6.894"), Fraction("2.2667"))


def _table_row(table, A: Fraction, E: Fraction) -> bounds.OdlyzkoPair:
    """The bound pair (A, E) of the loaded table; DataMissing if absent."""
    for pair in table:
        if (pair.A, pair.E) == (A, E):
            return pair
    raise DataMissing(f"bound-pair table has no witness row (A, E) = ({A}, {E})")


def _unit_adjusted_quotient_steps(
    builder: _Builder,
    catalog,
    n: int,
    survivors: List[str],
    candidates: Sequence[Tuple[int, int]],
) -> None:
    """Exact quotient and unit-index adjustment for each remaining (d, D)."""
    for d, D in candidates:
        fld = numberfields.field_by_discriminant(catalog, d, D)
        quotient = bounds.s_lambda_quotient(fld, n)
        unit_index = numberfields.totally_positive_index(fld)
        adjusted = bounds.adjusted_quotient(fld, n, unit_index)
        builder.record(
            f"quotient_d{d}_D{D}",
            "global covolume comparison against the rational lattice; unit index "
            f"{unit_index}",
            [quotient],
            enclosures=[quotient, adjusted],
        )
        builder.record(f"verdict_d{d}_D{D}", "adjusted quotient versus 1", [adjusted], [adjusted])
        if adjusted.lo > 1:
            survivors.append(fld.label)


def _local_stage(builder: _Builder, catalog, n: int, prec: int) -> None:
    if n >= 3:
        value = Interval.exact(localfactors.eprime_special(n, 2))
        builder.record(
            "local_special_factor", "local covolume factor lower bound", [value], [value]
        )
    q_ref = 3 if n == 2 else 2
    lower = localfactors.h_rigidity(q_ref, n)
    builder.record("local_nonspecial_factor", "volume rigidity lower bound", [lower], [lower])
    if n == 2:
        t2 = Interval.exact(localfactors.T_factor(2))
        t3 = Interval.exact(localfactors.T_factor(3))
        builder.record(
            "local_T_values",
            "closed-form local factors at small residue cardinality",
            [t2, t3],
            enclosures=[t2, t3],
        )
        for i, frag in enumerate(localfactors.qsqrt5_local_exclusion(catalog)):
            sides = [Interval.exact(v) for v in frag.values]
            builder.record(f"local_exclusion_{i}", frag.detail, sides)


def _run_high_rank(builder: _Builder, table, catalog, n: int, prec: int) -> List[str]:
    pair = _table_row(table, *L35_WITNESS)
    conditions = bounds.lemma35_comparisons(pair, prec)
    builder.record(
        "feasible_pair",
        f"stated row (A, E) = ({pair.A}, {pair.E}) of the vendored table",
        [conditions["cond_a"], conditions["cond_b"][0], conditions["cond_c"]],
        enclosures=[*conditions["cond_a"], *conditions["cond_c"]],
    )
    # the base and the bound run to thousands of digits at high rank, so the
    # report records their logarithms, which bounds evaluates directly
    log_inner = bounds.log_inner_factor(n, pair.A, prec)
    builder.record(
        "inner_factor_ge_one",
        "monotonicity in the field degree, via the logarithm of the base",
        [log_inner],
        enclosures=[log_inner],
    )
    zeta_product = bounds.zeta_product_enclosure(prec)
    builder.record(
        "zeta_product_bound", "reference covolume constant bound", [zeta_product], [zeta_product]
    )
    log_bound = bounds.log_normalized_O(n, 2, pair, prec)
    log_183 = bounds.log_enclosure(Interval.exact(bounds.ZETA_PRODUCT_UPPER), prec)
    builder.record(
        "high_rank_conclusion",
        f"the normalized lower bound at degree 2 and rank {n} exceeds 1.83, via logarithms",
        [(log_bound, log_183)],
        enclosures=[log_bound],
    )
    return ["1.1.1.1"]


def _run_rank3(builder: _Builder, table, catalog, n: int, prec: int) -> List[str]:
    pair = _table_row(table, *N3_WITNESS)
    value = bounds.n3_degree_threshold(pair, prec)
    builder.record(
        "degree_threshold", f"table minimum at (A, E) = ({pair.A}, {pair.E})", [value], [value]
    )
    cut2 = bounds.n3_D_bound(2, prec)
    cut3 = bounds.n3_D_bound(3, prec)
    e046 = bounds.e046_enclosure(prec)
    quad = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 2, cut2.lo)]
    cubic = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 3, cut3.lo)]
    builder.record(
        "discriminant_cutoffs",
        f"catalog pruning by the coarse cutoffs, leaving quadratic candidates {quad} and "
        f"cubic candidates {cubic}",
        [
            (Interval.exact(max(quad, default=0)), cut2),
            (Interval.exact(max(cubic, default=0)), cut3),
            e046,
        ],
        enclosures=[cut2, cut3, e046],
    )
    proto2 = bounds.proto_D_bound(3, 2, 1, prec)
    proto3 = bounds.proto_D_bound(3, 3, 1, prec)
    builder.record(
        "refined_cutoffs",
        "sharpened discriminant cutoffs with unit-index powers",
        [proto2, proto2, proto3],
        enclosures=[proto2, proto3],
    )
    survivors = ["1.1.1.1"]
    _unit_adjusted_quotient_steps(builder, catalog, 3, survivors, [(2, 5)])
    return survivors


def _run_rank2(builder: _Builder, table, catalog, n: int, prec: int) -> List[str]:
    A, E, t = N2_WITNESS
    pair = _table_row(table, A, E)
    value = bounds.n2_degree_threshold(pair, t, prec)
    builder.record(
        "degree_threshold",
        f"grid minimum at (A, E, t) = ({pair.A}, {pair.E}, {t})",
        [value],
        enclosures=[value],
    )
    cuts = {d: bounds.n2_D_bound(d, prec) for d in (2, 3, 4, 5)}
    counts = {
        d: [f.discriminant for f in numberfields.fields_by_degree_below(catalog, d, cuts[d].lo)]
        for d in (2, 3, 4, 5)
    }
    builder.record(
        "discriminant_cutoffs",
        "catalog pruning by the coarse cutoffs, leaving candidate counts "
        + ", ".join(f"{len(counts[d])} at degree {d}" for d in (2, 3, 4, 5)),
        [(Interval.exact(max(counts[d], default=0)), cuts[d]) for d in (2, 3, 4, 5)],
        enclosures=[cuts[d] for d in (2, 3, 4, 5)],
    )
    protos = {d: bounds.proto_D_bound(2, d, 1, prec) for d in (2, 3, 4, 5)}
    builder.record(
        "refined_cutoffs",
        "sharpened discriminant cutoffs with unit-index powers",
        [protos[5], protos[4], protos[3], protos[3], protos[2], protos[2]],
        enclosures=[protos[d] for d in (2, 3, 4, 5)],
    )
    survivors = ["1.1.1.1"]
    _unit_adjusted_quotient_steps(builder, catalog, 2, survivors, [(3, 49), (2, 8), (2, 5)])
    return survivors


def run_case(
    n: int,
    precision_bits: int = 256,
    odlyzko_path: Optional[str] = None,
    fields_path: Optional[str] = None,
) -> Certificate:
    """Execute the full exclusion pipeline for one rank."""
    if n < 2:
        raise ValueError("rank must be >= 2")
    table, catalog = _load_inputs(odlyzko_path, fields_path)
    builder = _Builder(n, precision_bits)

    if n >= 4:
        survivors = _run_high_rank(builder, table, catalog, n, precision_bits)
    elif n == 3:
        survivors = _run_rank3(builder, table, catalog, n, precision_bits)
    else:
        survivors = _run_rank2(builder, table, catalog, n, precision_bits)

    surviving_after_global = sorted(set(survivors))
    _local_stage(builder, catalog, n, precision_bits)

    cert = Certificate(
        rank=n,
        precision_bits=precision_bits,
        steps=builder.finish(),
        surviving_fields_after_global=surviving_after_global,
        final_conclusion="",
    )
    if cert.all_proved:
        cert.final_conclusion = FINAL_CONCLUSION
    return cert
