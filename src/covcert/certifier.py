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

``report.STEP_PLANS`` is the proof's one description: ``run_case`` builds
every report from its rank class's plan, which fixes each step's id,
position and dependencies.  Non-numerical inputs (structural group theory,
the validity of the vendored bound table, and so on) are the axiom steps A1
through A5, which the builder records where the plan places them rather
than silently assuming them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .rigor import Comparison, Interval
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


def proof_step(
    step_id: str,
    claim: str,
    anchor: str,
    comparisons: Sequence[Tuple[Interval, Interval, Comparison]],
    precision_bits: int,
    dependencies: Sequence[str] = (),
    enclosures: Sequence[Interval] = (),
) -> CertificateStep:
    """A step that runs the given comparisons; its verdict is their ``step_verdict``."""
    recorded = tuple(
        RecordedComparison(lhs, rhs, compare(lhs, rhs).value, required.value)
        for lhs, rhs, required in comparisons
    )
    return CertificateStep(
        id=step_id,
        claim=claim,
        anchor=anchor,
        enclosures=tuple(enclosures),
        comparisons=recorded,
        verdict=step_verdict(recorded),
        dependencies=tuple(dependencies),
        precision_bits=precision_bits,
    )


class _Builder:
    """Records one rank's proof along its class's plan, ``report.step_plan``.

    Each recorded step takes its dependencies from the plan, and each axiom
    step is recorded where the plan places it.  Recording a step that is not
    the plan's next one, or finishing before the plan does, is a fault of
    this module that no input reaches: it raises RuntimeError.
    """

    def __init__(self, rank: int, precision_bits: int) -> None:
        self.precision_bits = precision_bits
        self.steps: List[CertificateStep] = []
        self._pending = list(step_plan(rank).items())[::-1]  # the next step last
        self._place_axioms()

    def _place_axioms(self) -> None:
        while self._pending and self._pending[-1][0] in AXIOMS:
            axiom_id, deps = self._pending.pop()
            self.steps.append(
                CertificateStep(
                    id=axiom_id,
                    claim=AXIOMS[axiom_id],
                    anchor="structural input, outside certified numerics",
                    enclosures=(),
                    comparisons=(),
                    verdict="Axiom",
                    dependencies=deps,
                    precision_bits=self.precision_bits,
                )
            )

    def record(
        self,
        step_id: str,
        claim: str,
        anchor: str,
        comparisons: Sequence[Tuple[Interval, Interval, Comparison]],
        enclosures: Sequence[Interval] = (),
    ) -> None:
        """Run the given comparisons and append the plan's next step."""
        planned, deps = self._pending.pop() if self._pending else (None, ())
        if step_id != planned:
            raise RuntimeError(f"recorded step {step_id} where the plan has {planned}")
        self.steps.append(
            proof_step(step_id, claim, anchor, comparisons, self.precision_bits, deps, enclosures)
        )
        self._place_axioms()

    def finish(self) -> List[CertificateStep]:
        """The recorded steps, once the plan is complete."""
        if self._pending:
            raise RuntimeError(f"proof ended before its planned step {self._pending[-1][0]}")
        return self.steps


def _greater(lhs: Interval, rhs: Interval):
    return (lhs, rhs, Comparison.CERTAINLY_GREATER)


def _less(lhs: Interval, rhs: Interval):
    return (lhs, rhs, Comparison.CERTAINLY_LESS)


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


ONE = Interval.exact(1)
THRESH_183 = Interval.exact(bounds.ZETA_PRODUCT_UPPER)


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
        step_id = f"quotient_d{d}_D{D}"
        builder.record(
            step_id,
            f"covolume quotient for (d, D) = ({d}, {D}) at rank {n}, "
            f"adjusted by unit index {unit_index}",
            "global covolume comparison against the rational lattice",
            [_greater(quotient, Interval.exact(0))],
            enclosures=[quotient, adjusted],
        )
        survives = adjusted.lo > 1
        builder.record(
            f"verdict_d{d}_D{D}",
            f"field (d, D) = ({d}, {D}) "
            + ("survives the global stage" if survives else "is excluded"),
            "adjusted quotient versus 1",
            [_greater(adjusted, ONE) if survives else _less(adjusted, ONE)],
            enclosures=[adjusted],
        )
        if survives:
            survivors.append(fld.label)


def _local_stage(builder: _Builder, catalog, n: int, prec: int) -> None:
    if n >= 3:
        value = Interval.exact(localfactors.eprime_special(n, 2))
        builder.record(
            "local_special_factor",
            f"smallest special non-hyperspecial local factor at rank {n} "
            "exceeds the exclusion threshold",
            "local covolume factor lower bound",
            [_greater(value, Interval.exact(10))],
            enclosures=[value],
        )
    q_ref = 3 if n == 2 else 2
    lower = localfactors.h_rigidity(q_ref, n)
    builder.record(
        "local_nonspecial_factor",
        f"non-special local factors at rank {n} exceed the component bound",
        "volume rigidity lower bound",
        [_greater(lower, Interval.exact(localfactors.XI_CARDINALITY_MAX))],
        enclosures=[lower],
    )
    if n == 2:
        t2 = Interval.exact(localfactors.T_factor(2))
        t3 = Interval.exact(localfactors.T_factor(3))
        builder.record(
            "local_T_values",
            "rank-2 sharp factor values T(2) = 5/2 and T(3) = 10",
            "closed-form local factors at small residue cardinality",
            [_greater(t2, Interval.exact(2)), _greater(t3, Interval.exact(5))],
            enclosures=[t2, t3],
        )
        for i, frag in enumerate(localfactors.qsqrt5_local_exclusion(catalog)):
            builder.record(
                f"local_exclusion_{i}",
                frag.claim,
                frag.detail,
                [
                    _greater(Interval.exact(lhs), Interval.exact(rhs))
                    for lhs, rhs in frag.comparisons
                ],
            )


def _run_high_rank(builder: _Builder, table, catalog, n: int, prec: int) -> List[str]:
    pair = _table_row(table, *L35_WITNESS)
    conditions = bounds.lemma35_comparisons(pair, prec)
    builder.record(
        "feasible_pair",
        f"bound pair (A, E) = ({pair.A}, {pair.E}) satisfies the three "
        "high-rank conditions",
        "stated row of the vendored table",
        [_greater(lhs, rhs) for lhs, rhs in conditions.values()],
        enclosures=[*conditions["cond_a"], *conditions["cond_c"]],
    )
    # the base and the bound run to thousands of digits at high rank, so the
    # report records their logarithms, which bounds evaluates directly
    log_inner = bounds.log_inner_factor(n, pair.A, prec)
    builder.record(
        "inner_factor_ge_one",
        f"the degree-power base at rank {n} is at least one, so the lower "
        "bound is increasing in the degree",
        "monotonicity in the field degree, via the logarithm of the base",
        [_greater(log_inner, Interval.exact(0))],
        enclosures=[log_inner],
    )
    zeta_product = bounds.zeta_product_enclosure(prec)
    builder.record(
        "zeta_product_bound",
        "the infinite product of zeta at even integers is below 1.83",
        "reference covolume constant bound",
        [_less(zeta_product, THRESH_183)],
        enclosures=[zeta_product],
    )
    log_bound = bounds.log_normalized_O(n, 2, pair, prec)
    builder.record(
        "high_rank_conclusion",
        f"no field of degree above one yields a smaller covolume at rank {n}",
        f"the normalized lower bound at degree 2 and rank {n} exceeds 1.83, "
        "via logarithms",
        [_greater(log_bound, bounds.log_enclosure(THRESH_183, prec))],
        enclosures=[log_bound],
    )
    return ["1.1.1.1"]


def _run_rank3(builder: _Builder, table, catalog, n: int, prec: int) -> List[str]:
    pair = _table_row(table, *N3_WITNESS)
    value = bounds.n3_degree_threshold(pair, prec)
    builder.record(
        "degree_threshold",
        "the optimized rank-3 degree threshold lies below 4, excluding "
        "degrees 4 and higher",
        f"table minimum at (A, E) = ({pair.A}, {pair.E})",
        [_less(value, Interval.exact(4))],
        enclosures=[value],
    )
    cut2 = bounds.n3_D_bound(2, prec)
    cut3 = bounds.n3_D_bound(3, prec)
    e046, e046_lower = bounds.e046_lower_sides(prec)
    quad = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 2, cut2.lo)]
    cubic = [f.discriminant for f in numberfields.fields_by_degree_below(catalog, 3, cut3.lo)]
    builder.record(
        "discriminant_cutoffs",
        f"discriminant cutoffs leave quadratic candidates {quad} and cubic "
        f"candidates {cubic}",
        "catalog pruning by the coarse cutoffs, which take e^0.46 > 1.58",
        [
            _less(Interval.exact(max(quad)), cut2),
            _less(Interval.exact(max(cubic) if cubic else 0), cut3),
            _greater(e046, e046_lower),
        ],
        enclosures=[cut2, cut3, e046],
    )
    proto2 = bounds.proto_D_bound(3, 2, 1, prec)
    proto3 = bounds.proto_D_bound(3, 3, 1, prec)
    builder.record(
        "refined_cutoffs",
        "refined cutoffs exclude every cubic candidate and every quadratic "
        "candidate except discriminant 5",
        "sharpened discriminant cutoffs with unit-index powers",
        [
            _greater(proto2, Interval.exact(5)),
            _less(proto2, Interval.exact(8)),
            _less(proto3, Interval.exact(49)),
        ],
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
        "the optimized rank-2 degree threshold lies below 6, excluding "
        "degrees 6 and higher",
        f"grid minimum at (A, E, t) = ({pair.A}, {pair.E}, {t})",
        [_less(value, Interval.exact(6))],
        enclosures=[value],
    )
    cuts = {d: bounds.n2_D_bound(d, prec) for d in (2, 3, 4, 5)}
    counts = {
        d: [f.discriminant for f in numberfields.fields_by_degree_below(catalog, d, cuts[d].lo)]
        for d in (2, 3, 4, 5)
    }
    builder.record(
        "discriminant_cutoffs",
        "coarse cutoffs leave candidate counts "
        + ", ".join(f"{len(counts[d])} at degree {d}" for d in (2, 3, 4, 5)),
        "catalog pruning by the coarse cutoffs",
        [
            _less(Interval.exact(max(counts[d])), cuts[d])
            for d in (2, 3, 4, 5)
            if counts[d]
        ],
        enclosures=[cuts[d] for d in (2, 3, 4, 5)],
    )
    protos = {d: bounds.proto_D_bound(2, d, 1, prec) for d in (2, 3, 4, 5)}
    builder.record(
        "refined_cutoffs",
        "refined cutoffs exclude all candidates of degree 4 and 5, all "
        "cubic candidates except discriminant 49, and all quadratic "
        "candidates except discriminants 5 and 8",
        "sharpened discriminant cutoffs with unit-index powers",
        [
            _less(protos[5], Interval.exact(14641)),
            _less(protos[4], Interval.exact(725)),
            _greater(protos[3], Interval.exact(49)),
            _less(protos[3], Interval.exact(81)),
            _greater(protos[2], Interval.exact(8)),
            _less(protos[2], Interval.exact(12)),
        ],
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
