"""The certificate format, its serialization and its independent re-check.

This file is the trusted base of verification.  It imports only the standard
library, so a re-checker can copy it alone and run ``verify_report`` on a
JSON report without trusting the code that produced it.  ``compare`` is the
three-way interval relation and ``step_verdict`` the rule that turns a
step's comparisons into its verdict; the prover and the checker both apply
them.  An interval is any object with exact ``lo`` and ``hi``: the prover
records ``rigor.Interval``, the checker parses ``Enclosure``.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from typing import Dict, List, NamedTuple, Sequence, Tuple

SCHEMA_VERSION = 1

# the highest rank the prover certifies; defined here, with no covcert
# import, so that the command line can state it without loading the prover
MAX_RANK = 64

FINAL_CONCLUSION = "Sp_{2n}(Z) uniquely minimal (mod axioms)"

AXIOMS = {
    "A1": "ramification parity of the residual rank-2 quaternionic case "
    "at the archimedean places",
    "A2": "identification of the surviving rational lattice with the "
    "integral symplectic group (class number one and conjugation "
    "transitivity)",
    "A3": "validity of the vendored discriminant bound table: each pair "
    "(A, E) satisfies D_K >= A^d exp(-E) for totally real K",
    "A4": "index bound for the normalizer of a parahoric-stabilized "
    "lattice",
    "A5": "existence of a lattice of minimal covolume in the ambient "
    "group",
}


# The steps that a proof of each rank class consists of, in order, each with
# the steps it depends on.  Ranks 4 to MAX_RANK share one plan.  This is the
# proof's one description: the prover builds each report from it, recording
# every step where its plan places it, with the plan's dependencies, and the
# axioms at the plan's positions.  Every report must record exactly its
# class's steps and edges, whatever its verdicts: a consistent subset of a
# proof proves nothing.
_GLOBAL_AXIOMS = {"A5": (), "A4": (), "A3": ()}
STEP_PLANS: Dict[int, Dict[str, Tuple[str, ...]]] = {
    2: {
        **_GLOBAL_AXIOMS,
        "degree_threshold": ("A3",),
        "discriminant_cutoffs": ("degree_threshold",),
        "refined_cutoffs": ("discriminant_cutoffs",),
        "quotient_d3_D49": ("refined_cutoffs",),
        "verdict_d3_D49": ("quotient_d3_D49",),
        "quotient_d2_D8": ("refined_cutoffs",),
        "verdict_d2_D8": ("quotient_d2_D8",),
        "quotient_d2_D5": ("refined_cutoffs",),
        "verdict_d2_D5": ("quotient_d2_D5",),
        "local_nonspecial_factor": (),
        "local_T_values": (),
        "local_exclusion_0": ("local_T_values",),
        "local_exclusion_1": ("local_T_values",),
        "local_exclusion_2": ("local_T_values",),
        "A1": ("local_T_values",),
        "A2": (),
    },
    3: {
        **_GLOBAL_AXIOMS,
        "degree_threshold": ("A3",),
        "discriminant_cutoffs": ("degree_threshold",),
        "refined_cutoffs": ("discriminant_cutoffs",),
        "quotient_d2_D5": ("refined_cutoffs",),
        "verdict_d2_D5": ("quotient_d2_D5",),
        "local_special_factor": (),
        "local_nonspecial_factor": (),
        "A2": (),
    },
    4: {
        **_GLOBAL_AXIOMS,
        "feasible_pair": ("A3",),
        "inner_factor_ge_one": ("feasible_pair",),
        "zeta_product_bound": (),
        "high_rank_conclusion": ("inner_factor_ge_one", "zeta_product_bound", "A4"),
        "local_special_factor": (),
        "local_nonspecial_factor": (),
        "A2": (),
    },
}


def step_plan(rank: int) -> Dict[str, Tuple[str, ...]]:
    """The plan of a rank's class: rank 2, rank 3, or ranks 4 to MAX_RANK."""
    return STEP_PLANS[min(rank, 4)]


class InputError(ValueError):
    """Bad input: a data file, catalog, table, report or request that the
    command cannot use.  The command line ends with exit 3 on any subclass."""


class SchemaMismatch(InputError):
    """Report schema version is not supported."""


class TamperDetected(ValueError):
    """Recorded comparisons or verdicts are internally inconsistent."""


class Comparison(Enum):
    CERTAINLY_LESS = "CertainlyLess"
    CERTAINLY_GREATER = "CertainlyGreater"
    OVERLAP = "Overlap"


class Enclosure(NamedTuple):
    """A closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction


def compare(a, b) -> Comparison:
    """Certain order of two intervals, or OVERLAP when they intersect."""
    if a.hi < b.lo:
        return Comparison.CERTAINLY_LESS
    if a.lo > b.hi:
        return Comparison.CERTAINLY_GREATER
    return Comparison.OVERLAP


class RecordedComparison(NamedTuple):
    lhs: Enclosure
    rhs: Enclosure
    relation: str  # the relation that actually holds
    required: str  # the relation the step needs

    @property
    def satisfied(self) -> bool:
        return self.relation == self.required


def step_verdict(comparisons: Sequence[RecordedComparison]) -> str:
    """Proved when there is a comparison and all hold; else Tie on an overlap, else Failed."""
    if comparisons and all(c.satisfied for c in comparisons):
        return "Proved"
    tie = any(c.relation == Comparison.OVERLAP.value for c in comparisons)
    return "Tie" if tie else "Failed"


class CertificateStep(NamedTuple):
    id: str
    claim: str
    anchor: str
    enclosures: Tuple[Enclosure, ...]
    comparisons: Tuple[RecordedComparison, ...]
    verdict: str  # Proved | Failed | Axiom | Tie
    dependencies: Tuple[str, ...]
    precision_bits: int


class Certificate:
    """A rank's proof steps.  Mutable: the prover sets ``final_conclusion``
    once every step holds."""

    def __init__(
        self,
        rank: int,
        precision_bits: int,
        steps: List[CertificateStep],
        surviving_fields_after_global: List[str],
        final_conclusion: str,
    ) -> None:
        self.rank = rank
        self.precision_bits = precision_bits
        self.steps = steps
        self.surviving_fields_after_global = surviving_fields_after_global
        self.final_conclusion = final_conclusion

    def step(self, step_id: str) -> CertificateStep:
        for s in self.steps:
            if s.id == step_id:
                return s
        raise KeyError(step_id)

    @property
    def all_proved(self) -> bool:
        return all(s.verdict in ("Proved", "Axiom") for s in self.steps)

    @property
    def has_tie(self) -> bool:
        return any(s.verdict == "Tie" for s in self.steps)


# ---------------------------------------------------------------------------
# serialization


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _iv_json(iv: Enclosure) -> List[str]:
    return [_frac_str(iv.lo), _frac_str(iv.hi)]


def _sig12(x: Fraction) -> str:
    """Deterministic 12-significant-digit decimal rendering (reporting only)."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def emit_report(cert: Certificate, fmt: str = "json") -> bytes:
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "rank": cert.rank,
            "precision_bits": cert.precision_bits,
            "surviving_fields_after_global": cert.surviving_fields_after_global,
            "final_conclusion": cert.final_conclusion,
            "steps": [
                {
                    "id": s.id,
                    "claim": s.claim,
                    "anchor": s.anchor,
                    "verdict": s.verdict,
                    "dependencies": list(s.dependencies),
                    "precision_bits": s.precision_bits,
                    "enclosures": [_iv_json(e) for e in s.enclosures],
                    "comparisons": [
                        {
                            "lhs": _iv_json(c.lhs),
                            "rhs": _iv_json(c.rhs),
                            "relation": c.relation,
                            "required": c.required,
                        }
                        for c in s.comparisons
                    ],
                }
                for s in cert.steps
            ],
        }
        return (
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")
    if fmt == "text":
        lines = [
            f"certificate schema {SCHEMA_VERSION}",
            f"rank: {cert.rank}",
            f"precision: {cert.precision_bits} bits",
            "surviving fields after global stage: "
            + ", ".join(cert.surviving_fields_after_global),
        ]
        for s in cert.steps:
            lines.append(f"[{s.verdict}] {s.id}: {s.claim}")
            for e in s.enclosures:
                lines.append(f"    enclosure [{_sig12(e.lo)}, {_sig12(e.hi)}]")
            for c in s.comparisons:
                lines.append(
                    f"    {_sig12(c.lhs.hi)} {c.relation} {_sig12(c.rhs.lo)}"
                    f" (required {c.required})"
                )
        lines.append(f"conclusion: {cert.final_conclusion or 'NOT PROVED'}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# verification


def _typed(obj, key: str, kind: type):
    """obj[key] when obj is a JSON object and the value has the given type."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaMismatch(f"{key!r} missing or not a {kind.__name__} in {obj!r:.80}")
    return value


def _parse_interval(pair) -> Enclosure:
    """An enclosure recorded as a list of two fraction strings [lo, hi]."""
    try:
        lo, hi = pair
        if not isinstance(lo, str) or not isinstance(hi, str):
            raise TypeError("endpoints are not strings")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"lo={lo} > hi={hi}")
        return Enclosure(lo, hi)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaMismatch(f"enclosure {pair!r:.80} does not parse: {exc}") from exc


def _check_plan(doc) -> None:
    """TamperDetected unless a parsed report records its rank class's plan,
    step for step and edge for edge, with field labels, claims and anchors
    that are strings."""
    rank = doc["rank"]
    if not 2 <= rank <= MAX_RANK:
        raise TamperDetected(f"rank {rank} is outside 2..{MAX_RANK}")
    recorded = [(s["id"], tuple(s["dependencies"])) for s in doc["steps"]]
    for step, planned in zip_longest(recorded, step_plan(rank).items()):
        if step != planned:
            raise TamperDetected(f"rank {rank} proof records step {step} where its plan has {planned}")
    surviving = doc.get("surviving_fields_after_global")
    if not isinstance(surviving, list) or not all(isinstance(x, str) for x in surviving):
        raise TamperDetected(
            f"surviving_fields_after_global {surviving!r:.80} is not a list of field labels"
        )
    for s in doc["steps"]:
        for key in ("claim", "anchor"):
            if not isinstance(s.get(key), str):
                raise TamperDetected(f"step {s['id']}: {key} {s.get(key)!r:.80} is not a string")


def verify_report(stream: bytes) -> str:
    """Re-check a JSON report: every report follows its rank class's plan.

    Returns "Proved" when every step holds, else "NotProved".  Raises
    SchemaMismatch for a report that does not parse as this schema (among
    others: an enclosure that is not an interval of fractions, a rank that
    is not an integer, a dependency that is not a string, a precision below
    16 bits or not equal to every step's) and TamperDetected for one that
    contradicts itself (a verdict that is not ``step_verdict`` of its
    re-checked comparisons, an axiom step that does not state its axiom, a
    conclusion that disagrees with the verdicts) or, once every step has
    parsed, departs from its class's plan (``_check_plan``).  The plan is
    the only rule for steps and edges: each planned dependency names an
    earlier step of its plan.  Only exact rational arithmetic is used.
    """
    try:
        doc = json.loads(stream.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaMismatch(f"not a report: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported schema version {version!r}")
    _typed(doc, "rank", int)
    precision_bits = _typed(doc, "precision_bits", int)
    if precision_bits < 16:
        raise SchemaMismatch(f"precision_bits {precision_bits} is below 16")
    all_ok = True
    for s in _typed(doc, "steps", list):
        step_id = _typed(s, "id", str)
        if _typed(s, "precision_bits", int) != precision_bits:
            raise SchemaMismatch(
                f"step {step_id}: precision_bits differs from the report's"
            )
        for enclosure in _typed(s, "enclosures", list):
            _parse_interval(enclosure)
        for dep in _typed(s, "dependencies", list):
            if not isinstance(dep, str):
                raise SchemaMismatch(f"step {step_id}: dependency {dep!r} is not a string")
        comparisons = []
        for c in _typed(s, "comparisons", list):
            lhs = _parse_interval(_typed(c, "lhs", list))
            rhs = _parse_interval(_typed(c, "rhs", list))
            relation = _typed(c, "relation", str)
            actual = compare(lhs, rhs).value
            if actual != relation:
                raise TamperDetected(
                    f"step {step_id}: recorded relation {relation} but "
                    f"enclosures give {actual}"
                )
            comparisons.append(
                RecordedComparison(lhs, rhs, relation, _typed(c, "required", str))
            )
        verdict = s.get("verdict")
        if verdict == "Axiom":
            if comparisons:
                raise TamperDetected(f"axiom step {step_id} has comparisons")
            if s.get("claim") != AXIOMS.get(step_id):
                raise TamperDetected(f"axiom step {step_id} does not state axiom {step_id}")
        elif verdict in ("Proved", "Failed", "Tie"):
            expected = step_verdict(comparisons)
            if verdict != expected:
                raise TamperDetected(
                    f"step {step_id} marked {verdict} but its comparisons give {expected}"
                )
            all_ok = all_ok and verdict == "Proved"
        else:
            raise SchemaMismatch(f"unknown verdict {verdict!r}")
    conclusion = doc.get("final_conclusion", "")
    if all_ok and conclusion != FINAL_CONCLUSION:
        raise TamperDetected("all steps hold but the conclusion is absent")
    if not all_ok and conclusion == FINAL_CONCLUSION:
        raise TamperDetected("conclusion recorded despite a failed step")
    _check_plan(doc)
    return "Proved" if all_ok else "NotProved"
