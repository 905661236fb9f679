"""The certificate format, its serialization and its independent re-check.

This file is the trusted base of verification.  It imports only the standard
library, so a re-checker can copy it alone and run ``verify_report`` on a
JSON report without trusting the code that produced it.  ``STEP_PLANS``
states the proof, and ``render`` turns a plan and its evidence into a
certificate: the prover renders what it computed, and the checker renders
what a report records and accepts the report only if it is that rendering.
A step's evidence is its enclosures, one for each quantity, and its anchor
where the plan states none; the plan bounds each quantity by constants, and
``render`` derives the step's comparisons, one for each bound.  The plan
states the witness rows, the exact local factors and every anchor that reads
no catalog; the prover states the computed enclosures and the other anchors.
An interval is any object with exact ``lo`` and ``hi``: ``rigor.Interval``,
whose endpoints are ``Fraction``s, or the checker's ``Enclosure``, whose
endpoints are ``Ratio``s.  Every relation between endpoints (an int is one
too) is decided by integer cross-multiplication of their ``numerator`` and
``denominator``, so checking a report imports neither ``fractions`` nor
``decimal``.
"""

from __future__ import annotations

import json
from collections import namedtuple

SCHEMA_VERSION = 1
# the precisions a report may record, in bits, and ``--precision`` accepts
MIN_PRECISION_BITS, MAX_PRECISION_BITS = 16, 8192

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


class InputError(ValueError):
    """Bad input: a data file, catalog, table, report or request that the
    command cannot use.  The command line ends with exit 3 on any subclass."""


class SchemaMismatch(InputError):
    """Report schema version is not supported."""


class TamperDetected(ValueError):
    """Recorded comparisons or verdicts are internally inconsistent."""


class Comparison:
    """The three relations of two intervals, each the string a report records."""

    CERTAINLY_LESS = "CertainlyLess"
    CERTAINLY_GREATER = "CertainlyGreater"
    OVERLAP = "Overlap"


# An exact rational is anything with an int ``numerator`` and a positive int
# ``denominator``: a Fraction, an int or a Ratio.  ``_below`` and ``_equal``
# are the only relations between them here.


def _below(x, y) -> bool:
    """x < y, by cross-multiplying over the positive denominators."""
    return x.numerator * y.denominator < y.numerator * x.denominator


def _equal(x, y) -> bool:
    """x == y as rationals, reduced or not."""
    return x.numerator * y.denominator == y.numerator * x.denominator


class Ratio:
    """An exact rational numerator/denominator, with a positive denominator
    and not necessarily reduced: an endpoint as the checker reads it, or a
    constant of the plan.  It equals another exact rational of the same
    value and has no order: ``compare`` and ``_below`` decide one, so that
    no ordering of its fields, such as a tuple's, can stand in for it.
    An endpoint keeps the ``text`` it was read from, which ``str`` writes
    back unchanged; else ``str`` writes p/q, or p for q = 1, as it does a
    ``Fraction``."""

    __slots__ = ("numerator", "denominator", "text")

    def __init__(self, numerator: int, denominator: int = 1, text: str | None = None) -> None:
        if denominator <= 0:
            raise ValueError(f"denominator {denominator} is not positive")
        self.numerator = numerator
        self.denominator = denominator
        self.text = text

    def __eq__(self, other) -> bool:
        if not hasattr(other, "denominator"):
            return NotImplemented
        return _equal(self, other)

    __hash__ = None

    def __str__(self) -> str:
        if self.text is not None:
            return self.text
        return str(self.numerator) + (f"/{self.denominator}" if self.denominator != 1 else "")

    def __repr__(self) -> str:
        return f"Ratio({self.numerator}, {self.denominator})"


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """A closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ()


def compare(a, b) -> str:
    """Certain order of two intervals, or OVERLAP when they intersect."""
    if _below(a.hi, b.lo):
        return Comparison.CERTAINLY_LESS
    if _below(b.hi, a.lo):
        return Comparison.CERTAINLY_GREATER
    return Comparison.OVERLAP


class RecordedComparison(namedtuple("RecordedComparison", "lhs rhs relation required")):
    """Two intervals, the relation that actually holds between them and the
    relation the step needs."""

    __slots__ = ()


def step_verdict(comparisons: list[RecordedComparison]) -> str:
    """Proved when there is a comparison and all hold; else Tie on an overlap, else Failed."""
    if comparisons and all(c.relation == c.required for c in comparisons):
        return "Proved"
    tie = any(c.relation == Comparison.OVERLAP for c in comparisons)
    return "Tie" if tie else "Failed"


# Constants that a planned comparison and a prover formula share.  Each is
# defined here once, and ``bounds`` and ``localfactors`` import it (``bounds``
# builds its Fractions from the two Ratios), so the constant a report is
# checked against is the one its formula used.
ZETA_PRODUCT_UPPER = Ratio(183, 100)  # the product of zeta(2j) over j >= 1 is below it
E_046_LOWER = Ratio(79, 50)  # below e^0.46; the rank-3 cutoffs take it in its place
XI_CARDINALITY_MAX = 2  # the component group dividing a non-special factor has 1 or 2 elements
# Rows (A, E) of the vendored bound table at which the proof evaluates the
# rank-2 threshold (with t), the rank-3 one and both rank >= 4 induction steps:
# a step needs only some row below its bound, so the search is left to ``covcert optimize``.
N2_WITNESS = (Ratio(2689, 125), Ratio(60001, 10000), Ratio(6, 5))  # (21.512, 6.0001, 1.2)
N3_WITNESS = (Ratio(13047, 1000), Ratio(38667, 10000))  # (13.047, 3.8667)
L35_WITNESS = (Ratio(3447, 500), Ratio(22667, 10000))  # (6.894, 2.2667)


# A planned step is a 4-tuple: the steps it depends on, its claim (a template
# whose one field is {rank}), its anchor and the bounds of each of its
# quantities, one enclosure each.  The anchor is the plan's
# text wherever it reads no catalog, and None where the prover states it: the
# candidate counts and lists, a unit index, a prime's splitting.  A bound is
# the relation the quantity requires to an exact constant (an int or a Ratio
# in lowest terms, as a report writes it); ``_gt(49) + _lt(81)`` bounds one
# quantity on both sides.
def _gt(constant) -> tuple[tuple[str, Ratio | int]]:
    return ((Comparison.CERTAINLY_GREATER, constant),)


def _lt(constant) -> tuple[tuple[str, Ratio | int]]:
    return ((Comparison.CERTAINLY_LESS, constant),)


AXIOM_ANCHOR = "structural input, outside certified numerics"

# The candidate fields (d, D) that each rank class's refined cutoffs leave,
# in plan order, and whether each survives its global stage.  A candidate's
# catalog label is d.d.D.1.
CANDIDATE_FIELDS = {2: ((3, 49, False), (2, 8, False), (2, 5, True)), 3: ((2, 5, False),), 4: ()}
# The fields that survive each rank class's global stage: the rational
# field and the surviving candidates.
SURVIVING_FIELDS = {
    rank: ("1.1.1.1", *(f"{d}.{d}.{D}.1" for d, D, survives in fields if survives))
    for rank, fields in CANDIDATE_FIELDS.items()
}


def _global_stage(rank: int) -> dict[str, tuple]:
    """The global-stage steps of a rank class, one for each candidate field
    (d, D): its covolume quotient, adjusted by its unit index, against 1."""
    return {
        f"verdict_d{d}_D{D}": (
            ("refined_cutoffs",),
            f"field (d, D) = ({d}, {D}) "
            + ("survives the global stage" if survives else "is excluded"),
            None,
            (_gt(1) if survives else _lt(1),),
        )
        for d, D, survives in CANDIDATE_FIELDS[rank]
    }


# The steps that a proof of each rank class consists of, in order, each with
# its whole statement.  Every rank from 4 on shares one plan.  This is the
# proof's one description: ``render`` takes every step's claim, dependencies,
# required relations and right sides from it, and every anchor and point it
# states, and the evidence supplies only computed enclosures and the anchors
# that read the catalog.  So a consistent subset of a proof, or a proof of
# another statement, is no rendering of a plan.
_AXIOMS_FIRST = {axiom: ((), AXIOMS[axiom], AXIOM_ANCHOR, ()) for axiom in ("A5", "A4", "A3")}
_LOCAL_STAGE = {
    "local_special_factor": (
        (),
        "smallest special non-hyperspecial local factor at rank {rank} exceeds the exclusion "
        "threshold: it does at ranks 3 and 4 and gains factors >= 1 from rank n to n + 2",
        "local covolume factor lower bounds at ranks 3 and 4",
        (_gt(10), _gt(10)),
    ),
    "local_nonspecial_factor": (
        (),
        "non-special local factors at rank {rank} exceed the component bound: h(2, 3) does, "
        "and h(2, n + 1)/h(2, n) = 2(1 - 4^-(n+1)) exceeds 1 at n = 3 and grows with n",
        "volume rigidity lower bound at rank 3 and its growth to rank 4",
        (_gt(XI_CARDINALITY_MAX), _gt(1)),
    ),
    "A2": ((), AXIOMS["A2"], AXIOM_ANCHOR, ()),
}
# every rank class's cutoffs or conclusion take the zeta product's bound 1.83
_ZETA_PRODUCT_BOUND = {
    "zeta_product_bound": (
        (),
        "the infinite product of zeta at even integers is below 1.83",
        "reference covolume constant bound",
        (_lt(ZETA_PRODUCT_UPPER),),
    ),
}
_REFINED_ANCHOR = "sharpened discriminant cutoffs with unit-index powers"
STEP_PLANS: dict[int, dict[str, tuple]] = {
    2: {
        **_AXIOMS_FIRST,
        "degree_threshold": (
            ("A3",),
            "the optimized rank-2 degree threshold lies below 6, excluding degrees 6 and higher",
            "grid minimum at (A, E, t) = ({}, {}, {})".format(*N2_WITNESS),
            (_lt(6),),
        ),
        "discriminant_cutoffs": (
            ("degree_threshold",),
            "coarse cutoffs bound the discriminants of the candidate fields of degrees 2 to 5 and "
            "lie below 28, 257, 2225 and 24217, below which the catalog lists every totally real "
            "field of its degree",
            None,
            (_lt(28), _lt(257), _lt(2225), _lt(24217)),
        ),
        **_ZETA_PRODUCT_BOUND,
        "refined_cutoffs": (
            ("discriminant_cutoffs", "zeta_product_bound"),
            "refined cutoffs exclude all candidates of degree 4 and 5, all cubic candidates except "
            "discriminant 49, and all quadratic candidates except discriminants 5 and 8",
            _REFINED_ANCHOR,
            (_lt(14641), _lt(725), _gt(49) + _lt(81), _gt(8) + _lt(12)),
        ),
        **_global_stage(2),
        "local_nonspecial_factor": (
            (),
            "non-special local factors at rank {rank} exceed the component bound",
            "volume rigidity lower bound",
            (_gt(XI_CARDINALITY_MAX),),
        ),
        "local_T_values": (
            (),
            "rank-2 sharp factor values T(2) = 5/2 and T(3) = 10",
            "closed-form local factors at small residue cardinality",
            (_gt(2), _gt(5)),
        ),
        "local_exclusion_0": (
            ("local_T_values",), "no place above 2 has residue cardinality 2", None, (_gt(2),)
        ),
        "local_exclusion_1": (
            ("local_T_values",), "no place above 3 has residue cardinality 3", None, (_gt(3),)
        ),
        "local_exclusion_2": (
            ("local_T_values",),
            "sharp factors at the remaining places satisfy the exclusion inequality",
            "T(q) > 25 for q >= 4 and T(4), T(5), T(9) each exceed 10",
            (_gt(10),) * 3,
        ),
        "A1": (("local_T_values",), AXIOMS["A1"], AXIOM_ANCHOR, ()),
        "A2": _LOCAL_STAGE["A2"],
    },
    3: {
        **_AXIOMS_FIRST,
        "degree_threshold": (
            ("A3",),
            "the optimized rank-3 degree threshold lies below 4, excluding degrees 4 and higher",
            "table minimum at (A, E) = ({}, {})".format(*N3_WITNESS),
            (_lt(4),),
        ),
        **_ZETA_PRODUCT_BOUND,
        "discriminant_cutoffs": (
            ("degree_threshold", "zeta_product_bound"),
            "coarse cutoffs, which take e^0.46 > 1.58, bound the discriminants of the quadratic "
            "and cubic candidate fields and lie below 12 and 81, below which the catalog lists "
            "every totally real quadratic and cubic field",
            None,
            (_lt(12), _lt(81), _gt(E_046_LOWER)),
        ),
        "refined_cutoffs": (
            ("discriminant_cutoffs", "zeta_product_bound"),
            "refined cutoffs exclude every cubic candidate and every quadratic candidate except "
            "discriminant 5",
            _REFINED_ANCHOR,
            (_gt(5) + _lt(8), _lt(49)),
        ),
        **_global_stage(3),
        **_LOCAL_STAGE,
    },
    4: {
        **_AXIOMS_FIRST,
        "inner_factor_ge_one": (
            ("A3",),
            "the degree-power base at rank {rank} is at least one, so the lower bound is "
            "increasing in the degree: at rank 4 its log and the log's first and second "
            "differences in the rank are positive, and the second grows with the rank",
            "monotonicity in the field degree, via the logarithm of the base at rank 4",
            (_gt(0),) * 3,
        ),
        **_ZETA_PRODUCT_BOUND,
        "high_rank_conclusion": (
            ("inner_factor_ge_one", "zeta_product_bound", "A4"),
            "no field of degree above one yields a smaller covolume at rank {rank}: at rank 4 the "
            "normalized lower bound at degree 2 exceeds 1.83 and its log's first and second "
            "differences in the rank are positive, and the second grows with the rank",
            "the normalized lower bound at degree 2, at rank 4",
            (_gt(ZETA_PRODUCT_UPPER), _gt(0), _gt(0)),
        ),
        **_LOCAL_STAGE,
    },
}


# The exact local factors, which read neither the catalog nor the precision,
# as points that the plan states, and none for an axiom: e'(3, 2), e'(4, 2);
# h(2, 3), h(2, 4)/h(2, 3), or h(3, 2) at rank 2; T(2), T(3); T(4), T(5), T(9).
_LOCAL_FACTORS = {**dict.fromkeys(AXIOMS, ()), "local_special_factor": (35, 189),
                  "local_nonspecial_factor": (Ratio(945, 256), Ratio(255, 128))}
STATED_POINTS: dict[int, dict[str, tuple]] = {
    2: {**dict.fromkeys(AXIOMS, ()), "local_nonspecial_factor": (Ratio(160, 27),),
        "local_T_values": (Ratio(5, 2), 10), "local_exclusion_2": (Ratio(51, 2), 52, 328)},
    3: _LOCAL_FACTORS, 4: _LOCAL_FACTORS,
}


def rank_class(rank: int) -> int:
    """The class of a rank, its key in ``STEP_PLANS``: 2, 3, or 4 from rank 4 on."""
    return min(rank, 4)


def step_plan(rank: int) -> dict[str, tuple]:
    """The plan of a rank's class."""
    return STEP_PLANS[rank_class(rank)]


class CertificateStep(
    namedtuple(
        "CertificateStep",
        "id claim anchor enclosures comparisons verdict dependencies precision_bits",
    )
):
    """One step of a proof: its enclosures and comparisons are tuples, its
    verdict is Proved, Failed, Axiom or Tie."""

    __slots__ = ()


class Certificate(
    namedtuple(
        "Certificate",
        "rank precision_bits steps surviving_fields_after_global final_conclusion",
    )
):
    """A rank's proof: its steps, the fields that survive its global stage,
    and the conclusion, which the prover records once every step holds."""

    __slots__ = ()

    @property
    def all_proved(self) -> bool:
        return all(s.verdict in ("Proved", "Axiom") for s in self.steps)

    @property
    def has_tie(self) -> bool:
        return any(s.verdict == "Tie" for s in self.steps)


# ---------------------------------------------------------------------------
# rendering


def render(rank: int, precision_bits: int, evidence: dict) -> Certificate:
    """The certificate of a rank's plan and its evidence, for the prover and
    the checker alike.  A step takes the points that ``STATED_POINTS`` states
    for it (an axiom none), else its ``evidence``: (anchor, enclosures), one
    enclosure for each planned quantity, the anchor taken where the plan has
    none.  Each bound of a quantity gives one comparison, in plan order: its
    enclosure against the bound's constant.  All else comes from the plan,
    ``compare`` and ``step_verdict``.  A missing step raises KeyError, and
    another number of enclosures than the plan's quantities ValueError, naming the step.
    """
    stated, steps = STATED_POINTS[rank_class(rank)], []
    for step_id, (dependencies, claim, planned_anchor, planned) in step_plan(rank).items():
        anchor, enclosures = ((None, [Enclosure(x, x) for x in stated[step_id]])
                              if step_id in stated else evidence[step_id])
        if len(enclosures) != len(planned):
            raise ValueError(f"step {step_id}: its {len(enclosures)} enclosures are not "
                             f"its plan's {len(planned)}")
        comparisons = []
        for lhs, quantity in zip(enclosures, planned):
            for required, constant in quantity:
                rhs = Enclosure(constant, constant)
                comparisons.append(RecordedComparison(lhs, rhs, compare(lhs, rhs), required))
        verdict = "Axiom" if step_id in AXIOMS else step_verdict(comparisons)
        steps.append(
            CertificateStep(step_id, claim.format(rank=rank), planned_anchor or anchor,
                            tuple(enclosures), tuple(comparisons), verdict, dependencies,
                            precision_bits)
        )
    survivors = list(SURVIVING_FIELDS[rank_class(rank)])
    cert = Certificate(rank, precision_bits, tuple(steps), survivors, "")
    return cert._replace(final_conclusion=FINAL_CONCLUSION) if cert.all_proved else cert


# ---------------------------------------------------------------------------
# serialization


def _iv_json(iv) -> list[str]:
    """An interval as a report writes it: each endpoint as it was read, else
    p/q, or p for q = 1 (``str`` of a Ratio, a Fraction or an int)."""
    return [str(iv.lo), str(iv.hi)]


def _sig12(x) -> str:
    """Deterministic 12-significant-digit decimal rendering (reporting only)."""
    from decimal import Decimal, localcontext  # a text report only; verify never renders

    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _document(cert: Certificate) -> dict:
    """The JSON document of a certificate, as ``emit_report`` writes it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "rank": cert.rank,
        "precision_bits": cert.precision_bits,
        "surviving_fields_after_global": list(cert.surviving_fields_after_global),
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


def emit_report(cert: Certificate, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (
            json.dumps(_document(cert), sort_keys=True, separators=(",", ":")) + "\n"
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


def _endpoint(text) -> Ratio:
    """An endpoint as ``_iv_json`` writes it, -?[0-9]+ or -?[0-9]+/[0-9]+,
    with a nonzero denominator, keeping its text.  Only ASCII digits are
    taken: ``int`` alone would also take other scripts' digits, and
    ``Fraction`` an exponent, which it expands ("1e10000000" to ten million
    digits)."""
    num, slash, den = text.partition("/") if isinstance(text, str) else ("", "", "")
    digits = [num.removeprefix("-")] + ([den] if slash else [])
    if not all(x.isascii() and x.isdigit() for x in digits):
        raise ValueError(f"endpoint {text!r:.40} is not an integer or a fraction p/q")
    return Ratio(int(num), int(den or 1), text)


def _parse_interval(pair) -> Enclosure:
    """An enclosure recorded as a list of two fraction strings [lo, hi]."""
    try:
        if not isinstance(pair, list) or len(pair) != 2:
            raise TypeError("not a list of two endpoints")
        lo, hi = map(_endpoint, pair)
        if _below(hi, lo):
            raise ValueError("lo > hi")
        return Enclosure(lo, hi)
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"enclosure {pair!r:.80} does not parse: {exc}") from exc


def _wider_than(iv, bits: int) -> bool:
    """(hi - lo) 2^bits > max(|lo|, |hi|): fewer than ``bits`` relative bits.
    A point never is.  Each side is multiplied by both denominators."""
    lo, hi = iv
    width = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    return (width << bits) > max(abs(lo.numerator) * hi.denominator,
                                 abs(hi.numerator) * lo.denominator)


_ABSENT = type("Absent", (), {"__repr__": lambda self: "absent"})()  # a key or item lacking


def _difference(recorded, rendered, path: str = "") -> str:
    """Where two unequal JSON values first differ, keys in sorted order."""
    kind = type(recorded)
    if kind is type(rendered) and kind in (dict, list):
        a, b = (dict(enumerate(x)) if kind is list else x for x in (recorded, rendered))
        for key in sorted(a.keys() | b.keys()):
            if a.get(key, _ABSENT) != b.get(key, _ABSENT):
                where = f"{path}[{key}]" if kind is list else f"{path}.{key}" if path else key
                return _difference(a.get(key, _ABSENT), b.get(key, _ABSENT), where)
    return f"{path} is {recorded!r:.80}, not its rendering's {rendered!r:.80}"


def verify_report(stream: bytes) -> str:
    """Re-check a JSON report: it must be the rendering of its own evidence.

    Returns "Proved" when every step holds, else "NotProved".  The whole
    report is parsed first, so a schema error anywhere comes before any
    tamper error: SchemaMismatch for a report that does not parse as this
    schema (among others: an enclosure that is not an interval of fractions
    written as ``emit_report`` writes them, a rank that is not an integer, a
    dependency that is not a string, an unknown verdict, a precision outside
    16 to 8192 bits or not equal to every step's).  Then TamperDetected for
    a recorded enclosure that is not a point and has fewer relative bits
    than the recorded precision (``_wider_than``), a rank below 2, an anchor
    that is not a string, a step with another number of enclosures than its
    plan's quantities (the error names the step), or a report that is not,
    field for field, what ``render`` makes of its rank's plan and its
    recorded anchors and enclosures; so the comparisons must be each
    enclosure against each of its quantity's planned bounds, and an anchor
    or a point that the plan states must be the plan's.  Only exact integer
    arithmetic is used.  What it does not recompute it trusts: the computed
    enclosures, and the anchors that read the catalog (the candidates, the
    unit index, a prime's splitting) with the catalog data behind them.
    """
    try:
        doc = json.loads(stream.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
        raise SchemaMismatch(f"not a report: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaMismatch(f"unsupported schema version {version!r:.80}")
    rank = _typed(doc, "rank", int)
    precision_bits = _typed(doc, "precision_bits", int)
    if not MIN_PRECISION_BITS <= precision_bits <= MAX_PRECISION_BITS:
        raise SchemaMismatch(f"precision_bits {precision_bits} is outside "
                             f"{MIN_PRECISION_BITS} to {MAX_PRECISION_BITS}")
    recorded = []
    for s in _typed(doc, "steps", list):
        step_id = _typed(s, "id", str)
        if _typed(s, "precision_bits", int) != precision_bits:
            raise SchemaMismatch(
                f"step {step_id}: precision_bits differs from the report's"
            )
        enclosures = [_parse_interval(e) for e in _typed(s, "enclosures", list)]
        for dep in _typed(s, "dependencies", list):
            if not isinstance(dep, str):
                raise SchemaMismatch(f"step {step_id}: dependency {dep!r:.80} is not a string")
        for c in _typed(s, "comparisons", list):  # rendered, parsed for the schema
            _parse_interval(_typed(c, "lhs", list))
            _parse_interval(_typed(c, "rhs", list))
            _typed(c, "relation", str)
            _typed(c, "required", str)
        verdict = s.get("verdict")
        if verdict not in ("Proved", "Failed", "Tie", "Axiom"):
            raise SchemaMismatch(f"unknown verdict {verdict!r:.80}")
        recorded.append((step_id, s.get("anchor"), enclosures))
    for step_id, _, enclosures in recorded:
        for iv in enclosures:
            if _wider_than(iv, precision_bits):
                raise TamperDetected(f"step {step_id}: interval {_iv_json(iv)!r:.80} has "
                                     f"fewer than its {precision_bits} bits of precision")
    if rank < 2:
        raise TamperDetected(f"rank {rank} is outside the plans, which start at rank 2")
    evidence = {}
    for step_id, anchor, enclosures in recorded:
        if not isinstance(anchor, str):
            raise TamperDetected(f"step {step_id}: anchor {anchor!r:.80} is not a string")
        evidence[step_id] = (anchor, enclosures)
    try:
        cert = render(rank, precision_bits, evidence)
    except KeyError as exc:
        raise TamperDetected(f"the report lacks its plan's step {exc}") from exc
    except ValueError as exc:  # a step with more or fewer enclosures than quantities
        raise TamperDetected(str(exc)) from exc
    rendered = _document(cert)
    if doc != rendered:
        raise TamperDetected(_difference(doc, rendered))
    return "Proved" if cert.all_proved else "NotProved"
