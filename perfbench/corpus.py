"""Known-answer report variants for the ``verify`` workload.

Each variant turns an honest JSON report into the bytes of a report file
and fixes the exit code ``covcert verify`` must give for it:

- ``honest``: the report as emitted, exit 0;
- tampered: recorded data contradicts itself, exit 2;
- malformed: not a report of this schema, exit 3.

Two further groups are known defects of the verifier.  The benchmark runs
them only as probes in the traced run, so that a later fix shows as a
lower count there:

- forged: well-formed reports that do not prove the claim but that
  ``verify`` accepts today (exit 0 where 2 is documented);
- crashing: malformed reports that make ``verify`` exit 1 with a
  traceback today (exit 3 is documented).
"""

from __future__ import annotations

import copy
import json
import random

EXIT_OK = 0
EXIT_TAMPERED = 2
EXIT_MALFORMED = 3

MISSING = None  # a variant whose report file does not exist


def dump(doc) -> bytes:
    """Serialize like ``certifier.emit_report`` does."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _steps_with_comparisons(doc):
    return [s for s in doc["steps"] if s["comparisons"]]


def _pick(rng: random.Random, items):
    return items[rng.randrange(len(items))]


# ---------------------------------------------------------------------------
# tampered: exit 2


def relation_flipped(doc, rng):
    cmp_ = _pick(rng, _pick(rng, _steps_with_comparisons(doc))["comparisons"])
    cmp_["relation"] = (
        "CertainlyGreater" if cmp_["relation"] != "CertainlyGreater" else "CertainlyLess"
    )
    return dump(doc)


def endpoint_moved(doc, rng):
    cmp_ = _pick(rng, _pick(rng, _steps_with_comparisons(doc))["comparisons"])
    cmp_["lhs"] = list(cmp_["rhs"])
    return dump(doc)


def verdict_failed(doc, rng):
    _pick(rng, _steps_with_comparisons(doc))["verdict"] = "Failed"
    return dump(doc)


def conclusion_removed(doc, rng):
    doc["final_conclusion"] = ""
    return dump(doc)


def dependency_missing(doc, rng):
    _pick(rng, doc["steps"])["dependencies"].append("unrecorded_step")
    return dump(doc)


# ---------------------------------------------------------------------------
# malformed: exit 3


def truncated(doc, rng):
    data = dump(doc)
    return data[: rng.randrange(1, len(data) - 2)]


def schema_version_bumped(doc, rng):
    doc["schema_version"] += 1
    return dump(doc)


def unknown_verdict(doc, rng):
    _pick(rng, doc["steps"])["verdict"] = "Plausible"
    return dump(doc)


def not_utf8(doc, rng):
    return b"\xff\xfe" + rng.randbytes(64)


def missing_file(doc, rng):
    return MISSING


# ---------------------------------------------------------------------------
# known defects


def no_steps(doc, rng):
    doc["steps"] = []
    return dump(doc)


def proved_without_comparisons(doc, rng):
    _pick(rng, _steps_with_comparisons(doc))["comparisons"] = []
    return dump(doc)


def duplicate_step(doc, rng):
    doc["steps"].append(copy.deepcopy(_pick(rng, doc["steps"])))
    return dump(doc)


def axiom_text_edited(doc, rng):
    axioms = [s for s in doc["steps"] if s["verdict"] == "Axiom"]
    _pick(rng, axioms)["claim"] = "any statement at all"
    return dump(doc)


def non_dict_step(doc, rng):
    doc["steps"].insert(rng.randrange(len(doc["steps"]) + 1), "step")
    return dump(doc)


def zero_denominator(doc, rng):
    cmp_ = _pick(rng, _pick(rng, _steps_with_comparisons(doc))["comparisons"])
    cmp_["lhs"][0] = "1/0"
    return dump(doc)


TAMPERED = (relation_flipped, endpoint_moved, verdict_failed, conclusion_removed, dependency_missing)
MALFORMED = (truncated, schema_version_bumped, unknown_verdict, not_utf8, missing_file)
FORGED = (no_steps, proved_without_comparisons, duplicate_step, axiom_text_edited)
CRASHING = (non_dict_step, zero_denominator)


def variant(kind, honest: bytes, rng: random.Random):
    """Bytes of one variant of ``honest`` (or MISSING) from a seeded rng."""
    return kind(json.loads(honest), rng)


def timed_variants(honest: bytes, rng: random.Random):
    """The variants the timed loop checks: (name, bytes or MISSING, expected exit)."""
    out = [("honest", honest, EXIT_OK)]
    for kind in rng.sample(TAMPERED, 2):
        out.append((kind.__name__, variant(kind, honest, rng), EXIT_TAMPERED))
    kind = _pick(rng, MALFORMED)
    out.append((kind.__name__, variant(kind, honest, rng), EXIT_MALFORMED))
    return out


def defect_variants(honest: bytes, rng: random.Random):
    """Known-defect probes: (name, bytes, documented exit code)."""
    out = [(k.__name__, variant(k, honest, rng), EXIT_TAMPERED) for k in FORGED]
    out += [(k.__name__, variant(k, honest, rng), EXIT_MALFORMED) for k in CRASHING]
    return out
