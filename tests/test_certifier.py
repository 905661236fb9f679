"""End-to-end tests for the certificate pipeline, serialization, and CLI."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
    assert "1568/79" in ct.emit_report(cert_by_rank[2]).decode()
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
    doc = json.loads(ct.emit_report(cert_by_rank[3]).decode())
    doc["schema_version"] = 0
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


def _rank_not_int(doc):
    doc["rank"] = "seven"


def _precision_below_16(doc):
    doc["precision_bits"] = -1


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


@pytest.mark.parametrize(
    "mutate, error",
    [
        (_no_steps, ct.TamperDetected),
        (_proved_without_comparisons, ct.TamperDetected),
        (_duplicate_step, ct.TamperDetected),
        (_axiom_text_edited, ct.TamperDetected),
        (_non_dict_step, ct.SchemaMismatch),
        (_zero_denominator, ct.SchemaMismatch),
        (_enclosure_reversed, ct.SchemaMismatch),
        (_enclosure_not_fractions, ct.SchemaMismatch),
        (_rank_not_int, ct.SchemaMismatch),
        (_precision_below_16, ct.SchemaMismatch),
        (_step_precision_differs, ct.SchemaMismatch),
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


def test_global_stage_quotients_are_exact(cert_by_rank):
    for n in (2, 3):
        steps = [
            s for s in cert_by_rank[n].steps if s.id.startswith(("quotient_", "verdict_"))
        ]
        assert steps, n
        for step in steps:
            assert all(e.is_point() for e in step.enclosures), step.id
            assert all(c.lhs.is_point() and c.rhs.is_point() for c in step.comparisons)


def test_no_proved_step_only_compares_one_with_zero(cert_by_rank):
    trivial = [(Interval.exact(1), Interval.exact(0))]
    for step in cert_by_rank[2].steps:
        if step.verdict == "Proved":
            assert [(c.lhs, c.rhs) for c in step.comparisons] != trivial, step.id


def test_data_missing():
    with pytest.raises(ct.DataMissing):
        ct.run_case(3, precision_bits=PREC, odlyzko_path="/nonexistent/table.csv")


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
    rc = cli.main(["prove", "--n", "3", "--odlyzko", "/nonexistent/t.csv"])
    assert rc == 3


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
    assert best == OdlyzkoPair(*ct.N3_WITNESS)


def test_proof_path_does_not_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the proof path ran a grid search")

    for name in ("optimize_n2", "optimize_n3", "_minimize"):
        monkeypatch.setattr(optimizer, name, forbidden)
    for n in (2, 3):
        cert = ct.run_case(n, precision_bits=PREC)
        assert cert.all_proved, n
        assert cert.step("degree_threshold").verdict == "Proved", n


def test_l35_witness_is_only_passing_row(table):
    passing = [p for p in table if all(bounds.lemma35_conditions(p, PREC).values())]
    assert passing == [OdlyzkoPair(*ct.L35_WITNESS)]


def test_high_rank_proof_has_no_rank_chain(monkeypatch):
    calls = []
    log_normalized_O = bounds.log_normalized_O

    def counted(n, *args, **kwargs):
        calls.append(n)
        return log_normalized_O(n, *args, **kwargs)

    monkeypatch.setattr(bounds, "log_normalized_O", counted)
    counts = {}
    for n in (9, 30):
        calls.clear()
        assert ct.run_case(n, precision_bits=64).all_proved, n
        counts[n] = len(calls)
    assert counts[9] == counts[30] > 0


def test_proof_above_rank_two_does_not_evaluate_hurwitz_zeta(monkeypatch):
    """zeta(2j) enters the proof only through its closed form; the Hurwitz
    series runs at rank 2 alone, for alpha(2.2) in the degree threshold."""
    calls = []
    hurwitz_point = specfun._hurwitz_point

    def counted(*args):
        calls.append(args)
        return hurwitz_point(*args)

    monkeypatch.setattr(specfun, "_hurwitz_point", counted)
    for n in (3, 4, 8, 9):
        assert ct.run_case(n, precision_bits=64).all_proved, n
        assert calls == [], n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proof_computes_no_point_far_above_its_precision(monkeypatch, n):
    """Guard bits are added once per logarithm chain, and a cache miss
    computes at the precision asked for, so no cached point is recomputed at
    a doubled working precision within one proof."""
    computed = []
    cached_point = specfun._cached_point

    def recorded(key, prec, compute):
        def run(q):
            computed.append((key[0], q))
            return compute(q)

        return cached_point(key, prec, run)

    monkeypatch.setattr(specfun, "_cached_point", recorded)
    specfun._clear_point_cache()
    try:
        assert ct.run_case(n, precision_bits=2048).all_proved
    finally:
        specfun._clear_point_cache()
    assert computed
    assert max(q for _, q in computed) <= 2048 + 128, sorted(computed, key=lambda c: -c[1])[:3]


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_report_bytes_do_not_depend_on_history(n):
    """A report at 96, 256 or 1024 bits is the same before and after a
    1500-bit run."""
    try:
        for prec in (96, 256, 1024):
            specfun._clear_point_cache()
            cold = ct.emit_report(ct.run_case(n, precision_bits=prec))
            ct.run_case(n, precision_bits=1500)
            assert ct.emit_report(ct.run_case(n, precision_bits=prec)) == cold, prec
    finally:
        specfun._clear_point_cache()


@pytest.mark.parametrize(
    "n, prec", [(n, 256) for n in range(2, 9)] + [(9, 64), (64, 64), (2, 1024), (2, 2048)]
)
def test_every_enclosure_delivers_the_requested_bits(n, prec):
    """Each recorded enclosure is narrower than 2^-(p - 16) relative to its
    magnitude, where p is the precision the report was asked for."""
    floor = prec - 16
    for step in ct.run_case(n, precision_bits=prec).steps:
        for e in step.enclosures:
            assert (e.hi - e.lo) * 2**floor <= max(abs(e.lo), abs(e.hi)), (step.id, e)


def test_rank3_cutoffs_check_their_e046_constant(monkeypatch):
    """The rank-3 cutoffs use 1.58 in place of e^0.46 = 1.5841; the step
    records that comparison, so a constant of 1.59 makes it fail."""

    def cutoff_step():
        cert = ct.run_case(3, precision_bits=PREC)
        return next(s for s in cert.steps if s.id == "discriminant_cutoffs")

    assert cutoff_step().verdict == "Proved"
    monkeypatch.setattr(bounds, "_E_046_LOWER", Fraction(159, 100))
    step = cutoff_step()
    assert step.verdict == "Failed"
    assert step.comparisons[-1].relation == "CertainlyLess"


@pytest.mark.parametrize(
    "n, witness", [(2, ct.N2_WITNESS[:2]), (3, ct.N3_WITNESS), (4, ct.L35_WITNESS)]
)
def test_missing_witness_row(tmp_path, table, n, witness):
    rows = [f"{p.A},{p.E}" for p in table if (p.A, p.E) != witness]
    assert len(rows) == len(table) - 1
    path = tmp_path / "odlyzko.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ct.DataMissing):
        ct.run_case(n, precision_bits=PREC, odlyzko_path=str(path))


def test_overlap_gives_tie_that_verifies():
    builder = ct._Builder(PREC)
    one = Interval.exact(1)
    builder.record("overlap", "claim", "anchor", [ct._less(one, one)])
    step = builder.steps[0]
    assert step.verdict == "Tie"
    cert = ct.Certificate(1, PREC, builder.steps, [], "")
    assert ct.verify_report(ct.emit_report(cert)) == "NotProved"


def test_step_without_comparisons_is_not_proved():
    builder = ct._Builder(PREC)
    builder.record("empty", "claim", "anchor", [])
    assert builder.steps[0].verdict == "Failed"
    cert = ct.Certificate(1, PREC, builder.steps, [], "")
    assert ct.verify_report(ct.emit_report(cert)) == "NotProved"


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
    except report.TamperDetected:
        print("TamperDetected")
print(sorted(name for name in sys.modules if name.startswith("covcert")))
"""


def test_report_module_verifies_alone(cert_by_rank, tmp_path):
    """report.py, copied alone and loaded by path, re-checks reports without covcert."""
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
    paths = []
    for n, cert in cert_by_rank.items():
        paths.append(tmp_path / f"rank{n}.json")
        paths[-1].write_bytes(ct.emit_report(cert))
    doc = json.loads(ct.emit_report(cert_by_rank[3]))
    _step(doc, "degree_threshold")["verdict"] = "Failed"
    paths.append(tmp_path / "tampered.json")
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
    assert out == ["Proved"] * len(cert_by_rank) + ["TamperDetected", "[]"]


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
    (["prove", "--n", "65"], "must be at most 64"),
    *(
        (["field", "2.2.5.1", "--op", "splitting", "--p", p], "must be a prime")
        for p in ("0", "1", "4", "-3")
    ),
]


@pytest.mark.parametrize(
    "argv, message", BAD_FLAGS, ids=[f"argv{i}" for i in range(len(BAD_FLAGS))]
)
def test_cli_rejects_bad_flags(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def bad_data(tmp_path):
    """Paths of inputs that are missing, malformed or incomplete."""
    (tmp_path / "malformed").write_text("1,2,3\n")
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
    (tmp_path / "no_49.catalog").write_text(
        "".join(line for line in lines if not line.startswith("3.3.49.1|"))
    )
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    (tmp_path / "latin1").write_bytes(b"\xff\xfe not UTF-8\n")
    torn = tmp_path / "torn"
    torn.mkdir()
    for name in ("fields.catalog", "odlyzko.csv"):
        (torn / name).write_bytes((vendored / name).read_bytes())
    (torn / "CHECKSUMS").write_bytes((vendored / "CHECKSUMS").read_bytes() + b"garbage\n")
    return {"tmp": str(tmp_path), "data": str(data_dir), "torn": str(torn)}


BAD_INPUT = [
    ({}, ["field", "4.4.725.1", "--op", "zeta"]),
    ({}, ["field", "2.2.5.1", "--op", "zeta", "--s", "3"]),
    ({}, ["prove", "--n", "3", "--fields", "{tmp}/malformed"]),
    ({}, ["field", "2.2.5.1", "--op", "units", "--fields", "{tmp}/malformed"]),
    ({}, ["prove", "--n", "3", "--odlyzko", "{tmp}/malformed"]),
    ({}, ["optimize", "--case", "n3", "--odlyzko", "{tmp}/malformed"]),
    ({"COVCERT_DATA_DIR": "{data}"}, ["prove", "--n", "3"]),
    ({"COVCERT_DATA_DIR": "{data}"}, ["field", "2.2.5.1", "--op", "units"]),
    ({}, ["prove", "--n", "2", "--precision", "64", "--fields", "{tmp}/no_49.catalog"]),
    ({}, ["verify", "{tmp}"]),
    ({}, ["verify", "{tmp}/deep.json"]),
    ({"COVCERT_DATA_DIR": "{torn}"}, ["prove", "--n", "3"]),
    ({}, ["prove", "--n", "3", "--fields", "{tmp}/latin1"]),
    ({}, ["prove", "--n", "3", "--odlyzko", "{tmp}/latin1"]),
    ({}, ["optimize", "--case", "n3", "--odlyzko", "{tmp}/infeasible"]),
    ({}, ["optimize", "--case", "n3", "--odlyzko", "{tmp}/comments_only"]),
]


@pytest.mark.parametrize(
    "env, argv", BAD_INPUT, ids=[f"argv{i}" for i in range(len(BAD_INPUT))]
)
def test_cli_bad_input(env, argv, bad_data, monkeypatch, capsys):
    for key, value in env.items():
        monkeypatch.setenv(key, value.format(**bad_data))
    rc = cli.main([arg.format(**bad_data) for arg in argv])
    assert rc == cli.EXIT_DATA_MISSING
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


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


def test_data_files_read_once_and_cached_by_path(bad_data, monkeypatch, opened):
    """Each load hashes and parses one read, once per path; a changed data
    directory is read afresh."""
    bounds._table_at.cache_clear()
    bounds.load_odlyzko_table()
    bounds.load_odlyzko_table()
    assert opened.count("odlyzko.csv") == 1
    numberfields.default_catalog()
    monkeypatch.setenv("COVCERT_DATA_DIR", bad_data["data"])  # its catalog fails its checksum
    opened.clear()
    with pytest.raises(numberfields.InvariantViolation):
        numberfields.default_catalog()
    assert opened.count("fields.catalog") == 1


def test_prove_all_reads_the_table_once(bad_data, opened, capsysbinary):
    """``prove --all`` reads the bound-pair table once for its seven ranks; a
    malformed table is not cached and exits 3 on every attempt."""
    bounds._table_at.cache_clear()
    assert cli.main(["prove", "--all", "--precision", str(PREC)]) == cli.EXIT_OK
    assert opened.count("odlyzko.csv") == 1
    malformed = ["prove", "--n", "3", "--odlyzko", f"{bad_data['tmp']}/malformed"]
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
results.append((cli.main(["prove", "--n", "4", "--precision", "64"]), executed()))
print(json.dumps(results))
"""


def test_verify_executes_no_layer(cert_by_rank, tmp_path):
    """``verify`` runs ``report.py`` alone: on an honest, a tampered and a
    malformed report every proof layer stays registered but unexecuted.
    ``prove`` in the same process executes every layer but the search."""
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
    assert results[:3] == [[0, []], [2, []], [3, []]]
    assert results[3] == [0, ["rigor", "specfun", "numberfields", "bounds", "localfactors",
                              "certifier"]]


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
    dataclasses, inspect, hashlib."""
    layers = ["rigor", "specfun", "numberfields", "bounds", "optimizer", "localfactors",
              "certifier", "cli"]
    probe = (
        "import sys, covcert.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('covcert.'))); "
        "print([m for m in ('dataclasses', 'inspect', 'hashlib') if m in sys.modules])"
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
