"""Acceptance gate: one test per top-level criterion, one printed line each.

Each test prints "ACCEPTANCE <k>: PASS ..." (or FAIL) so the gate can be
audited from the pytest -s output alone.  Tolerances are stated inline.
"""

import math
import random
from fractions import Fraction

import pytest

from covcert.rigor import Comparison, Interval, iv_arith, iv_compare
from covcert import bounds, certifier, localfactors, numberfields, optimizer
from covcert import specfun as sf

PREC = 160


def _report(k, ok, msg):
    line = f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {msg}"
    print(line)
    assert ok, line


def test_criterion_1_exact_reference_covolumes():
    ok = (
        bounds.psi_n_exact(2) == Fraction(1, 5760)
        and bounds.psi_n_exact(3) == Fraction(1, 2903040)
    )
    _report(1, ok, "Psi(2) = 1/5760 and Psi(3) = 1/2903040 exactly")


def test_criterion_2_alpha_enclosure():
    iv = sf.alpha_enclosure(Interval.exact(Fraction(599, 100)), PREC)
    # the enclosure must round to 15.2199 and be far tighter than 1e-3
    ok = (
        iv.subset_of(Interval(Fraction("15.21985"), Fraction("15.21995")))
        and iv.width() < Fraction(1, 1000)
    )
    _report(2, ok, f"alpha(5.99) rounds to 15.2199, width {float(iv.width()):.2e}")


def test_criterion_3_feasibility_conditions():
    good = bounds.OdlyzkoPair(Fraction("6.894"), Fraction("2.2667"))
    bad = bounds.OdlyzkoPair(Fraction(5), Fraction("2.2667"))
    good_v = bounds.lemma35_conditions(good, PREC)
    bad_v = bounds.lemma35_conditions(bad, PREC)
    ok = all(good_v.values()) and not bad_v["cond_b"]
    _report(3, ok, "(6.894, 2.2667) passes all three conditions; (5.0, 2.2667) fails (b)")


def test_criterion_4_rank3_optimization(table):
    result = optimizer.optimize_n3(table, precision_bits=PREC)
    ok = (
        abs(result.best_value.midpoint() - Fraction("3.31")) <= Fraction(2, 100)
        and result.best_pair.A == Fraction("13.047")
        and result.best_pair.E == Fraction("3.8667")
        and not result.ties
    )
    _report(4, ok, f"rank-3 minimum {float(result.best_value.midpoint()):.5f} "
                   "within 0.02 of 3.31 at (13.047, 3.8667)")


def test_criterion_5_rank2_optimization(table):
    result = optimizer.optimize_n2(table, precision_bits=PREC)
    target = Fraction("5.5535611217287")
    ok = (
        abs(result.best_value.midpoint() - target) <= Fraction(1, 10**6)
        and result.best_pair.A == Fraction("21.512")
        and result.best_pair.E == Fraction("6.0001")
        and result.best_t == Fraction("1.2")
        and result.best_value.hi < 6
        and not result.ties
    )
    _report(5, ok, "rank-2 threshold encloses 5.5535611217287 within 1e-6 at "
                   "(21.512, 6.0001, 1.2); certifies degree >= 6 exclusion")


def test_criterion_6_discriminant_bounds():
    checks = []
    for d, printed in ((2, "10.63"), (3, "60.09")):
        iv = bounds.n3_D_bound(d, PREC)
        checks.append(abs(iv.midpoint() - Fraction(printed)) <= Fraction(2, 100))
    for d, printed in ((2, "25.74"), (3, "231.65"), (4, "2084.50"), (5, "18757.18")):
        iv = bounds.n2_D_bound(d, PREC)
        checks.append(abs(iv.midpoint() - Fraction(printed)) <= Fraction(2, 100))
    rel = Fraction(1, 200)
    for n, d, printed in (
        (3, 2, "5.27732"), (3, 3, "28.087"),
        (2, 5, "3177.29"), (2, 4, "436.18"), (2, 3, "59.8788"), (2, 2, "8.22019"),
    ):
        iv = bounds.proto_D_bound(n, d, 1, PREC)
        target = Fraction(printed)
        checks.append(abs(iv.midpoint() - target) <= rel * target)
    # "59" and "8" are the integer parts of the degree-3 and degree-2 bounds
    checks.append(int(bounds.proto_D_bound(2, 3, 1, PREC).hi) == 59)
    checks.append(int(bounds.proto_D_bound(2, 2, 1, PREC).hi) == 8)
    _report(6, all(checks),
            "cutoffs 10.63/60.09 and 25.74/231.65/2084.50/18757.18 within 0.02; "
            "refined 5.27/28.087/3177/436 within 0.5% with integer parts 59 and 8")


def test_criterion_7_quotients_and_rulings(catalog):
    rel = Fraction(1, 200)
    checks = []
    for (d, D), n, printed in (
        ((3, 49), 2, "19.85"), ((2, 5), 2, "40"),
        ((2, 8), 2, "2.91"), ((2, 5), 3, "2.99"),
    ):
        fld = numberfields.field_by_discriminant(catalog, d, D)
        iv = bounds.s_lambda_quotient(fld, n, PREC)
        target = Fraction(printed)
        checks.append(abs(iv.midpoint() - target) <= rel * target)
    for (d, D), n, survives in (
        ((2, 5), 2, True), ((2, 8), 2, False),
        ((3, 49), 2, False), ((2, 5), 3, False),
    ):
        fld = numberfields.field_by_discriminant(catalog, d, D)
        index = numberfields.totally_positive_index(fld)
        adjusted = bounds.adjusted_quotient(fld, n, index, PREC)
        verdict = iv_compare(adjusted, Interval.exact(1))
        expected = (
            Comparison.CERTAINLY_GREATER if survives else Comparison.CERTAINLY_LESS
        )
        checks.append(verdict is expected)
    _report(7, all(checks),
            "quotients 19.85/40/2.91/2.99 within 0.5%; only the discriminant-5 "
            "quadratic field survives the global stage, at rank 2")


def test_criterion_8_unit_indices(catalog):
    checks = []
    for d, D in ((2, 5), (2, 8), (3, 49)):
        fld = numberfields.field_by_discriminant(catalog, d, D)
        checks.append(numberfields.totally_positive_index(fld) == 1)
    # brute-force oracle for every quadratic field: sign pattern of the
    # fundamental unit under both real embeddings
    for fld in catalog:
        if fld.degree != 2:
            continue
        norm = numberfields.pell_norm(fld.discriminant)
        expected = 1 if norm < 0 else 2
        checks.append(numberfields.totally_positive_index(fld) == expected)
    _report(8, all(checks),
            "unit index 1 for D in {5, 8} and the cubic field of discriminant 49; "
            "oracle agreement for all quadratic catalog fields")


def test_criterion_9_local_factors():
    checks = [
        localfactors.T_factor(2) == Fraction(5, 2),
        localfactors.T_factor(3) == 10,
        localfactors.eprime_special(3, 2) == 35,
        localfactors.eprime_special(2, 2) == 3,
        abs(localfactors.h_rigidity(2, 3).midpoint() - Fraction("3.69"))
        <= Fraction(2, 100),
        abs(localfactors.h_rigidity(3, 3).midpoint() - Fraction("17.75"))
        <= Fraction(2, 100),
    ]
    for q in range(2, 17):
        for n in range(2, 9):
            checks.append(
                localfactors.nonspecial_gt_two(q, n) is Comparison.CERTAINLY_GREATER
            )
    _report(9, all(checks),
            "T(2) = 5/2, T(3) = 10, eprime 35 and 3 exact; h encloses 3.69 at "
            "(2,3) and 17.75 at (3,3) (the closed form puts 17.75 at n = 3, "
            "h(3,2) itself is 160/27); nonspecial factors exceed 2 for q <= 16, "
            "n <= 8")


def test_criterion_10_pipeline():
    checks = []
    reports = {}
    for n in range(2, 9):
        cert = certifier.run_case(n, precision_bits=PREC)
        checks.append(cert.all_proved)
        checks.append(cert.final_conclusion == certifier.FINAL_CONCLUSION)
        axioms = {s.id for s in cert.steps if s.verdict == "Axiom"}
        checks.append(axioms == ({"A1", "A2", "A3", "A4", "A5"} if n == 2
                                 else {"A2", "A3", "A4", "A5"}))
        reports[n] = certifier.emit_report(cert)
    rerun = certifier.emit_report(certifier.run_case(5, precision_bits=PREC))
    checks.append(rerun == reports[5])
    checks.append(certifier.verify_report(reports[2]) == "Proved")
    _report(10, all(checks),
            "run_case(2..8) all conclude '" + certifier.FINAL_CONCLUSION + "' "
            "with every non-axiom step Proved; serialization byte-deterministic")


def test_criterion_11_property_suites():
    checks = []
    # interval inclusion-monotonicity, 10^4 randomized cases
    rng = random.Random(99)

    def rand_iv():
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        return Interval(min(a, b), max(a, b))

    mono_ok = True
    ops = ("add", "sub", "mul")
    for case in range(10_000):
        op = ops[case % 3]
        a, b = rand_iv(), rand_iv()
        aw = Interval(a.lo - 1, a.hi + 1)
        bw = Interval(b.lo - 1, b.hi + 1)
        if not iv_arith(op, a, b).subset_of(iv_arith(op, aw, bw)):
            mono_ok = False
            break
    checks.append(mono_ok)
    # refinement never widens
    cases = (
        lambda p: sf.pi_enclosure(p),
        lambda p: sf.power_product(((sf.EULER, Fraction(46, 100)),), p),
        lambda p: sf.log_power_product(((Fraction(2689, 125), 1),), p),
        lambda p: sf.sqrt_enclosure(Interval.exact(5), p),
        lambda p: sf.gamma_enclosure(Interval.exact(Fraction(11, 10)), p),
        lambda p: sf.zeta_real_enclosure(Interval.exact(Fraction(11, 5)), p),
        lambda p: sf.dirichlet_L_enclosure(5, Interval.exact(2), p),
        lambda p: sf.alpha_enclosure(Interval.exact(Fraction(22, 10)), p),
    )
    refine_ok = True
    for make in cases:
        prev = None
        for prec in (64, 128, 256):
            cur = make(prec)
            if prev is not None and not cur.subset_of(prev):
                refine_ok = False
            prev = cur
    checks.append(refine_ok)
    # Stirling brackets contain n! for n <= 100
    stirling_ok = all(
        sf.stirling_bounds(n, 96)[0].hi <= math.factorial(n)
        <= sf.stirling_bounds(n, 96)[1].lo
        for n in range(1, 101)
    )
    checks.append(stirling_ok)
    # zeta cross-consistency at even integers, j <= 10
    pi_iv = sf.pi_enclosure(PREC)
    zeta_ok = all(
        iv_compare(
            sf.zeta_real_enclosure(Interval.exact(2 * j), PREC),
            Interval.exact(sf.zeta_even_exact(j)) * pi_iv.pow_int(2 * j),
        )
        is Comparison.OVERLAP
        for j in range(1, 11)
    )
    checks.append(zeta_ok)
    _report(11, all(checks),
            "inclusion monotonicity (10^4 cases), refinement never widens, "
            "Stirling brackets for n <= 100, zeta cross-consistency j <= 10")
