"""Catalog, unit, and Dedekind zeta tests with sympy/mpmath oracles."""

import math
from fractions import Fraction

import mpmath
import pytest
import sympy

from covcert.report import Comparison, compare
from covcert.rigor import Interval
from covcert import cli, numberfields as nf
from covcert import specfun as sf

mpmath.mp.dps = 50

PREC = 160


# ---------------------------------------------------------------------------
# catalog


def test_catalog_counts_at_cutoffs(catalog):
    assert len(nf.fields_by_degree_below(catalog, 2, Fraction("25.74"))) == 7
    assert len(nf.fields_by_degree_below(catalog, 3, Fraction("231.65"))) == 5
    assert len(nf.fields_by_degree_below(catalog, 4, Fraction("2084.50"))) == 6
    assert len(nf.fields_by_degree_below(catalog, 5, Fraction("18757.18"))) == 1


def test_catalog_discriminant_sets(catalog):
    quad = sorted(f.discriminant for f in catalog if f.degree == 2)
    assert quad == [5, 8, 12, 13, 17, 21, 24]
    quartic = sorted(f.discriminant for f in catalog if f.degree == 4)
    assert quartic == [725, 1125, 1600, 1957, 2000, 2048]
    quintic = [f.discriminant for f in catalog if f.degree == 5]
    assert quintic == [14641]


def test_catalog_sorted_and_class_number_one(catalog):
    keys = [(f.degree, f.discriminant) for f in catalog]
    assert keys == sorted(keys)
    assert all(f.class_number == 1 for f in catalog)
    assert catalog[0].label == "1.1.1.1"


def test_polynomial_discriminants_against_sympy(catalog):
    """disc(defining polynomial) = D * square for every record."""
    x = sympy.symbols("x")
    for f in catalog:
        if f.degree == 1:
            continue
        poly = sum(c * x**i for i, c in enumerate(f.polynomial))
        disc = int(sympy.discriminant(poly, x))
        quotient, remainder = divmod(disc, f.discriminant)
        assert remainder == 0, f.label
        assert math.isqrt(quotient) ** 2 == quotient, f.label


def test_polynomials_totally_real_against_sympy(catalog):
    x = sympy.symbols("x")
    for f in catalog:
        if f.degree == 1:
            continue
        poly = sum(c * x**i for i, c in enumerate(f.polynomial))
        roots = sympy.Poly(poly, x).all_roots()
        assert len(roots) == f.degree
        assert all(r.is_real for r in roots), f.label


def test_load_catalog_errors():
    with pytest.raises(nf.MalformedCatalog):
        nf.load_catalog(b"bad|line")
    with pytest.raises(nf.MalformedCatalog):
        nf.load_catalog(b"a|2|5|x|1,1,1")
    with pytest.raises(nf.InvariantViolation):
        nf.load_catalog(b"a|2|5|1|-1,-1,2")  # non-monic
    with pytest.raises(nf.InvariantViolation):
        nf.load_catalog(b"a|2|5|1|1,0,1")  # not totally real
    with pytest.raises(nf.InvariantViolation, match="not totally real"):
        nf.load_catalog(b"5.1.1.1|5|1|1|1,-5,0,0,0,1")  # a quintic with three real roots
    with pytest.raises(nf.InvariantViolation):
        nf.load_catalog(b"a|1|5|1|0,1")  # rational field invariants
    with pytest.raises(nf.InvariantViolation, match="discriminant 3136"):
        # 8 f(x/2) for the cubic of 3.3.49.1: the same field, index 8
        nf.load_catalog(b"3.3.49.1|3|49|1|-8,-8,2,1")
    with pytest.raises(nf.MalformedCatalog, match="line 3: label 2.2.5.1 is repeated"):
        nf.load_catalog(b"2.2.5.1|2|5|1|-1,-1,1\n2.2.8.1|2|8|1|-2,0,1\n2.2.5.1|2|5|1|-1,-1,1")
    # the same field under another label: its polynomial, or at degree 2 its discriminant
    with pytest.raises(nf.MalformedCatalog, match="line 2: polynomial -1,-3,0,1 is repeated"):
        nf.load_catalog(b"3.3.81.1|3|81|1|-1,-3,0,1\n3.3.81.2|3|81|1|-1,-3,0,1")
    with pytest.raises(nf.MalformedCatalog, match="line 2: quadratic discriminant 5 is repeated"):
        nf.load_catalog(b"2.2.5.1|2|5|1|-1,-1,1\n2.2.5.2|2|5|1|-5,0,1")


def test_load_catalog_checks_quadratic_discriminants(catalog):
    """A quadratic record's D is no square, and its polynomial's discriminant
    b^2 - 4c is D times a square, as the catalog's header states."""
    for record in (
        b"2.2.4.1|2|4|1|-1,0,1",  # x^2 - 1: reducible, and 4 a square
        b"2.2.1.1|2|1|1|-1,0,1",  # D a square again, then negative
        b"2.2.0.1|2|0|1|-1,0,1",
        b"2.2.-4.1|2|-4|1|-1,0,1",
        b"2.2.5.1|2|5|1|-2,0,1",  # x^2 - 2, of discriminant 8
        b"2.2.5.1|2|5|1|-3,-1,1",  # x^2 - x - 3, of discriminant 13
    ):
        with pytest.raises(nf.InvariantViolation, match="times a square"):
            nf.load_catalog(record)
    # x^2 - 5, of discriminant 20 = 5 * 2^2, defines the field of 2.2.5.1
    assert nf.load_catalog(b"2.2.5.1|2|5|1|-5,0,1")[0].discriminant == 5
    quadratics = [f for f in catalog if f.degree == 2]
    assert len(quadratics) == 7
    assert all(f.polynomial[1] ** 2 - 4 * f.polynomial[0] == f.discriminant for f in quadratics)


def test_checksum_detects_corruption(tmp_path):
    data = tmp_path / "fields.catalog"
    data.write_text("1.1.1.1|1|1|1|0,1\n")
    (tmp_path / "CHECKSUMS").write_text("0" * 64 + "  fields.catalog\n")
    with pytest.raises(nf.InvariantViolation):
        nf.default_catalog(str(data))


def test_field_lookup(catalog):
    assert nf.field_by_label(catalog, "2.2.5.1").discriminant == 5
    assert nf.field_by_discriminant(catalog, 3, 49).label == "3.3.49.1"
    with pytest.raises(nf.UnsupportedField):
        nf.field_by_label(catalog, "9.9.9.9")
    with pytest.raises(nf.UnsupportedField):
        nf.field_by_discriminant(catalog, 2, 7)


# ---------------------------------------------------------------------------
# units


def _pell_brute_force(D, b_max=50):
    for b in range(1, b_max):
        for target in (D * b * b - 4, D * b * b + 4):
            if target > 0:
                a = math.isqrt(target)
                if a * a == target:
                    return (a, b)
    raise AssertionError("no Pell solution found")


@pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 21, 24])
def test_pell_minimality_oracle(D):
    a, b = nf.pell_fundamental_unit(D)
    assert a * a - D * b * b in (4, -4)
    assert (a, b) == _pell_brute_force(D)
    # no smaller b admits a solution
    for smaller in range(1, b):
        for target in (D * smaller**2 - 4, D * smaller**2 + 4):
            assert target <= 0 or math.isqrt(target) ** 2 != target


def test_pell_examples():
    assert nf.pell_fundamental_unit(5) == (1, 1)
    assert nf.pell_fundamental_unit(8) == (2, 1)
    assert nf.pell_fundamental_unit(12) == (4, 1)


def _tp_index_brute_force(D, prec=PREC):
    """Count totally positive classes among {+-eps^a} via certified signs."""
    a, b = nf.pell_fundamental_unit(D)
    sqrt_D = sf.sqrt_enclosure(Interval.exact(D), prec)
    eps = (Interval.exact(a) + Interval.exact(b) * sqrt_D) * Interval.exact(
        Fraction(1, 2)
    )
    conj = (Interval.exact(a) - Interval.exact(b) * sqrt_D) * Interval.exact(
        Fraction(1, 2)
    )
    count = 0
    for sign in (1, -1):
        for power in (0, 1):
            emb1 = Interval.exact(sign) * (eps.pow_int(power) if power else Interval.exact(1))
            emb2 = Interval.exact(sign) * (conj.pow_int(power) if power else Interval.exact(1))
            if emb1.lo > 0 and emb2.lo > 0:
                count += 1
    return count


@pytest.mark.parametrize("D", [5, 8, 12, 13, 17, 21, 24])
def test_totally_positive_index_oracle(catalog, D):
    field = nf.field_by_discriminant(catalog, 2, D)
    assert nf.totally_positive_index(field) == _tp_index_brute_force(D)


def test_totally_positive_index_examples(catalog):
    assert nf.totally_positive_index(nf.field_by_discriminant(catalog, 2, 5)) == 1
    assert nf.totally_positive_index(nf.field_by_discriminant(catalog, 2, 8)) == 1
    assert nf.totally_positive_index(nf.field_by_discriminant(catalog, 3, 49)) == 1
    assert nf.totally_positive_index(catalog[0]) == 1
    with pytest.raises(nf.UnsupportedField):
        nf.totally_positive_index(nf.field_by_discriminant(catalog, 4, 725))


def test_cubic_unit_signs_against_mpmath():
    """eps1 = alpha, eps2 = alpha^2 - 1 at the three real embeddings."""
    signs = nf._cubic49_unit_signs()
    roots = sorted(float(r) for r in mpmath.polyroots([1, 1, -2, -1]))
    expected = [
        (1 if r > 0 else -1, 1 if r * r - 1 > 0 else -1) for r in roots
    ]
    assert signs == expected


# x^4 + x - 3, x^4 + 3x + 3 and x^4 + 3x - 5: p' leaves a remainder of degree
# 1, so the next pseudo-remainder scales by |lc|^3, an odd power whose sign
# matters; x^5 - 5x + 1 is a quintic with three real roots
_NOT_TOTALLY_REAL = [(-3, 1, 0, 0, 1), (3, 3, 0, 0, 1), (-5, 3, 0, 0, 1), (1, -5, 0, 0, 0, 1)]


def test_sturm_counts_in_intervals_against_sympy(catalog):
    """Roots in (a, b] from Sturm sign changes, against sympy's exact real roots."""
    x = sympy.symbols("x")
    cuts = [-5, -2, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, Fraction(3, 2), 2, 5]
    for poly in [f.polynomial for f in catalog] + _NOT_TOTALLY_REAL:
        chain = nf.sturm_chain(poly)
        roots = sympy.Poly(list(reversed(poly)), x).real_roots()
        above = {c: sum(1 for r in roots if r > c) for c in cuts}  # roots in (c, inf)
        for i, a in enumerate(cuts):
            for b in cuts[i + 1:]:
                expected = above[a] - above[b]
                count = nf.sign_changes(chain, a) - nf.sign_changes(chain, b)
                assert count == expected, (poly, a, b)
        assert nf.sturm_real_root_count(poly) == len(roots), poly
    assert all(nf.sturm_real_root_count(f.polynomial) == f.degree for f in catalog)
    assert nf.sturm_real_root_count((1, 0, 1)) == 0  # x^2 + 1
    assert nf.sturm_real_root_count((-2, 0, 1)) == 2  # x^2 - 2


# ---------------------------------------------------------------------------
# splitting and p-adic squares


def test_splitting_examples(catalog):
    f5 = nf.field_by_discriminant(catalog, 2, 5)
    assert nf.splitting_type(f5, 2) == nf.SplittingResult("inert", (4,))
    assert nf.splitting_type(f5, 3) == nf.SplittingResult("inert", (9,))
    assert nf.splitting_type(f5, 5) == nf.SplittingResult("ramified", (5,))
    assert nf.splitting_type(f5, 11).kind == "split"


def test_cubic_splitting_galois_oracle(catalog):
    """The degree-49 field is cyclic: p splits iff p = +-1 mod 7."""
    f49 = nf.field_by_discriminant(catalog, 3, 49)
    for p in (2, 3, 5, 11, 13, 29, 41, 43, 97):
        result = nf.splitting_type(f49, p)
        if p == 7:
            continue
        if p % 7 in (1, 6):
            assert result == nf.SplittingResult("split", (p, p, p)), p
        else:
            assert result == nf.SplittingResult("inert", (p**3,)), p
    assert nf.splitting_type(f49, 7) == nf.SplittingResult("ramified", (7,))


def test_cubic_splitting_against_sympy_factoring(catalog):
    """Distinct factor degrees mod p against sympy, ramified and large primes included."""
    x = sympy.symbols("x")
    for f in catalog:
        if f.degree != 3:
            continue
        poly = sum(c * x**i for i, c in enumerate(f.polynomial))
        primes = set(sympy.primerange(2, 200)) | set(sympy.primefactors(f.discriminant))
        primes |= {2**31 - 1, 4294967291}  # the largest primes below 2^31 and 2^32
        for p in sorted(primes):
            _, factors = sympy.Poly(poly, x, modulus=p).factor_list()
            expected = tuple(sorted(g.degree() for g, _ in factors))
            assert nf._cubic_splitting_degrees(f.polynomial, f.discriminant, p) == expected, (
                f.label, p,
            )


def test_splitting_consistent_with_padic_squares(catalog):
    """At unramified p: quadratic field inert iff D is not a p-adic square."""
    for f in catalog:
        if f.degree != 2:
            continue
        for p in (2, 3, 5, 7, 11, 13):
            if f.discriminant % p == 0:
                continue
            split = nf.splitting_type(f, p)
            is_square = nf.padic_square_test(f.discriminant, p)
            assert (split.kind == "inert") == (not is_square), (f.label, p)


def test_padic_square_examples():
    assert not nf.padic_square_test(5, 2)  # 5 = 5 mod 8
    assert not nf.padic_square_test(5, 3)  # quadratic non-residue
    assert nf.padic_square_test(17, 2)  # 17 = 1 mod 8
    assert nf.padic_square_test(4, 3)
    assert not nf.padic_square_test(12, 2)  # odd valuation
    with pytest.raises(ValueError):
        nf.padic_square_test(0, 2)


# ---------------------------------------------------------------------------
# Dedekind zeta


def test_zeta_Q_is_riemann(catalog):
    iv = nf.dedekind_zeta_enclosure(catalog[0], 2, PREC)
    exact = Interval.exact(sf.zeta_even_exact(1)) * sf.pi_enclosure(PREC).pow_int(2)
    assert compare(iv, exact) is Comparison.OVERLAP


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def test_zeta_quadratic_oracle(catalog):
    """zeta_K(2j) = r pi^(4j) / sqrt(D) against zeta(2j) L(2j, chi_D) at 60 digits.

    L(s, chi_D) = D^(-s) sum_a chi_D(a) zeta(s, a/D) via Hurwitz zeta.
    """
    for D in (5, 8):
        field = nf.field_by_discriminant(catalog, 2, D)
        for j in (1, 2, 3):
            s = 2 * j
            with mpmath.workdps(60):
                L = sum(
                    sympy.kronecker_symbol(D, a) * mpmath.zeta(s, mpmath.mpf(a) / D)
                    for a in range(1, D)
                ) / mpmath.mpf(D) ** s
                oracle = mpmath.zeta(s) * L
                r = nf.dedekind_zeta_exact_coeff(field, j)
                value = _mp(r) * mpmath.pi ** (2 * s) / mpmath.sqrt(D)
                assert abs(value - oracle) < mpmath.mpf(10) ** -58 * oracle, (D, j)
                iv = nf.dedekind_zeta_enclosure(field, s, PREC)
                assert _mp(iv.lo) <= oracle <= _mp(iv.hi), (D, j)


def test_zeta_quadratic_closed_form_inside_series(catalog):
    """The closed form lies inside the independent Hurwitz-series product.

    The series delivers its requested bits, so the closed form it must hold
    is taken at four times the precision."""
    for D in (5, 8):
        field = nf.field_by_discriminant(catalog, 2, D)
        for s in (2, 4, 6):
            series = sf.zeta_real_enclosure(Interval.exact(s), PREC) * sf.dirichlet_L_enclosure(
                D, Interval.exact(s), PREC
            )
            assert series.width() < series.lo / 2 ** (PREC - 16), (D, s)
            assert nf.dedekind_zeta_enclosure(field, s, 4 * PREC).subset_of(series), (D, s)


# What `covcert field <label> --op zeta --s <s>` printed for every supported
# field when zeta_K was enclosed by interval arithmetic on pi and sqrt(D_K),
# before it became one factor table.
_FIELD_ZETA_PRINTED = {
    "1.1.1.1": ("1.64493406684823", "1.08232323371114", "1.01734306198445"),
    "2.2.5.1": ("1.16167119561864", "1.00584297996084", "1.00031128028365"),
    "2.2.8.1": ("1.43497143373668", "1.06775825918094", "1.01589230224518"),
    "2.2.12.1": ("1.56219902583328", "1.08023608141184", "1.01727003488684"),
    "2.2.13.1": ("1.38545748488929", "1.02925140665623", "1.00299432365114"),
    "2.2.17.1": ("1.85295488456101", "1.13806700381641", "1.03200044550816"),
    "2.2.21.1": ("1.34961310065052", "1.02018373135904", "1.00175498106972"),
    "2.2.24.1": ("1.6569622870946", "1.08349363834298", "1.01739872985315"),
    "3.3.49.1": ("1.06776531286998", "1.0007744256233", "1.00001294498315"),
}


def _mp_zeta_K(field, s):
    """zeta_K(s) as the product of mpmath's L(s, chi) over the characters of
    K: the trivial one, chi_D for a quadratic K, and the two cubic
    characters mod 7 for 3.3.49.1 (3 generates (Z/7)^*)."""
    if field.degree == 1:
        characters = [[1]]
    elif field.degree == 2:
        D = field.discriminant
        # chi_D has period D and takes k >= 1, so chi_D(0) is read as chi_D(D)
        characters = [[1], [sf.dirichlet_character(D, k or D) for k in range(D)]]
    else:
        log3 = {pow(3, e, 7): e for e in range(6)}
        omega = mpmath.exp(2j * mpmath.pi / 3)
        chi = [0] + [omega ** log3[k] for k in range(1, 7)]
        characters = [[1], chi, [mpmath.conj(c) for c in chi]]
    return mpmath.re(mpmath.fprod(mpmath.dirichlet(s, chi) for chi in characters))


@pytest.mark.parametrize("label", list(_FIELD_ZETA_PRINTED))
def test_field_zeta_command_output_is_pinned(catalog, capsys, label):
    """The field command prints the line it printed before zeta_K became one
    factor table, for every supported field and s = 2, 4, 6, and that line
    holds mpmath's zeta_K(s) to the 15 digits it prints."""
    field = nf.field_by_label(catalog, label)
    for s, printed in zip((2, 4, 6), _FIELD_ZETA_PRINTED[label]):
        assert cli.main(["field", label, "--op", "zeta", "--s", str(s)]) == cli.EXIT_OK
        assert capsys.readouterr().out == f"zeta_{label}({s}) in [{printed}, {printed}]\n"
        with mpmath.workdps(30):
            value = _mp_zeta_K(field, s)
            assert abs(mpmath.mpf(printed) - value) <= mpmath.mpf(10) ** -14 * value, (label, s)


def test_zeta_cubic_euler_vs_galois_shortcut(catalog):
    """Euler product over factorization degrees vs the cyclic splitting law."""
    f49 = nf.field_by_discriminant(catalog, 3, 49)
    iv = nf.dedekind_zeta_enclosure(f49, 2, PREC)
    product = mpmath.mpf(1)
    P = 100_000
    for p in sympy.primerange(2, P):
        if p == 7:
            product /= 1 - mpmath.mpf(p) ** -2
        elif p % 7 in (1, 6):
            product /= (1 - mpmath.mpf(p) ** -2) ** 3
        else:
            product /= 1 - mpmath.mpf(p) ** -6
    lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
    hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
    # the truncated oracle product is a lower bound for the full product
    assert lo <= product * mpmath.exp(6 * mpmath.mpf(P) ** -1)
    assert product <= hi


@pytest.mark.parametrize(
    "j, q",
    [
        (1, Fraction(8, 7203)),
        (2, Fraction(2528, 2334744405)),
        (3, Fraction(473152, 420429098730375)),
    ],
)
def test_zeta_cubic_exact_coeff_oracle(catalog, j, q):
    """zeta_K(2j) = q pi^(6j) against zeta(2j) |L(2j, chi)|^2 at 60 digits.

    chi is the cubic character mod 7 with chi(3^e) = w^e, and
    L(s, chi) = 7^(-s) sum_a chi(a) zeta(s, a/7) via Hurwitz zeta.
    """
    f49 = nf.field_by_discriminant(catalog, 3, 49)
    assert nf.dedekind_zeta_exact_coeff(f49, j) == 7 * q
    s = 2 * j
    with mpmath.workdps(60):
        w = mpmath.exp(2j * mpmath.pi / 3)
        L = sum(
            w**e * mpmath.zeta(s, mpmath.mpf(pow(3, e, 7)) / 7) for e in range(6)
        ) / mpmath.mpf(7) ** s
        oracle = mpmath.zeta(s) * abs(L) ** 2
        value = mpmath.mpf(q.numerator) / q.denominator * mpmath.pi ** (6 * j)
        assert abs(value - oracle) < mpmath.mpf(10) ** -58 * oracle
        iv = nf.dedekind_zeta_enclosure(f49, s, PREC)
        lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
        hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
        assert lo <= oracle <= hi
        assert hi - lo < mpmath.mpf(2) ** -(PREC - 8)


def test_zeta_unsupported_cases(catalog):
    with pytest.raises(nf.UnsupportedArgument):
        nf.dedekind_zeta_enclosure(catalog[0], 3, PREC)
    with pytest.raises(nf.UnsupportedField):
        nf.dedekind_zeta_enclosure(
            nf.field_by_discriminant(catalog, 4, 725), 2, PREC
        )
    for label in ("3.3.81.1", "4.4.725.1"):
        with pytest.raises(nf.UnsupportedField):
            nf.dedekind_zeta_exact_coeff(nf.field_by_label(catalog, label), 1)
