"""Totally real number field records and their certified arithmetic data.

Covers the candidate field catalog (a vendored snapshot with checksums),
fundamental units from Pell's equation, totally-positive unit indices from
exact Sturm counts of the roots between -1, 0 and 1, Dedekind zeta
enclosures, and prime splitting data from one F_p route, the degree of
gcd(x^p - x, f mod p), for every prime.  ``load_data_file`` alone reads a
data file, the catalog and ``bounds``' table alike.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Type, TypeVar,
)

# CPython's builtin SHA-256, which hashlib itself falls back to.  It loads
# in about 0.5 ms; ``import hashlib`` loads OpenSSL's ``_hashlib`` and takes
# about 5 ms (Python 3.11, 2-core Xeon virtual machine)
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256

from .report import InputError
from .rigor import Interval
from . import specfun
from .specfun import PI, dirichlet_L_even_coeff, power_product, zeta_even_exact

T = TypeVar("T")


class DataMissing(FileNotFoundError):
    """A required data file is absent."""


class MalformedCatalog(InputError):
    """Catalog stream does not parse."""


class InvariantViolation(InputError):
    """A catalog record violates a structural invariant."""


class UnsupportedField(InputError):
    """Operation requested for a field outside its supported set."""


class UnsupportedArgument(InputError):
    """Zeta argument outside the supported set."""


# ---------------------------------------------------------------------------
# polynomials with integer coefficients (ascending)


def poly_eval(coeffs: Sequence[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs: Sequence[int]) -> List[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _poly_trim(p: List[int]) -> List[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """|lc(b)|^(deg a - deg b + 1) rem(a, b), with integer coefficients.

    Every quotient coefficient of the scaled division is an integer (the
    pseudo-division theorem), so each step's floor division is exact.
    """
    lc = b[-1]
    r = [c * abs(lc) ** (len(a) - len(b) + 1) for c in a]
    while len(r) >= len(b):
        q = r[-1] // lc
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        _poly_trim(r)
    return r


def sturm_chain(coeffs: Sequence[int]) -> List[List[int]]:
    """Sturm chain of a squarefree integer polynomial, in integers.

    The entries are p, p' and then -prem(p_{i-1}, p_i) divided by its
    content.  Each is a positive multiple of the rational chain p, p',
    -rem(p, p'), ..., so every sign, and every sign count, is the same.
    """
    p0 = _poly_trim(list(coeffs))
    chain = [p0, _poly_trim(poly_derivative(p0))]
    while chain[-1]:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        content = math.gcd(*rem)
        chain.append([-c // content for c in rem])
    return chain


def sign_changes(chain: Sequence[Sequence[int]], at) -> int:
    """Sign changes along a Sturm chain at a rational point or at +-math.inf.

    For a < b, sign_changes(chain, a) - sign_changes(chain, b) is the number
    of distinct real roots in (a, b] (Sturm's theorem).
    """
    if at in (math.inf, -math.inf):
        # the sign of the leading coefficient, flipped at -inf for odd degree
        values = [p[-1] if at > 0 or len(p) % 2 else -p[-1] for p in chain if p]
    else:
        values = [poly_eval(p, at) for p in chain if p]
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_real_root_count(coeffs: Sequence[int]) -> int:
    """Number of distinct real roots of a squarefree integer polynomial."""
    chain = sturm_chain(coeffs)
    return sign_changes(chain, -math.inf) - sign_changes(chain, math.inf)


# ---------------------------------------------------------------------------
# field records and the catalog


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _cubic_discriminant(polynomial: Sequence[int]) -> int:
    """Discriminant of x^3 + b x^2 + c x + d, from ascending coefficients."""
    d, c, b, _ = polynomial
    return b * b * c * c - 4 * c**3 - 4 * b**3 * d - 27 * d * d + 18 * b * c * d


class _FieldRecordFields(NamedTuple):
    label: str
    degree: int
    discriminant: int
    class_number: int
    polynomial: Tuple[int, ...]  # ascending, monic


class NumberFieldRecord(_FieldRecordFields):
    __slots__ = ()

    def __new__(
        cls, label, degree, discriminant, class_number, polynomial
    ) -> "NumberFieldRecord":
        if polynomial[-1] != 1:
            raise InvariantViolation(f"{label}: polynomial is not monic")
        if len(polynomial) - 1 != degree:
            raise InvariantViolation(f"{label}: degree mismatch")
        if degree == 1 and (discriminant != 1 or class_number != 1):
            raise InvariantViolation(f"{label}: rational field invariants")
        if degree > 1:
            if sturm_real_root_count(polynomial) != degree:
                raise InvariantViolation(f"{label}: not totally real")
        if degree == 2:
            # D is no square (x^2 - 1 passes the Sturm check, and Pell's equation
            # for D = 4 has no solution to find), and disc(poly) = D * square
            c, b, _ = polynomial
            poly_disc = b * b - 4 * c
            if (_is_square(discriminant) or poly_disc % discriminant
                    or not _is_square(poly_disc // discriminant)):
                raise InvariantViolation(
                    f"{label}: polynomial discriminant {poly_disc} is not the "
                    f"non-square field discriminant {discriminant} times a square"
                )
        if degree == 3:
            # the splitting law reads ramified primes assuming index 1
            poly_disc = _cubic_discriminant(polynomial)
            if poly_disc != discriminant:
                raise InvariantViolation(
                    f"{label}: polynomial discriminant {poly_disc} "
                    f"is not the field discriminant {discriminant}"
                )
        return super().__new__(cls, label, degree, discriminant, class_number, polynomial)


def data_fields(
    data: bytes, sep: Optional[str], count: int, error: Type[ValueError]
) -> Iterator[Tuple[int, List[str]]]:
    """(line number, fields) of each non-blank, non-comment line of a UTF-8 data file.

    A line is split on ``sep`` (on whitespace if None).  Bytes that are not
    UTF-8, or a line without exactly ``count`` fields, raise ``error``.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(sep)
        if len(fields) != count:
            raise error(f"line {lineno}: expected {count} fields, got {line!r}")
        yield lineno, fields


def load_catalog(data: bytes) -> Tuple[NumberFieldRecord, ...]:
    """Parse the line-delimited catalog: label|d_K|D_K|h_K|poly_coeffs(csv).
    A repeated field would be counted twice, so a label and a defining
    polynomial appear once, and so does a quadratic discriminant, which
    determines its field.  Isomorphic fields of higher degree with other
    polynomials are not detected."""
    records, seen = [], set()
    for lineno, fields in data_fields(data, "|", 5, MalformedCatalog):
        label = fields[0].strip()
        try:
            d, D, h = (int(f) for f in fields[1:4])
            coeffs = tuple(int(c) for c in fields[4].split(","))
        except ValueError as exc:
            raise MalformedCatalog(f"line {lineno}: {exc}") from exc
        record = NumberFieldRecord(label, d, D, h, coeffs)
        keys = [("label", label), ("polynomial", ",".join(map(str, coeffs)))]
        if d == 2:
            keys.append(("quadratic discriminant", D))
        for key in keys:
            if key in seen:
                raise MalformedCatalog(f"line {lineno}: {key[0]} {key[1]} is repeated")
            seen.add(key)
        records.append(record)
    return tuple(sorted(records, key=lambda r: (r.degree, r.discriminant)))


# the vendored data files; ``--fields`` and ``--odlyzko`` name any others
DATA_DIR = Path(__file__).parent / "data"


def _manifest_digests(manifest: Path) -> Dict[str, str]:
    """File name -> SHA-256 hex digest, from lines 'digest name' of CHECKSUMS."""
    lines = data_fields(manifest.read_bytes(), None, 2, InvariantViolation)
    return {name: digest for _, (digest, name) in lines}


def read_data_file(path: Path) -> bytes:
    """The bytes of a data file, checked against its entry in CHECKSUMS beside it.

    The file is read once, so the bytes hashed are the bytes the caller
    parses.  A file with no manifest, or no entry in it, is not checked.
    """
    data = path.read_bytes()
    manifest = path.parent / "CHECKSUMS"
    expected = _manifest_digests(manifest).get(path.name) if manifest.exists() else None
    if expected is not None and sha256(data).hexdigest() != expected:
        raise InvariantViolation(f"checksum mismatch for {path.name}")
    return data


def load_data_file(name: str, path: Optional[str], parse: Callable[[bytes], T]) -> T:
    """``parse`` of the checked bytes at ``path``, or of the vendored ``name``
    if None.  An empty path is an ``InputError``, a missing file ``DataMissing``.
    Results, not errors, are cached by parser and resolved path."""
    if path == "":
        raise InputError(f"{name}: an empty path names no file")
    resolved = (DATA_DIR / name if path is None else Path(path)).resolve()
    try:
        return _parsed(parse, resolved)
    except FileNotFoundError as exc:
        raise DataMissing(f"{name}: no file at {resolved}") from exc


@lru_cache(maxsize=8)
def _parsed(parse: Callable[[bytes], T], path: Path) -> T:
    return parse(read_data_file(path))


def default_catalog(path: Optional[str] = None) -> Tuple[NumberFieldRecord, ...]:
    """The catalog at ``path``, by default the vendored ``fields.catalog``."""
    return load_data_file("fields.catalog", path, load_catalog)


def fields_by_degree_below(
    catalog: Iterable[NumberFieldRecord], degree: int, bound: Fraction
) -> List[NumberFieldRecord]:
    return [f for f in catalog if f.degree == degree and f.discriminant < bound]


def field_by_label(catalog: Iterable[NumberFieldRecord], label: str) -> NumberFieldRecord:
    for f in catalog:
        if f.label == label:
            return f
    raise UnsupportedField(f"no field labelled {label!r:.80}")


def field_by_discriminant(
    catalog: Iterable[NumberFieldRecord], degree: int, discriminant: int
) -> NumberFieldRecord:
    for f in catalog:
        if f.degree == degree and f.discriminant == discriminant:
            return f
    raise UnsupportedField(f"no field with (d, D) = ({degree}, {discriminant})")


# ---------------------------------------------------------------------------
# units


def pell_fundamental_unit(D: int) -> Tuple[int, int]:
    """Minimal positive (a, b) with a^2 - D b^2 = +-4, searched ascending in b."""
    b = 1
    while True:
        for target in (D * b * b - 4, D * b * b + 4):
            if target > 0:
                a = math.isqrt(target)
                if a * a == target:
                    return (a, b)
        b += 1


def pell_norm(D: int) -> int:
    a, b = pell_fundamental_unit(D)
    return a * a - D * b * b


_CUBIC_49_POLY = (-1, -2, 1, 1)  # x^3 + x^2 - 2x - 1


def _cubic49_unit_signs() -> List[Tuple[int, int]]:
    """Signs of the fundamental units at each real embedding, roots ascending.

    The units are eps1 = alpha and eps2 = alpha^2 - 1 where alpha runs over
    the three real roots of the defining cubic.  Both signs are constant on
    each of (-inf, -1), (-1, 0), (0, 1) and (1, inf), so exact Sturm counts of
    the roots in these intervals give them.
    """
    cuts = (-1, 0, 1)
    if any(poly_eval(_CUBIC_49_POLY, c) == 0 for c in cuts):
        raise InvariantViolation("the cubic vanishes at -1, 0 or 1")
    ends = (-math.inf, *cuts, math.inf)
    chain = sturm_chain(_CUBIC_49_POLY)
    changes = [sign_changes(chain, at) for at in ends]
    signs = []
    for lo, hi, v_lo, v_hi in zip(ends, ends[1:], changes, changes[1:]):
        eps1 = 1 if lo >= 0 else -1
        eps2 = 1 if hi <= -1 or lo >= 1 else -1
        signs += [(eps1, eps2)] * (v_lo - v_hi)
    if len(signs) != 3:
        raise InvariantViolation(f"Sturm counts found {len(signs)} real roots, not 3")
    return signs


def totally_positive_index(field: NumberFieldRecord) -> int:
    """Index [U_K^+ : U_K^2] of squares inside the totally positive units."""
    if field.degree == 1:
        return 1
    if field.degree == 2:
        # norm -4 branch: the fundamental unit has a negative conjugate, so
        # no class other than the trivial one is totally positive
        return 1 if pell_norm(field.discriminant) == -4 else 2
    if field.degree == 3 and field.discriminant == 49:
        signs = _cubic49_unit_signs()
        count = 0
        for unit_sign in (1, -1):
            for l1 in (0, 1):
                for l2 in (0, 1):
                    if all(
                        unit_sign * s1**l1 * s2**l2 > 0 for s1, s2 in signs
                    ):
                        count += 1
        return count
    raise UnsupportedField(f"unit index not supported for {field.label}")


# ---------------------------------------------------------------------------
# prime splitting


class SplittingResult(NamedTuple):
    kind: str  # split, inert, ramified
    residue_cardinalities: Tuple[int, ...]


def splitting_type(field: NumberFieldRecord, p: int) -> SplittingResult:
    if field.degree == 2:
        D = field.discriminant
        if D % p == 0:
            return SplittingResult("ramified", (p,))
        symbol = specfun.kronecker_symbol(D, p)
        if symbol == 1:
            return SplittingResult("split", (p, p))
        return SplittingResult("inert", (p * p,))
    if field.degree == 3:
        degrees = _cubic_splitting_degrees(field.polynomial, field.discriminant, p)
        cards = tuple(sorted(p**g for g in degrees))
        if field.discriminant % p == 0:
            kind = "ramified"
        elif len(cards) == 3:
            kind = "split"
        else:
            kind = "inert"
        return SplittingResult(kind, cards)
    raise UnsupportedField(f"splitting not supported for {field.label}")


def padic_square_test(x: int, p: int) -> bool:
    """Whether x is a square in the field of p-adic numbers."""
    if x == 0:
        raise ValueError("x must be nonzero")
    n = 0
    u = x
    while u % p == 0:
        u //= p
        n += 1
    if n % 2 == 1:
        return False
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


# ---------------------------------------------------------------------------
# Dedekind zeta enclosures


def _rem_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """rem(a, b) over F_p up to a unit factor, trimmed, for b whose leading
    coefficient is a unit mod p: the pseudo-remainder reduced mod p."""
    r = _pseudo_rem(a, b) if len(a) >= len(b) else a
    return _poly_trim([c % p for c in r])


def _xp_mod(f: Sequence[int], p: int) -> List[int]:
    """x^p modulo the monic cubic f, over F_p, by square and multiply."""
    result: List[int] = [1]
    for bit in bin(p)[2:]:
        square = [0] * (2 * len(result) - 1)
        for i, ci in enumerate(result):
            for j, cj in enumerate(result):
                square[i + j] += ci * cj
        result = _rem_mod_p([0] + square if bit == "1" else square, f, p)
    return result


def _cubic_splitting_degrees(poly: Tuple[int, ...], disc: int, p: int) -> Tuple[int, ...]:
    """Degrees of the distinct irreducible factors of the cubic mod p.

    r = deg gcd(x^p - x, f) over F_p counts the distinct roots of f mod p
    (Cohen, GTM 138, 3.4).  For p not dividing the discriminant f is
    squarefree mod p.  A p dividing it ramifies, so for a defining
    polynomial of index prime to p, f is (x - a)^3 when r = 1 and
    (x - a)^2 (x - b) when r = 2.
    """
    g = _xp_mod(poly, p) + [0, 0]
    g[1] -= 1  # x^p - x
    a, b = poly, _rem_mod_p(g, poly, p)
    while b:  # Euclid over F_p: a ends as gcd(x^p - x, f)
        a, b = b, _rem_mod_p(a, b, p)
    r = len(a) - 1
    if disc % p == 0:
        shapes = {1: (1,), 2: (1, 1)}
    else:
        shapes = {0: (3,), 1: (1, 2), 3: (1, 1, 1)}
    if r not in shapes:
        raise InvariantViolation(f"unexpected root count {r} for the cubic mod {p}")
    return shapes[r]


_CUBIC_49_CONDUCTOR = 7
_CUBIC_49_GENERATOR = 3  # a primitive root mod 7


def _cubic49_L_norm(j: int) -> Fraction:
    """Exact rational q with |L(2j, chi)|^2 = q * pi^(4j) for chi cubic mod 7.

    chi(3^e) = w^e with w = exp(2 pi i / 3).  The closed form for even
    characters (Washington, Thm 4.2) gives
    |L(2j, chi)|^2 = 7/4 (2 pi / 7)^(4j) |B_(2j, chi)|^2 / ((2j)!)^2, where
    B_(k, chi) = 7^(k-1) sum_a chi(a) B_k(a/7) = x + y w lies in Q(w).
    """
    f, k = _CUBIC_49_CONDUCTOR, 2 * j
    sums = [Fraction(0)] * 3  # coefficients of 1, w, w^2
    for e in range(f - 1):
        a = pow(_CUBIC_49_GENERATOR, e, f)
        sums[e % 3] += specfun.bernoulli_polynomial(k, Fraction(a, f))
    scale = Fraction(f) ** (k - 1)
    # w^2 = -1 - w
    x, y = (sums[0] - sums[2]) * scale, (sums[1] - sums[2]) * scale
    norm = x * x - x * y + y * y  # |x + y w|^2
    return Fraction(f, 4) * Fraction(2, f) ** (2 * k) * norm / math.factorial(k) ** 2


def dedekind_zeta_exact_coeff(field: NumberFieldRecord, j: int) -> Fraction:
    """Exact rational r with zeta_K(2j) = r * pi^(2jd) / sqrt(D_K).

    Siegel--Klingen: r is rational for every totally real K.  For the
    supported fields it comes from generalized Bernoulli numbers:
    zeta_K = zeta for Q, zeta * L(chi_D) for real quadratic K, and
    zeta * L(chi) * L(conj(chi)) for the cyclic cubic field 3.3.49.1 of
    conductor 7.
    """
    if field.degree == 1:
        return zeta_even_exact(j)
    if field.degree == 2 and field.discriminant in specfun.SUPPORTED_L_MODULI:
        D = field.discriminant
        return D * zeta_even_exact(j) * dirichlet_L_even_coeff(D, j)
    if field.degree == 3 and field.discriminant == 49:
        return 7 * zeta_even_exact(j) * _cubic49_L_norm(j)
    raise UnsupportedField(f"zeta_K not supported for {field.label}")


def dedekind_zeta_enclosure(
    field: NumberFieldRecord, s: int, precision_bits: int = 256
) -> Interval:
    """Enclosure of zeta_K(s) at even s in {2, 4, 6}."""
    if s not in (2, 4, 6):
        raise UnsupportedArgument(f"zeta_K supported at s in {{2,4,6}}, got {s!r:.80}")
    r = dedekind_zeta_exact_coeff(field, s // 2)
    return power_product(
        ((r, 1), (PI, s * field.degree), (Fraction(field.discriminant), Fraction(-1, 2))),
        precision_bits,
    )
