"""Tests for the exact-arithmetic core.

The plane model's relation vector is read off the adjugate, so the oracle
for it here is a completely independent fraction-based Gaussian elimination
nullspace.  Determinants and ranks are cross-checked against sympy,
adjugates against a plain integer matrix product, and the polynomial and
quotient printers against sympy's ``str`` of the same expression.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ

from corpus import nondegenerate_surfaces, surface_from_affine_triples
from delsarte.errors import ValidationError
from delsarte.exact import (
    MAX_DIGITS,
    QPoly,
    T,
    adjugate,
    format_polynomial,
    format_quotient,
    hermite,
    parse_rational,
    primitive_integer_vector,
    primitive_quotient,
    rational_kth_roots,
    rational_to_json,
)
from delsarte.reduction import plane_model, reduce_to_minimal
from qt_oracle import QT, QT_RING, from_ring, to_expr, to_ring
from shioda_oracle import frac_part

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def nullspace_left_oracle(rows: list[list[int]]) -> list[Fraction]:
    """Left kernel of a 4x3 rank-3 integer matrix by plain Gaussian elimination
    on the transpose.  Returns one (unnormalized) nonzero kernel vector."""
    # Solve M^T x = 0 for x in Q^4.
    mt = [[Fraction(rows[i][j]) for i in range(4)] for j in range(3)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(4):
        pr = next((i for i in range(r, 3) if mt[i][c] != 0), None)
        if pr is None:
            continue
        mt[r], mt[pr] = mt[pr], mt[r]
        mt[r] = [x / mt[r][c] for x in mt[r]]
        for i in range(3):
            if i != r and mt[i][c] != 0:
                f = mt[i][c]
                mt[i] = [a - f * b for a, b in zip(mt[i], mt[r])]
        pivots.append((r, c))
        r += 1
        if r == 3:
            break
    assert r == 3, "oracle expects rank 3"
    free = next(c for c in range(4) if c not in [p[1] for p in pivots])
    x = [Fraction(0)] * 4
    x[free] = Fraction(1)
    for pr, pc in reversed(pivots):
        x[pc] = -mt[pr][free]
    return x


def identity(n: int, scale: int = 1) -> list[list[int]]:
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def vecmat(v, m) -> tuple:
    """Row vector times matrix."""
    return tuple(sum(x * y for x, y in zip(v, c)) for c in zip(*m))


def rank(rows) -> int:
    return sympy.Matrix(rows).rank()


def parallel(u, v) -> bool:
    """True when u and v span the same line."""
    return all(
        Fraction(u[i]) * Fraction(v[j]) == Fraction(u[j]) * Fraction(v[i])
        for i in range(len(u))
        for j in range(len(u))
    )


# ---------------------------------------------------------------------------
# Q/Z helpers (the fractional part is a test oracle, in shioda_oracle.py)
# ---------------------------------------------------------------------------


def test_frac_part_examples():
    assert frac_part(Fraction(7, 3)) == Fraction(1, 3)
    assert frac_part(Fraction(-1, 3)) == Fraction(2, 3)
    assert frac_part(5) == 0
    assert frac_part(Fraction(-9, 4)) == Fraction(3, 4)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_frac_part_is_canonical_representative(a, b):
    q = Fraction(a, b)
    f = frac_part(q)
    assert 0 <= f < 1
    assert (q - f).denominator == 1


# ---------------------------------------------------------------------------
# Parsing / formatting
# ---------------------------------------------------------------------------


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(7) == 7
    assert parse_rational("-4/27") == Fraction(-4, 27)
    assert parse_rational(" 3/9 ") == Fraction(1, 3)


@pytest.mark.parametrize(
    "bad", ["", "x", "1/0", 1.5, None, True, "1e5", "0.5", "1e99999999"]
)
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ValidationError):
        parse_rational(bad)


def test_parse_rational_bounds_the_digits():
    # numerator and denominator in lowest terms, as ints or as text
    largest = 10**MAX_DIGITS - 1
    accepted = (
        largest, -largest, str(largest), f"-1/{largest}", f"{10 * largest}/10",
        "0" * 300 + "1",
    )
    for value in accepted:
        q = parse_rational(value)
        assert max(abs(q.numerator), q.denominator) <= largest
    rejected = (
        largest + 1, -largest - 1, str(largest + 1), f"1/{largest + 1}",
        f"{largest + 1}/{largest}",
    )
    for value in rejected:
        with pytest.raises(ValidationError, match=f"more than {MAX_DIGITS} digits"):
            parse_rational(value)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_rational_text_round_trip(a, b):
    q = Fraction(a, b)
    assert parse_rational(str(q)) == q
    j = rational_to_json(q)
    assert isinstance(j, int) == (q.denominator == 1)
    assert parse_rational(j) == q


# ---------------------------------------------------------------------------
# Exact roots
# ---------------------------------------------------------------------------


def test_rational_kth_roots_examples():
    assert rational_kth_roots(Fraction(-4, 27), 3) == []  # not a perfect cube
    assert rational_kth_roots(Fraction(4), 2) == [-2, 2]
    assert rational_kth_roots(Fraction(-8, 27), 3) == [Fraction(-2, 3)]
    assert rational_kth_roots(Fraction(-4), 2) == []
    assert rational_kth_roots(Fraction(1, 4), 2) == [Fraction(-1, 2), Fraction(1, 2)]
    assert rational_kth_roots(0, 5) == [0]
    assert rational_kth_roots(Fraction(5, 7), 1) == [Fraction(5, 7)]


@given(
    st.integers(-40, 40),
    st.integers(1, 40),
    st.integers(1, 6),
)
def test_rational_kth_roots_finds_constructed_root(a, b, k):
    x = Fraction(a, b)
    roots = rational_kth_roots(x**k, k)
    assert x in roots
    for r in roots:
        assert r**k == x**k


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


@given(st.lists(st.fractions(max_denominator=50), min_size=2, max_size=5))
def test_primitive_integer_vector_properties(v):
    if all(x == 0 for x in v):
        with pytest.raises(ValueError):
            primitive_integer_vector(v)
        return
    p = primitive_integer_vector(v)
    assert all(isinstance(x, int) for x in p)
    assert gcd(*p) == 1
    assert parallel(p, v)
    # direction preserved: the scaling factor is positive
    i = next(i for i, x in enumerate(v) if x != 0)
    assert (p[i] > 0) == (v[i] > 0)


@given(st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=6))
def test_primitive_integer_vector_integer_path(v):
    # all-int input skips the Fraction path and gives the same vector
    fracs = [Fraction(x) for x in v]
    if not any(v):
        for w in (v, fracs):
            with pytest.raises(ValueError):
                primitive_integer_vector(w)
        return
    assert primitive_integer_vector(v) == primitive_integer_vector(fracs)


# ---------------------------------------------------------------------------
# Matrices: determinant / adjugate / right kernel
# ---------------------------------------------------------------------------

int_matrix = st.lists(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=4, max_size=4
)


@given(int_matrix)
@settings(max_examples=150)
def test_det_matches_sympy(rows):
    det, _ = adjugate(rows)
    assert isinstance(det, int)
    assert det == int(sympy.Matrix(rows).det())


@given(int_matrix)
@settings(max_examples=100)
def test_adjugate_multiplies_to_det_identity(rows):
    det, adj = adjugate(rows)
    assert all(isinstance(x, int) for row in adj for x in row)
    assert matmul(rows, adj) == identity(4, det)
    assert matmul(adj, rows) == identity(4, det)
    assert [list(r) for r in adj] == sympy.Matrix(rows).adjugate().tolist()


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0, 0], [0, 1, 0]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=2,
            max_size=5,
        )
    )
)
@settings(max_examples=150)
def test_hermite_properties(rows):
    # on the matrix and on its transpose: the kernel of the transpose is the
    # right kernel that classify_degenerate reads
    for m in (rows, [list(c) for c in zip(*rows)]):
        h, u = hermite(m)
        assert matmul(u, m) == [list(r) for r in h]
        assert abs(sympy.Matrix(u).det()) == 1
        # echelon: each nonzero row's pivot right of the last, zero rows last,
        # a positive pivot and the entries above it in [0, pivot)
        pivots = [next((j for j, x in enumerate(r) if x), None) for r in h]
        r = rank(m)
        assert all(p is not None for p in pivots[:r])
        assert all(p is None for p in pivots[r:])
        assert pivots[:r] == sorted(set(pivots[:r]))
        for i, p in enumerate(pivots[:r]):
            assert h[i][p] > 0
            assert all(0 <= h[k][p] < h[i][p] for k in range(i))
        # the rows of U past the rank span the left kernel
        assert len(u[r:]) == len(m) - r
        assert all(vecmat(v, m) == (0,) * len(m[0]) for v in u[r:])
    column = [r[0] for r in rows]
    h, _ = hermite([[x] for x in column])
    assert h[0][0] == gcd(*column)


def test_hermite_bezout_pair():
    # on one column (a, b) the first row of U is the extended-Euclid pair
    # s a + u b = gcd(a, b), with the quotients of Euclid's algorithm
    assert hermite([[5], [3]]) == (((1,), (0,)), ((-1, 2), (3, -5)))
    assert hermite([[0], [1]])[1][0] == (0, 1)
    assert hermite([[0], [0]]) == (((0,), (0,)), ((1, 0), (0, 1)))
    assert hermite([[-4], [6]])[0] == ((2,), (0,))


def test_row_vector_times_inverse_frozen():
    # A known 4x4 exponent matrix; u . A^{-1} = (u . adj A) / det A must
    # come out exactly.
    det, adj = adjugate([[0, 2, 0, 4], [3, 0, 0, 3], [0, 0, 6, 0], [0, 0, 0, 6]])
    assert det == -216

    def times_inverse(u):
        return tuple(Fraction(x, det) for x in vecmat(u, adj))

    assert times_inverse([1, 0, 0, -1]) == (0, Fraction(1, 3), 0, Fraction(-1, 3))
    assert times_inverse([0, 1, 0, -1]) == (Fraction(1, 2), 0, 0, Fraction(-1, 2))
    assert times_inverse([0, 0, 1, -1]) == (0, 0, Fraction(1, 6), Fraction(-1, 6))


# ---------------------------------------------------------------------------
# The plane model's relation vector, the left kernel of its exponents
# ---------------------------------------------------------------------------

# plane exponents of minimal families, the t-monomial last, and their
# relation vectors: the plane models of test_reduction.PLANE_CASES
KERNEL_CASES = [
    ([[0, 2, 1], [3, 0, 0], [2, 0, 1], [0, 0, 3]], (0, 2, -3, 1)),
    ([[0, 2, 1], [3, 0, 0], [1, 0, 2], [0, 0, 3]], (0, 1, -3, 2)),
    ([[0, 2, 1], [3, 0, 0], [2, 0, 1], [1, 0, 2]], (0, 1, -2, 1)),
    ([[0, 2, 1], [3, 0, 0], [1, 0, 2], [2, 0, 1]], (0, -1, -1, 2)),
]


def plane_kernel(rows) -> tuple[int, ...]:
    """The relation vector of the minimal family whose plane exponents are
    ``rows``, its t-monomial last."""
    triples = [(x, y, int(i == 3)) for i, (x, y, _) in enumerate(rows)]
    plane = plane_model(reduce_to_minimal(surface_from_affine_triples(triples)))
    assert plane.exponents == tuple(map(tuple, rows))
    return plane.kernel


@pytest.mark.parametrize("rows,expected", KERNEL_CASES)
def test_left_kernel_frozen_cases(rows, expected):
    assert plane_kernel(rows) == expected


@pytest.mark.parametrize("rows,_", KERNEL_CASES)
def test_left_kernel_matches_gaussian_oracle(rows, _):
    assert parallel(plane_kernel(rows), nullspace_left_oracle(rows))


@given(nondegenerate_surfaces())
@settings(max_examples=200, deadline=None)
def test_left_kernel_random_against_oracle(surface):
    plane = plane_model(reduce_to_minimal(surface))
    k, rows = plane.kernel, plane.exponents
    assert gcd(*k) == 1
    assert k[3] > 0
    assert vecmat(k, rows) == (0, 0, 0)
    assert parallel(k, nullspace_left_oracle(rows))


# ---------------------------------------------------------------------------
# QPoly, with sympy's Q[t] and Q(t) as the oracle
# ---------------------------------------------------------------------------


def random_coefficient(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((-1, 1))
    if kind == 1:
        return rng.randint(-99, 99)
    if kind == 2:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 60))
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**12))


def random_polynomial(rng, max_terms=4, max_degree=8) -> QPoly:
    coeffs = [0] * (max_degree + 1)
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(0, max_degree)] = random_coefficient(rng)
    return QPoly(coeffs)


def random_binomial(rng) -> QPoly:
    """a t^k - c with a, c != 0, the shape of a place."""
    a, c = (random_coefficient(rng) or 1 for _ in range(2))
    return a * T ** rng.randint(1, 4) - c


def is_canonical(p: QPoly) -> bool:
    """ints exactly where integral, and no trailing zero"""
    return (
        all(type(c) is int or c.denominator != 1 for c in p.coeffs)
        and p.integral == all(type(c) is int for c in p.coeffs)
        and (not p.coeffs or p.coeffs[-1] != 0)
    )


@pytest.mark.parametrize("seed", range(4))
def test_qpoly_ring_operations_match_sympy(seed):
    rng = random.Random(seed)
    for _ in range(150):
        p, q = random_polynomial(rng), random_polynomial(rng)
        c, n = random_coefficient(rng), rng.randint(0, 4)
        P, Q = to_ring(p), to_ring(q)
        cases = [
            (p + q, P + Q), (p - q, P - Q), (-p, -P), (p * q, P * Q),
            (p ** (n + 1), P ** (n + 1)), (p**0, QT_RING.one),
            (c * p, QQ(c.numerator, c.denominator) * P),
            (p + c, P + QQ(c.numerator, c.denominator)), (c - p, c - P),
            (p.shift(n), P * QT_RING.gens[0] ** n),
        ]
        for mine, oracle in cases:
            assert to_ring(mine) == oracle
            assert is_canonical(mine)
        assert from_ring(P) == p and hash(from_ring(P)) == hash(p)
        assert (p * T**n).shift(-n) == p
        if p:
            assert p.degree == P.degree() and p.lc == P.LC
            assert p.low == min(e for (e,), _ in P.terms())


@pytest.mark.parametrize("seed", range(4))
def test_qpoly_division_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(150):
        p, q, b = random_polynomial(rng), random_polynomial(rng), random_binomial(rng)
        for divisor in (b, q) if q else (b,):
            quotient, remainder = divmod(p, divisor)
            oracle = to_ring(p).div(to_ring(divisor))
            assert (to_ring(quotient), to_ring(remainder)) == oracle
            assert is_canonical(quotient) and is_canonical(remainder)
            # exact division leaves the dividend's cofactor
            assert divmod(p * divisor, divisor) == (p, QPoly())
            if p:
                gcd_degree = to_ring(p).gcd(to_ring(divisor)).degree()
                assert p.is_coprime(divisor) == (gcd_degree == 0)
    with pytest.raises(ZeroDivisionError):
        divmod(T, QPoly())


@pytest.mark.parametrize("seed", range(4))
def test_qpoly_gcd_monic_and_squarefree_part_match_sympy(seed):
    # products with a common factor and a repeated one, so that the gcd and
    # the squarefree part are not trivial
    rng = random.Random(seed)
    for _ in range(50):
        p, q, b = random_polynomial(rng), random_polynomial(rng), random_binomial(rng)
        for f, g in ((p, q), (p * b, q * b), (p * b**2, b**3), (q, QPoly())):
            F, G = to_ring(f), to_ring(g)
            H = F.gcd(G)  # sympy returns gcd(f, 0) as f, not monic
            assert to_ring(f.gcd(g)) == (H.monic() if H else H)
            assert is_canonical(f.gcd(g))
            if f:
                assert to_ring(f.monic()) == F.monic() and f.monic().lc == 1
                assert to_ring(f.sqf_part()).monic() == F.sqf_part()
                assert divmod(f, f.sqf_part())[1] == QPoly()
            else:
                assert f.monic() == f.sqf_part() == QPoly()
    assert (T**2 * (T - 1) ** 3 * 6).sqf_part().monic() == T**2 - T
    assert QPoly([4]).gcd(QPoly()) == 1 and QPoly().gcd(QPoly()) == QPoly()


def test_qpoly_keeps_integral_coefficients_as_ints():
    p = QPoly([Fraction(4, 2), Fraction(1, 3), 0, Fraction(0)])
    assert p.coeffs == (2, Fraction(1, 3)) and type(p.coeffs[0]) is int
    assert not p.integral and (p * 3).integral and (p * 3).coeffs == (6, 1)
    assert divmod(2 * T**2 - 8, 2 * T - 4) == (T + 2, QPoly())
    assert QPoly() == 0 and QPoly([5]) == 5 and T != 1 and T.degree == 1
    with pytest.raises(TypeError):
        QPoly([0.5])
    with pytest.raises(ValueError):
        QPoly().low
    with pytest.raises(ValueError):
        T.shift(-2)


@pytest.mark.parametrize("seed", range(4))
def test_primitive_quotient_is_the_cancel_form(seed):
    # sympy's cancel leaves j in lowest terms with integer coefficients, no
    # common content and a positive leading denominator coefficient; any
    # rescaling of those two polynomials must come back to it
    rng = random.Random(seed)
    for _ in range(150):
        numer, denom = random_polynomial(rng), random_polynomial(rng)
        if not denom:
            continue
        j = QT.new(to_ring(numer), to_ring(denom))
        lowest = from_ring(j.numer), from_ring(j.denom)
        r = random_coefficient(rng) or -1
        scaled = primitive_quotient(lowest[0] * r, lowest[1] * r)
        assert scaled == lowest
        assert all(p.integral for p in scaled)


# ---------------------------------------------------------------------------
# Printing polynomials and quotients in t (sympy's str is the oracle)
# ---------------------------------------------------------------------------


def sympy_quotient(numer, denom) -> str:
    return str(to_expr(numer) / to_expr(denom))


def term_count(poly: QPoly) -> int:
    return sum(map(bool, poly.coeffs))


def printed_j(numer, denom) -> bool:
    """Whether j = numer/denom in lowest terms, as sympy's field keeps it,
    has a denominator of two or more terms, as every j of a genus-one
    section does; if so, its printed text is checked against sympy's."""
    j = QT.new(to_ring(numer), to_ring(denom))
    lowest = from_ring(j.numer), from_ring(j.denom)
    if term_count(lowest[1]) < 2:
        return False
    assert format_quotient(*lowest) == str(j.as_expr())
    return True


# quotient shapes, each as (numerator, denominator): a denominator of one
# term, and a zero numerator, are refused (j's denominator is unit * t^m *
# (t^k4 - c)^nu with nu >= 1), and every other shape prints as sympy's str
QUOTIENT_SHAPES = [
    (0, 1), (0, T), (7, 1), (-7, 3), (1, T), (-1, T), (1, T**2), (-1, T**3),
    (5, T**2), (1, 27 * T**2), (5, 27 * T**2), (T + 1, 2), (5 - T, 1),
    (T + 1, 3 * T**2), (T + 1, T), (-T - 1, T**4), (T**2, T**5),
    (6912, 27 * T + 4), (442368 * T**3, 256 * T**3 - 27),
    (-442368, 27 * T**4 - 256), (-T - 1, T - 2), (-3 * T**2, T + 1),
    (Fraction(3, 4) * T, T**2 + 1), (Fraction(1, 2) - 3 * T**4, 1),
    (2176782336 - 229582512 * T**4, 1), (T, -T - 1),
    (T + 1, Fraction(-2, 3) * T**2),
    (5, 27 * T**3 + 4 * T**2), (T**3 + 1, Fraction(2, 3) * T - 1),
    (Fraction(1, 2), T**2 - 2), (T - T**4, 3 * T**4 - T**2),
    (T + 1, Fraction(-2, 3) * T**2 + T),
]


@pytest.mark.parametrize("numer, denom", QUOTIENT_SHAPES)
def test_quotient_shapes_print_as_sympy(numer, denom):
    numer, denom = numer + QPoly(), denom + QPoly()
    if not numer or term_count(denom) < 2:
        with pytest.raises(ValueError, match="two or more terms"):
            format_quotient(numer, denom)
        return
    assert format_quotient(numer, denom) == sympy_quotient(numer, denom)
    assert printed_j(numer, denom)


def test_printed_shapes_read_as_sympy_documents_them():
    def show(numer, denom):
        return format_quotient(numer + QPoly(), denom + QPoly())

    assert show(-T - 1, T - 2) == "(-t - 1)/(t - 2)"
    assert show(6912, 27 * T + 4) == "6912/(27*t + 4)"
    assert show(Fraction(3, 4) * T, T**2 + 1) == "3*t/(4*(t**2 + 1))"
    assert show(T**3 + 1, Fraction(2, 3) * T - 1) == "(t**3 + 1)/(2*t/3 - 1)"
    with pytest.raises(ValueError):  # a monomial denominator
        show(1, 27 * T**2)
    assert format_polynomial(5 - T) == "5 - t"
    assert format_polynomial(Fraction(1, 2) - 3 * T**4) == "1/2 - 3*t**4"
    assert format_polynomial(Fraction(-1, 2) * T**2 - T + 5) == "-t**2/2 - t + 5"
    assert format_polynomial(QPoly()) == "0"


@pytest.mark.parametrize("seed", range(4))
def test_printers_match_sympy_on_random_elements(seed):
    rng = random.Random(seed)
    quotients = 0
    for _ in range(150):
        numer, denom = random_polynomial(rng), random_polynomial(rng)
        assert format_polynomial(numer) == str(to_expr(numer))
        if not numer or term_count(denom) < 2:
            continue
        assert format_quotient(numer, denom) == sympy_quotient(numer, denom)
        quotients += printed_j(numer, denom)
    assert quotients >= 30


def test_binomials_with_a_positive_constant_print_as_sympy():
    # the one place sympy leaves descending degree: c - a t^e with c > 0
    for c in (1, 5, Fraction(1, 2)):
        for a in (-1, 1, 3, Fraction(-3, 4)):
            for e in (1, 2, 4):
                p = c + a * T**e
                assert format_polynomial(p) == str(to_expr(p))
                q = -p
                assert format_polynomial(q) == str(to_expr(q))
