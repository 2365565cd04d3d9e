"""Tests for the surface model: validation, affine charts and JSON, plus the
exponent-level base change (tests/base_change.py) the reduction tests rely
on."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from base_change import apply_base_change, term_set
from corpus import deterministic_corpus
from delsarte.errors import ValidationError
from delsarte.exact import adjugate
from delsarte.model import (
    AffineEquation,
    affine_equation,
    surface_from_json,
    surface_to_json,
    validate_surface,
)


def test_validate_surface_basic():
    s = validate_surface([[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]])
    assert s.degree == 3
    assert s.determinant() == 6
    assert not s.is_degenerate
    assert s.coefficients == (1, 1, 1, 1)


def test_validate_fermat():
    d = 5
    s = validate_surface([[d * (i == j) for j in range(4)] for i in range(4)])
    assert s.degree == d
    assert s.determinant() == d**4
    eq = affine_equation(s)
    assert term_set(eq) == {
        (Fraction(1), (d, 0, 0)),
        (Fraction(1), (0, d, 0)),
        (Fraction(1), (0, 0, d)),
        (Fraction(1), (0, 0, 0)),
    }


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 0, 0, 0]] * 3,  # wrong shape
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],  # rows too short
        [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 1]],  # unequal degree
        [[0, 2, 0, 1], [0, 2, 0, 1], [2, 0, 0, 1], [0, 0, 1, 2]],  # duplicate row
        [[0, 2, 0, -1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],  # negative
        [[0, 0, 0, 0]] * 4,  # degree 0 (and duplicates)
        [[1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2], [2, 1, 0, 0]],  # X0 divides F
    ],
)
def test_validate_surface_rejects(rows):
    with pytest.raises(ValidationError):
        validate_surface(rows)


def test_validate_surface_zero_coefficient():
    rows = [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]]
    with pytest.raises(ValidationError):
        validate_surface(rows, [1, 0, 1, 1])
    s = validate_surface(rows, [1, Fraction(-4, 27), 2, 1])
    assert s.coefficients[1] == Fraction(-4, 27)


@pytest.mark.parametrize(
    "coefficients",
    [
        [0.1, 1, True, 1], [1, 1, 1, 0.5], [1, True, 1, 1], [1, "2", 1, 1],
        [1, 1, None, 1], 5, "1234",
    ],
)
def test_validate_surface_takes_only_exact_coefficients(coefficients):
    # a float would enter as its binary expansion (0.1 as
    # 3602879701896397/36028797018963968) and a bool as 0 or 1, so only a
    # list or tuple of ints and Fractions is a coefficient vector
    rows = [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]]
    with pytest.raises(ValidationError, match="coefficients"):
        validate_surface(rows, coefficients)


def test_degenerate_flag():
    # rows chosen dependent: row3 = row0 + row1 - row2 won't generally stay a
    # monomial row, so use a clean rank-drop instead
    s = validate_surface([[2, 2, 0, 0], [0, 0, 2, 2], [1, 1, 1, 1], [2, 0, 0, 2]])
    assert s.determinant() == 0
    assert s.is_degenerate


def test_affine_equation_chart():
    s = validate_surface([[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]])
    eq = affine_equation(s)
    # y^2 + x^3 + x^2 + t, in input order
    assert [exps for _, exps in eq.terms] == [(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)]
    assert str(eq) == "y^2 + x^3 + x^2 + t"


def test_affine_equation_rejects_collisions():
    with pytest.raises(ValidationError):
        AffineEquation(((Fraction(1), (1, 0, 0)), (Fraction(2), (1, 0, 0))))


def test_apply_base_change_identity():
    eq = AffineEquation(
        tuple((Fraction(1), e) for e in [(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    )
    assert apply_base_change(eq, 0, 0, 1, 0) == eq


def test_apply_base_change_needs_nonzero_degree():
    eq = AffineEquation(((Fraction(1), (1, 0, 0)), (Fraction(1), (0, 0, 1))))
    with pytest.raises(ValidationError):
        apply_base_change(eq, 1, 1, 0)


exps = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-5, 5))


@st.composite
def equations(draw):
    n = draw(st.integers(1, 4))
    es = draw(st.lists(exps, min_size=n, max_size=n, unique=True))
    return AffineEquation(tuple((Fraction(1), e) for e in es))


bc = st.tuples(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4).filter(lambda c: c != 0),
    st.integers(-6, 6),
)


@given(equations(), bc, bc)
def test_apply_base_change_composes(eq, first, second):
    a1, b1, c1, e1 = first
    a2, b2, c2, e2 = second
    once = apply_base_change(apply_base_change(eq, a1, b1, c1, e1), a2, b2, c2, e2)
    # composite substitution: x -> x t^{a2} t^{a1 c2}? work it out on exponents:
    # net t-exponent of (ex,ey,et): ex(a1 c2 + a2) + ey(b1 c2 + b2) + et c1 c2
    #                               - (e1 c2 + e2)
    direct = apply_base_change(
        eq, a1 * c2 + a2, b1 * c2 + b2, c1 * c2, e1 * c2 + e2
    )
    assert once == direct


@given(equations(), bc)
def test_apply_base_change_invertible_when_unimodular(eq, change):
    a, b, c, e = change
    if abs(c) != 1:
        return
    moved = apply_base_change(eq, a, b, c, e)
    back = apply_base_change(moved, -a * c, -b * c, c, -e * c)
    assert back == eq


def test_surface_json_round_trip():
    obj = {
        "monomials": [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],
        "coefficients": [1, 1, "-4/27", 1],
    }
    s = surface_from_json(obj)
    assert s.coefficients[2] == Fraction(-4, 27)
    again = surface_from_json(surface_to_json(s))
    assert again == s


def test_surface_json_permutation():
    # swap the roles of X2 and X3 before analysis
    obj = {
        "monomials": [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],
        "permutation": [0, 1, 3, 2],
    }
    s = surface_from_json(obj)
    assert s.rows[3] == (0, 0, 2, 1)


@pytest.mark.parametrize(
    "obj",
    [
        {},  # missing monomials
        {"monomials": [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],
         "extra": 1},
        {"monomials": [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],
         "coefficients": [1, 1, 1, 1.5]},
        {"monomials": [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],
         "coefficients": "1,1,1,1"},
        {"monomials": [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],
         "permutation": [0, 1, 2]},
        42,
    ],
)
def test_surface_json_rejects(obj):
    with pytest.raises(ValidationError):
        surface_from_json(obj)


def test_permuted_is_validated():
    # valid as given, and permuting can't break validity (row sums, columns
    # are permuted together), so the permuted surface is not rechecked
    obj = {
        "monomials": [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]],
        "permutation": [3, 2, 1, 0],
    }
    s = surface_from_json(obj)
    assert s.degree == 3


def test_permuted_surface_has_the_adjugate_of_its_rows():
    # permuted builds the surface with its adjugate, from the permuted rows
    rows = [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]]
    s = validate_surface(rows)
    for perm in permutations(range(4)):
        moved = [[r[perm[j]] for j in range(4)] for r in rows]
        assert s.permuted(perm).adjugate == adjugate(moved)


def test_every_permutation_of_the_corpus_validates():
    # every check of validate_surface is invariant under permuting the
    # columns, which is why surface_from_json does not rerun it
    for surface in deterministic_corpus():
        obj = {
            "monomials": [list(row) for row in surface.rows],
            "coefficients": [2, "3/5", -7, "4/3"],
        }
        for perm in permutations(range(4)):
            permuted = surface_from_json(dict(obj, permutation=list(perm)))
            rows = [list(row) for row in permuted.rows]
            assert validate_surface(rows, permuted.coefficients) == permuted

