"""Tests for minimal-form reduction, degenerate classification, plane models.

The load-bearing check is the substitution identity: whatever the reducer
returns must satisfy, at the level of exponent vectors,

    f(x t^a, y t^b, t^c) = t^e * g(x, y, t^n)

which ``apply_base_change`` (tests/base_change.py) lets us verify literally,
term set against term set, with no reference to how the reducer found
(a, b, c, e, n).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings

from base_change import apply_base_change, scale_t_exponents, term_set
from corpus import nondegenerate_surfaces, surface_from_affine_triples
from delsarte.errors import ValidationError
from delsarte.model import (
    AffineEquation,
    BaseChangeRecord,
    affine_equation,
    validate_surface,
)
from delsarte.reduction import (
    RATIONAL_FIBERS,
    SPLITS_AFTER_BASE_CHANGE,
    MinimalFibration,
    classify_degenerate,
    plane_model,
    reduce_to_minimal,
)


def check_round_trip(surface, minimal) -> None:
    a, b = minimal.base_change.twist
    c = minimal.base_change.inner_degree
    e = minimal.base_change.cleared_power
    n = minimal.base_change.degree
    lhs = apply_base_change(affine_equation(surface), a, b, c, e)
    rhs = scale_t_exponents(minimal.equation, n)
    assert term_set(lhs) == term_set(rhs)


# ---------------------------------------------------------------------------
# Degenerate matrices
# ---------------------------------------------------------------------------


def test_classify_degenerate_split_case():
    s = validate_surface([[2, 2, 0, 0], [0, 0, 2, 2], [1, 1, 1, 1], [2, 0, 0, 2]])
    verdict = classify_degenerate(s)
    assert verdict.kind == SPLITS_AFTER_BASE_CHANGE
    assert verdict.direction == (1, 0, 1)
    assert verdict.base_change_degree == 1
    # the substitution really does strip t out entirely
    a, b, c = verdict.direction
    moved = apply_base_change(affine_equation(s), a, b, c)
    ts = set(moved.t_exponents())
    assert len(ts) == 1  # t^shift * (polynomial in x, y)


def test_classify_degenerate_rational_case():
    # all four (x, y)-exponent pairs sit on the line ex + ey = 2, so every
    # fiber is a (degenerate) conic; the second matrix has rank 2, and its
    # kernel meets u[2] == u[3] in a line.  The third, F(X2, X3) alone, has
    # rank 2 with its whole kernel inside u[2] == u[3]: the one shape where
    # the choice of kernel basis shows in the direction.
    for rows, direction in (
        ([[2, 0, 0, 3], [1, 1, 1, 2], [0, 2, 2, 1], [2, 0, 3, 0]], (1, 1, 0)),
        ([[3, 0, 0, 0], [2, 1, 0, 0], [1, 2, 0, 0], [0, 3, 0, 0]], (1, 1, 0)),
        ([[0, 0, 3, 0], [0, 0, 2, 1], [0, 0, 1, 2], [0, 0, 0, 3]], (1, 0, 0)),
    ):
        verdict = classify_degenerate(validate_surface(rows))
        assert verdict.kind == RATIONAL_FIBERS
        assert verdict.direction == direction
        assert verdict.base_change_degree is None


def test_classify_degenerate_rejects_nonsingular():
    s = validate_surface([[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]])
    with pytest.raises(ValidationError):
        classify_degenerate(s)


# ---------------------------------------------------------------------------
# reduce_to_minimal
# ---------------------------------------------------------------------------


def test_reduce_already_minimal_is_identity():
    s = validate_surface([[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]])
    m = reduce_to_minimal(s)
    assert m.base_change == BaseChangeRecord(
        twist=(0, 0), inner_degree=1, cleared_power=0, degree=1
    )
    assert m.carrier_index == 3
    assert m.equation == affine_equation(s)
    check_round_trip(s, m)


def test_reduce_single_carrier_higher_power():
    # y^2 + x^3 + x^2 + t^5
    s = surface_from_affine_triples([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 5)])
    m = reduce_to_minimal(s)
    assert m.base_change.degree == 5
    assert m.base_change.twist == (0, 0)
    assert str(m.equation) == "y^2 + x^3 + x^2 + t"
    check_round_trip(s, m)


def test_reduce_single_carrier_mixed_monomial():
    # y^2 + x^3 + x^2 + t^3 x  ->  y^2 + x^3 + x^2 + t x  at three times the speed
    s = surface_from_affine_triples([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 3)])
    m = reduce_to_minimal(s)
    assert m.base_change.degree == 3
    assert str(m.equation) == "y^2 + x^3 + x^2 + x*t"
    check_round_trip(s, m)


def test_reduce_multi_carrier_worked_example():
    # y^2 + x^3 + t^2 x + t: two monomials involve t, so the substitution
    # search must run; the x^3 term ends up carrying t
    s = validate_surface([[0, 2, 0, 1], [3, 0, 0, 0], [1, 0, 2, 0], [0, 0, 1, 2]])
    m = reduce_to_minimal(s)
    assert m.carrier_index == 1
    assert m.base_change == BaseChangeRecord(
        twist=(-2, 1), inner_degree=2, cleared_power=2, degree=-8
    )
    assert str(m.equation) == "y^2 + x + 1 + x^3*t"
    check_round_trip(s, m)


def test_reduce_rejects_degenerate():
    s = validate_surface([[2, 2, 0, 0], [0, 0, 2, 2], [1, 1, 1, 1], [2, 0, 0, 2]])
    with pytest.raises(ValidationError, match="exponent matrix is singular"):
        reduce_to_minimal(s)


@given(nondegenerate_surfaces())
@settings(max_examples=200, deadline=None)
def test_reduce_round_trip_property(s):
    m = reduce_to_minimal(s)
    # shape of the result
    assert m.equation.t_exponents() == (0, 0, 0, 1)
    assert m.base_change.inner_degree > 0
    assert m.base_change.degree != 0
    g = gcd(gcd(m.base_change.twist[0], m.base_change.twist[1]),
            m.base_change.inner_degree)
    assert g == 1
    # the substitution identity itself
    check_round_trip(s, m)
    # determinism
    assert reduce_to_minimal(s) == m


# ---------------------------------------------------------------------------
# plane_model
# ---------------------------------------------------------------------------

PLANE_CASES = [
    # affine triples of an already-minimal family, expected plane exponents,
    # expected relation vector
    ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)],
     ((0, 2, 1), (3, 0, 0), (2, 0, 1), (0, 0, 3)), (0, 2, -3, 1)),
    ([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)],
     ((0, 2, 1), (3, 0, 0), (1, 0, 2), (0, 0, 3)), (0, 1, -3, 2)),
    ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)],
     ((0, 2, 1), (3, 0, 0), (2, 0, 1), (1, 0, 2)), (0, 1, -2, 1)),
    ([(0, 2, 0), (3, 0, 0), (1, 0, 0), (2, 0, 1)],
     ((0, 2, 1), (3, 0, 0), (1, 0, 2), (2, 0, 1)), (0, -1, -1, 2)),
]


@pytest.mark.parametrize("triples,exponents,kernel", PLANE_CASES)
def test_plane_model_frozen(triples, exponents, kernel):
    s = surface_from_affine_triples(triples)
    pm = plane_model(reduce_to_minimal(s))
    assert pm.exponents == exponents
    assert pm.kernel == kernel
    assert pm.degree == max(a + b for a, b, _ in triples)


def test_plane_model_rejects_non_minimal():
    eq = AffineEquation(
        tuple((Fraction(1), e) for e in [(0, 2, 0), (3, 0, 0), (1, 0, 2), (0, 0, 1)])
    )
    fake = MinimalFibration(eq, BaseChangeRecord((0, 0), 1, 0, 1), 3)
    with pytest.raises(ValidationError):
        plane_model(fake)


@given(nondegenerate_surfaces())
@settings(max_examples=200, deadline=None)
def test_plane_model_kernel_invariants(s):
    pm = plane_model(reduce_to_minimal(s))
    # k . rows = 0
    for j in range(3):
        assert sum(k * row[j] for k, row in zip(pm.kernel, pm.exponents)) == 0
    assert sum(pm.kernel) == 0
    assert gcd(gcd(pm.kernel[0], pm.kernel[1]), gcd(pm.kernel[2], pm.kernel[3])) == 1
    assert pm.kernel[3] > 0
    # no prime can divide all but one entry: for every prime p dividing some
    # entry, at least two entries escape it
    for p in {q for k in pm.kernel for q in sympy.primefactors(k)}:
        assert sum(1 for k in pm.kernel if k % p != 0) >= 2
