"""Reduction of the standard fibration to minimal form.

The affine member of the standard fibration is f(x, y, t) = 0.  A fibration
is *minimal* when exactly one monomial involves t and it does so linearly:

    g = n1(x, y) + n2(x, y) + n3(x, y) + t * n4(x, y).

Every nondegenerate surface admits a monomial change of coordinates

    (x, y, t) -> (x t^a, y t^b, t^c),        c != 0,

after which, dividing by a power t^e, the family becomes minimal up to a
relabeling t -> t^n of the base:

    f(x t^a, y t^b, t^c) = t^e * g(x, y, t^n).

This module finds that substitution (``reduce_to_minimal``), decides what a
degenerate exponent matrix means for the fibers (``classify_degenerate``),
and converts a minimal fibration into its plane projective model together
with the integer relation vector among the four plane monomials
(``plane_model``), which drives all later singular-fiber analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ValidationError
from .exact import hermite, left_kernel_normalized, primitive_integer_vector
from .model import (
    AffineEquation,
    BaseChangeRecord,
    DelsarteSurface,
    affine_equation,
)

# ---------------------------------------------------------------------------
# Degenerate exponent matrices
# ---------------------------------------------------------------------------

RATIONAL_FIBERS = "rational_fibers"
SPLITS_AFTER_BASE_CHANGE = "splits_after_base_change"


class DegenerateVerdict(NamedTuple):
    """What a singular exponent matrix does to the fibration.

    ``direction`` is a primitive integer triple (a, b, c): substituting
    (x t^a, y t^b, t^c) turns f into t^shift times a polynomial in (x, y)
    alone.  If c = 0 no base change is even needed -- the monomials of every
    fiber lie on a line in the exponent lattice and each fiber is rational.
    Otherwise the family becomes a product after the degree-|c| base change.
    """

    kind: str
    direction: tuple[int, int, int]
    base_change_degree: Optional[int]


def classify_degenerate(surface: DelsarteSurface) -> DegenerateVerdict:
    """Classify a surface whose exponent matrix is singular.

    The matrix always maps (1, 1, 1, 1) to d * (1, 1, 1, 1), so a kernel
    vector u is never proportional to all-ones, and v = u - u[3]*(1,1,1,1)
    is a nonzero vector with last coordinate 0 mapped into the all-ones
    line.  Its first three coordinates are the substitution direction.
    A kernel vector with u[2] == u[3] gives c = 0 (rational fibers); the
    c-functional is linear, so a kernel of dimension >= 2 always has one,
    and a kernel without one is a line.
    """
    if surface.determinant() != 0:
        raise ValidationError("exponent matrix is nonsingular; nothing to classify")
    rational = _right_kernel(surface.rows + ((0, 0, 1, -1),))
    if rational:
        return DegenerateVerdict(RATIONAL_FIBERS, _shifted_direction(rational[0]), None)

    v = _shifted_direction(_right_kernel(surface.rows)[0])
    if v[2] == 0:  # raised, not asserted: the checks here hold under -O too
        raise AssertionError("a splitting direction must move t")
    return DegenerateVerdict(SPLITS_AFTER_BASE_CHANGE, v, abs(v[2]))


def _right_kernel(rows) -> list[tuple[int, ...]]:
    """The Hermite basis of the integer right kernel {u : rows . u = 0}: the
    rows of the Hermite form of [rows^T | I] whose first part is zero."""
    n, width = len(rows), len(rows[0])
    identity = [[int(i == j) for j in range(width)] for i in range(width)]
    h, _ = hermite([[*c, *e] for c, e in zip(zip(*rows), identity)])
    return [row[n:] for row in h if not any(row[:n])]


def _shifted_direction(u) -> tuple[int, int, int]:
    shifted = [u[0] - u[3], u[1] - u[3], u[2] - u[3]]
    v = primitive_integer_vector(shifted)
    # orient: c > 0 if c != 0, else first nonzero coordinate > 0
    lead = v[2] if v[2] != 0 else next(x for x in v if x != 0)
    if lead < 0:
        v = tuple(-x for x in v)
    return tuple(v)


# ---------------------------------------------------------------------------
# Reduction to minimal form
# ---------------------------------------------------------------------------

class MinimalFibration(NamedTuple):
    """A fibration in minimal form, plus how it was reached.

    ``equation`` has t-exponent pattern (0, 0, 0, 1): the t-carrying monomial
    sits last.  ``carrier_index`` is that monomial's position in the input
    surface's own term order.  ``base_change`` ties the input equation f to
    this one (see ``BaseChangeRecord``).
    """

    equation: AffineEquation
    base_change: BaseChangeRecord
    carrier_index: int


def reduce_to_minimal(surface: DelsarteSurface) -> MinimalFibration:
    """Bring the standard fibration of a nondegenerate surface to minimal form.

    A family with a single t-carrying monomial t^n * m is normalized in place
    (the carrier moves last, its exponent drops to 1, the record has degree n
    and trivial twist); in particular an already-minimal input returns the
    identity record.  Otherwise the substitution is found by linear algebra:
    choosing which monomial shall carry t forces the direction

        v_i = primitive(column i of adj A minus its last entry, spread),

    oriented so that c > 0 by ``_shifted_direction`` (column i of adj A spans the same line as column
    i of A^{-1}), and among the at most four candidates the one with the
    smallest |c| wins (ties: smallest carrier index), which makes the result
    deterministic.
    """
    if surface.is_degenerate:
        raise ValidationError("exponent matrix is singular; see classify_degenerate")
    eq = affine_equation(surface)
    tvec = eq.t_exponents()
    carriers = [i for i, e in enumerate(tvec) if e != 0]
    if not carriers:  # cannot happen for nondegenerate input; keep the guard
        raise ValidationError("no monomial involves the base variable")

    if len(carriers) == 1:
        idx = carriers[0]
        n = tvec[idx]
        record = BaseChangeRecord(
            twist=(0, 0), inner_degree=1, cleared_power=0, degree=n
        )
        return MinimalFibration(_reorder_minimal(eq, idx), record, idx)

    _, adj = surface.adjugate
    best: Optional[tuple[int, int, tuple[int, ...]]] = None
    for idx in range(4):
        # column idx of adj A solves A w = det(A) e_idx
        v = _shifted_direction([row[idx] for row in adj])
        if v[2] and (best is None or (v[2], idx) < best[:2]):
            best = (v[2], idx, v)
    if best is None:
        # all candidate directions had c = 0: impossible, they span 3-space
        raise AssertionError("no valid substitution direction found")

    c, idx, v = best
    a, b = v[0], v[1]
    # A v = e * (1,1,1,1) + n * e_idx; the spread's fourth entry is 0, so
    # v is the triple (a, b, c) and zip drops only that zero term
    image = [sum(x * y for x, y in zip(row, v)) for row in surface.rows]
    others = [image[j] for j in range(4) if j != idx]
    if not others[0] == others[1] == others[2]:
        raise AssertionError(f"A v is not e (1,1,1,1) + n e_idx: {image}")
    e = others[0]
    n = image[idx] - e
    if n == 0:
        raise AssertionError("the substitution must move the carrier monomial")

    record = BaseChangeRecord(twist=(a, b), inner_degree=c, cleared_power=e, degree=n)
    return MinimalFibration(_reorder_minimal(eq, idx), record, idx)


def _reorder_minimal(eq: AffineEquation, carrier: int) -> AffineEquation:
    """Strip t from the equation and rebuild it with the carrier last, with
    t-exponent exactly 1.  Fiber-variable exponents are untouched."""
    terms = []
    for j, (coeff, (ex, ey, _)) in enumerate(eq.terms):
        if j != carrier:
            terms.append((coeff, (ex, ey, 0)))
    ccoeff, (cx, cy, _) = eq.terms[carrier]
    terms.append((ccoeff, (cx, cy, 1)))
    return AffineEquation(tuple(terms))


# ---------------------------------------------------------------------------
# Plane projective model of the generic fiber
# ---------------------------------------------------------------------------

class PlaneModel(NamedTuple):
    """The generic fiber of a minimal fibration as a plane projective curve.

    ``exponents[i]`` is the exponent triple of the i-th monomial over
    (x, y, z); the last monomial is the one multiplied by the parameter t.
    ``kernel`` is the primitive integer vector k with k . exponents = 0, the
    unique (up to sign, fixed by k[3] > 0) linear relation among the four
    exponent vectors.  Its entries sum to 0.
    """

    exponents: tuple[tuple[int, int, int], ...]
    degree: int
    kernel: tuple[int, int, int, int]
    coefficients: tuple[Fraction, Fraction, Fraction, Fraction]


def plane_model(minimal: MinimalFibration) -> PlaneModel:
    """Homogenize the generic fiber g(x, y, t0) to a plane quartic-of-monomials
    and compute the relation vector among the four monomials."""
    eq = minimal.equation
    if eq.t_exponents() != (0, 0, 0, 1):
        raise ValidationError("plane_model expects a minimal fibration")
    pairs = [(ex, ey) for _, (ex, ey, _) in eq.terms]
    degree = max(ex + ey for ex, ey in pairs)
    exponents = tuple((ex, ey, degree - ex - ey) for ex, ey in pairs)

    # no variable may divide all four monomials; guaranteed upstream, but the
    # kernel computation below silently relies on it, so check loudly
    for j in range(3):
        if min(row[j] for row in exponents) != 0:
            raise AssertionError(f"variable {j} divides every monomial")

    kernel = left_kernel_normalized(exponents)
    if sum(kernel) != 0:
        raise AssertionError(f"kernel {kernel} of a plane model must sum to 0")
    coeffs = tuple(c for c, _ in eq.terms)
    return PlaneModel(exponents, degree, kernel, coeffs)  # type: ignore[arg-type]
