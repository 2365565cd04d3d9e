"""Singular fibers of a minimal four-monomial fibration.

Everything here works off the plane projective model: four monomials
N1..N4 in (x, y, z) of common degree, pairwise distinct, with the parameter
t multiplying N4, and the primitive relation vector k (k . exponents = 0,
sum(k) = 0, k[3] > 0).

``singular_locus`` evaluates the closed-form criterion: away from t = 0 and
t = infinity the fiber over t0 is singular exactly when

    t0^{k4} = prod_i k_i^{k_i} / prod_i coeff_i^{k_i},

a single orbit of values (the "away" orbit), which the returned
``SingularLocus`` carries.  ``oracle.discriminant_oracle`` is the second,
independent route to the singular fibers: it never looks at k.

The structure classification (``classify_trichotomy``) reads the plane
model and its locus, and splits minimal fibrations three ways, by the shape
of k:

1. the t-monomial repeats another monomial (the locus is ``degenerate``) --
   the family is a fixed curve with one coefficient moving, degenerating at
   the single t given by the locus;
2. some k_i = 0 (i < 4) -- the generic fiber is a cyclic cover u^a = psi(v)
   of the line with a three-term psi, made explicit by
   ``superelliptic_form``; ``generic_fiber_genus`` is Riemann-Hurwitz on
   a and the three exponents of psi;
3. all k_i != 0 -- no cyclic-cover form exists, the away fibers are
   expected to be nodal, and the branch carries the locus.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Union

from .errors import ValidationError
from .exact import hermite, rational_kth_roots
from .reduction import PlaneModel

# ---------------------------------------------------------------------------
# Closed-form singular locus
# ---------------------------------------------------------------------------


class SingularLocus(NamedTuple):
    """The away orbit of singular fibers: the solutions of t^exponent = value.

    The locus only involves t^exponent, so the order-``exponent`` rotations
    of the base permute its members.  ``rational_points`` lists the rational
    ones (0, 1 or 2); the rest live in a cyclotomic-radical extension.

    When the moving monomial duplicates monomial ``duplicate_index`` the
    locus is ``degenerate``: the fibration is m1 + m2 + (gamma_i + gamma_4 t)
    m_i, the kernel is e_4 - e_i, and t^1 = -gamma_i/gamma_4 is its single
    degenerate fiber, with no closed form (``oracle.oracle_matches_locus``
    refuses).
    """

    exponent: int
    value: Fraction
    rational_points: tuple[Fraction, ...]
    duplicate_index: Optional[int] = None

    @property
    def degenerate(self) -> bool:
        return self.duplicate_index is not None

    @property
    def negation_invariant(self) -> bool:
        """Is the away locus stable under t -> -t?"""
        return self.exponent % 2 == 0


# str() of an int stops at this many digits, and the locus value is printed
_MAX_VALUE_DIGITS = 4300


def _kernel_product(plane: PlaneModel) -> Fraction:
    """prod k_i^{k_i} * gamma_i^{-k_i} over the nonzero kernel entries.

    Raises ValidationError, before any power is formed, when the numerator or
    denominator of the product before cancelling could have more than
    _MAX_VALUE_DIGITS digits; the bound adds up bit lengths.
    """
    bits = [0, 0]  # of the numerator and the denominator
    for ki, coeff in zip(plane.kernel, plane.coefficients):
        m, side = abs(ki), int(ki < 0)
        bits[side] += m * (m.bit_length() + coeff.denominator.bit_length())
        bits[1 - side] += m * abs(coeff.numerator).bit_length()
    if max(bits) * 30103 > _MAX_VALUE_DIGITS * 100000:  # log10(2) < 0.30103
        raise ValidationError(
            f"the singular-locus value could have more than {_MAX_VALUE_DIGITS} digits"
        )
    # k^k c^-k = (k d / n)^k for c = n/d, read as (n / (k d))^|k| when k < 0
    numer = denom = 1
    for ki, coeff in zip(plane.kernel, plane.coefficients):
        m = abs(ki)
        outer, inner = (ki * coeff.denominator) ** m, coeff.numerator**m
        if ki > 0:
            numer, denom = numer * outer, denom * inner
        else:
            numer, denom = numer * inner, denom * outer
    return Fraction(numer, denom)


def singular_locus(plane: PlaneModel) -> SingularLocus:
    """Evaluate the closed-form locus from the relation vector and coefficients."""
    value = _kernel_product(plane)
    exponent = plane.kernel[3]
    points = tuple(rational_kth_roots(value, exponent))
    for i in range(3):
        if plane.exponents[i] == plane.exponents[3]:
            return SingularLocus(exponent, value, points, i)
    return SingularLocus(exponent, value, points)


# ---------------------------------------------------------------------------
# Trichotomy
# ---------------------------------------------------------------------------


class Isotrivial(NamedTuple):
    """The t-monomial duplicates monomial ``duplicate_index``: the family is
    one fixed curve with a moving coefficient, degenerating at one value."""

    branch = "isotrivial"
    duplicate_index: int
    degeneration_value: Fraction


class SuperellipticForm(NamedTuple):
    """Normal form u^a = psi(v) of the generic fiber as a cyclic cover.

    ``terms`` are the three monomials of psi: (coefficient, exponent,
    carries_t), exponents pairwise distinct and >= 0, exactly one term
    flagged as carrying the parameter.
    """

    cover_exponent: int
    terms: tuple[tuple[Fraction, int, bool], ...]


class Superelliptic(NamedTuple):
    branch = "superelliptic"
    form: SuperellipticForm
    generic_genus: int
    constant_j: Optional[Fraction]


class SemistableAway(NamedTuple):
    """All k_i nonzero: no cyclic-cover structure, singular away fibers are
    isolated and expected nodal."""

    branch = "semistable_away"
    locus: SingularLocus


Trichotomy = Union[Isotrivial, Superelliptic, SemistableAway]


def classify_trichotomy(plane: PlaneModel, locus: SingularLocus) -> Trichotomy:
    """The structure branch of the fibration whose plane model is ``plane``
    and whose closed-form locus is ``locus`` (a degenerate locus is the
    isotrivial branch; the semistable branch carries the locus)."""
    if locus.degenerate:
        return Isotrivial(locus.duplicate_index, locus.value)
    k = plane.kernel
    if any(k[i] == 0 for i in range(3)):
        form = superelliptic_form(plane)
        genus = generic_fiber_genus(form)
        if genus < 1:
            raise ValidationError(
                "generic fiber is rational (cyclic-cover genus 0); the "
                "trichotomy assumes positive genus"
            )
        jval = None
        if genus == 1 and form.cover_exponent >= 3:
            jval = constant_j_value(form.cover_exponent)
        return Superelliptic(form, genus, jval)
    return SemistableAway(locus)


# ---------------------------------------------------------------------------
# Superelliptic normal form
# ---------------------------------------------------------------------------


def superelliptic_form(plane: PlaneModel) -> SuperellipticForm:
    """Rewrite the generic fiber as u^a = psi(v).

    When k_i = 0 the other three monomials have collinear exponent vectors.
    A unimodular change of torus coordinates sends the common direction to
    the v-axis (its other column is the Bezout pair of that direction, the
    first row of U in ``exact.hermite`` of the direction as a column),
    putting those three at one u-level and the k_i = 0 monomial at another;
    the level gap is the cover exponent a, and dividing through
    (after a final u -> u * v^s twist to clear negative exponents, s minimal)
    leaves psi as minus the three-term side over the off-line coefficient.
    """
    k = plane.kernel
    zero_positions = [i for i in range(3) if k[i] == 0]
    if len(zero_positions) != 1:
        raise ValidationError("superelliptic form needs exactly one k_i = 0, i < 4")
    off = zero_positions[0]
    pairs = [(ex, ey) for ex, ey, _ in plane.exponents]
    coeffs = plane.coefficients
    line = [j for j in range(4) if j != off]

    (a1, b1), (a2, b2) = pairs[line[0]], pairs[line[1]]
    da, db = a2 - a1, b2 - b1
    g = gcd(da, db)
    if g == 0:  # raised, not asserted: the checks here hold under -O too
        raise AssertionError("collinear monomials must be distinct")
    da, db = da // g, db // g
    if da < 0 or (da == 0 and db < 0):
        da, db = -da, -db
    # all three line points must actually be collinear along (da, db)
    (a3, b3) = pairs[line[2]]
    if (a3 - a1) * db != (b3 - b1) * da:
        raise AssertionError("kernel zero without collinearity")

    # unimodular M with (da, db) . M = (0, 1): columns (-db, da) and the
    # Bezout pair of the Hermite form of the column (da, db); new exponents
    # of (p, q) are (p, q) . M
    _, ((mu, nu), _) = hermite([[da], [db]])

    def transform(p: int, q: int) -> tuple[int, int]:
        return (-db * p + da * q, mu * p + nu * q)

    new_pairs = [transform(*pq) for pq in pairs]
    levels = {new_pairs[j][0] for j in line}
    if len(levels) != 1:
        raise AssertionError("line monomials must share a u-level")
    level = levels.pop()
    off_level, off_v = new_pairs[off]
    a = abs(off_level - level)
    if a < 1:
        raise AssertionError("off-line monomial cannot share the line's u-level")

    raw = [new_pairs[j][1] - off_v for j in line]
    shift = max(0, -(min(raw) // a)) * a
    exponents = [r + shift for r in raw]
    if len(set(exponents)) != 3:
        raise AssertionError(f"cover exponents {exponents} must be distinct")
    terms = tuple(
        (-coeffs[j] / coeffs[off], e, j == 3) for j, e in zip(line, exponents)
    )
    return SuperellipticForm(a, terms)


def generic_fiber_genus(form: SuperellipticForm) -> int:
    """Genus of the smooth model of u^a = psi(v), psi = v^m * (trinomial
    with nonzero constant term) of degree top.

    For all but finitely many t the trinomial is squarefree with nonzero
    roots, so psi has top - m >= 1 simple roots (the cover is irreducible)
    and, when m > 0, one root of multiplicity m at v = 0.  Riemann-Hurwitz
    over the v-line sums a - gcd(a, multiplicity) over the branch places:

        2g - 2 = -2a + (a - gcd(a, top)) + (a - gcd(a, m)) + (top - m)(a - 1),

    the terms being v = infinity, v = 0 (0 when m = 0, as gcd(a, 0) = a)
    and the simple roots.
    """
    a = form.cover_exponent
    m, _, top = sorted(e for _, e, _ in form.terms)
    total = -2 * a + (a - gcd(a, top)) + (a - gcd(a, m)) + (top - m) * (a - 1)
    if total % 2:  # raised, not asserted: the check holds under -O too
        raise AssertionError("Riemann-Hurwitz gives an odd 2g - 2")
    return total // 2 + 1


def constant_j_value(a: int) -> Fraction:
    """j-invariant of a genus-one cyclic cover of exponent a in {3, 4, 6}.

    Such a curve has an automorphism of order a >= 3 fixing the base map, so
    j is 0 or 1728 independently of t: 1728 exactly for a = 4.
    """
    if a not in (3, 4, 6):
        raise ValidationError(f"constant j needs cover exponent 3, 4 or 6, not {a}")
    return Fraction(1728) if a == 4 else Fraction(0)
