"""Singular fibers of a minimal four-monomial fibration.

Everything here works off the plane projective model: four monomials
N1..N4 in (x, y, z) of common degree, pairwise distinct, with the parameter
t multiplying N4, and the primitive relation vector k (k . exponents = 0,
sum(k) = 0, k[3] > 0).

Two independent routes to the singular fibers are provided:

* ``singular_locus`` evaluates the closed-form criterion: away from t = 0
  and t = infinity the fiber over t0 is singular exactly when

      t0^{k4} = prod_i k_i^{k_i} / prod_i coeff_i^{k_i},

  a single orbit of values (the "away" orbit), which the returned
  ``SingularLocus`` carries.

* ``discriminant_oracle`` knows nothing about k.  It stratifies the plane
  (torus, the three punctured coordinate lines, the three vertices) and
  eliminates the curve variables from the critical equations on each
  stratum with Groebner bases, returning the product of the eliminants.
  Strata that are singular for every t (this happens at a vertex when every
  monomial vanishes there to order >= 2) say nothing about any particular
  fiber and are dropped.  Wherever a chart variable is kept off 0, its
  critical equation is the Euler derivative x * df/dx rather than df/dx:
  with x a unit the two generate the same ideal, hence the same reduced
  basis and eliminant, and x * df/dx keeps the support of f, so Buchberger
  meets binomials at once instead of chasing S-pairs between f and its
  lower-degree partials.  It is the one user of sympy: the equations are
  built as exponent dicts with ``Fraction`` coefficients, and only become
  elements of sympy's sparse polynomial rings over QQ for Buchberger's
  algorithm, which runs on them directly.  They cross over in one place,
  ``_element``, which makes each coefficient a QQ element from its
  numerator and denominator, into a ring that ``_ring`` builds once per
  generator tuple and order; so the oracle makes no sympy expression.
  sympy is imported when the oracle runs.

The structure classification (``classify_trichotomy``) splits minimal
fibrations three ways, by the shape of k:

1. the t-monomial repeats another monomial (the locus is ``degenerate``) --
   the family is a fixed curve with one coefficient moving, degenerating at
   the single t given by the locus;
2. some k_i = 0 (i < 4) -- the generic fiber is a cyclic cover u^a = psi(v)
   of the line, made explicit by ``superelliptic_form``;
3. all k_i != 0 -- no cyclic-cover form exists, the away fibers are
   expected to be nodal, and the branch carries the locus.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import ceil, gcd
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .errors import ValidationError
from .exact import rational_kth_roots
from .reduction import MinimalFibration, PlaneModel

if TYPE_CHECKING:
    from sympy.polys.rings import PolyElement, PolyRing

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
    degenerate fiber, with no closed form (``oracle_matches_locus`` refuses).
    """

    exponent: int
    value: Fraction
    rational_points: tuple[Fraction, ...]
    degenerate: bool = False
    duplicate_index: Optional[int] = None

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
            return SingularLocus(
                exponent, value, points, degenerate=True, duplicate_index=i
            )
    return SingularLocus(exponent, value, points)


# ---------------------------------------------------------------------------
# Discriminant oracle (stratified elimination; independent of k)
# ---------------------------------------------------------------------------


# A polynomial under construction is a dict from exponent tuples to Fraction
# coefficients.  The plane family is keyed by (a, b, c, e), the term
# coefficient * x^a y^b z^c t^e; a chart or a stratum drops a coordinate's
# exponent from every key.


def _family(plane: PlaneModel) -> dict:
    """The plane family; only the fourth monomial carries t."""
    return {
        (*exponents, int(i == 3)): coeff
        for i, (exponents, coeff) in enumerate(zip(plane.exponents, plane.coefficients))
    }


def _at(poly: dict, j: int, value: int) -> dict:
    """``poly`` with its variable j set to ``value``, 0 or 1.

    Setting a coordinate of the homogeneous family to 1 merges no terms, and
    setting a variable to 0 only drops terms."""
    return {m[:j] + m[j + 1 :]: c for m, c in poly.items() if value or not m[j]}


def _diff(poly: dict, j: int) -> dict:
    """The partial derivative of ``poly`` by its variable j."""
    return {
        m[:j] + (m[j] - 1,) + m[j + 1 :]: m[j] * c for m, c in poly.items() if m[j]
    }


def _euler(poly: dict, j: int) -> dict:
    """The Euler derivative x_j * d(poly)/dx_j of ``poly`` by its variable j,
    which has the support of ``poly`` less the terms free of x_j."""
    return {m: m[j] * c for m, c in poly.items() if m[j]}


@lru_cache(maxsize=None)  # the strata use nine (names, order) pairs
def _ring(names: tuple, order: str) -> PolyRing:
    """QQ[names] in the monomial ``order``, built once per generator tuple
    and order: sympy keeps no cache of its rings, so each ``PolyRing`` call
    parses the names and generates the monomial operations again."""
    from sympy.polys.domains import QQ
    from sympy.polys.rings import PolyRing

    return PolyRing(names, QQ, order)


def _element(ring: PolyRing, poly: dict) -> PolyElement:
    """The element of ``ring`` with the terms of ``poly``, a dict from
    exponent tuples of the ring's generators to rationals (``Fraction``,
    ``int`` or QQ elements).

    Each coefficient becomes a QQ element from its numerator and denominator;
    handed over as it is, a ``Fraction`` would reach sympy's generic
    conversion, which goes through a sympy ``Rational`` expression.  Zero
    coefficients drop, as in ``ring.from_dict``.
    """
    qq = ring.domain
    return ring.from_dict({m: qq(c.numerator, c.denominator) for m, c in poly.items()})


def _t_ring() -> PolyRing:
    """QQ[t], the ring of the oracle polynomial."""
    return _ring(("t",), "lex")


def _in_t(poly: dict) -> PolyElement:
    """The QQ[t] element of ``poly``, keyed by the exponent of t alone."""
    return _element(_t_ring(), {(e,): c for e, c in poly.items()})


def _basis(system: list, nonzero: str, order: str) -> list:
    """Reduced Groebner basis over QQ of ``system`` and u * prod(nonzero) - 1,
    which keeps the chart variables ``nonzero`` off 0.

    ``system`` holds dicts keyed by the exponents of ``nonzero`` and then of
    t.  In ``lex`` order the generators are (u, *nonzero, t), so the basis
    eliminates all but t; a ``grevlex`` system is free of t, which is then no
    generator.  sympy's generic ``groebner`` would run the same Buchberger
    algorithm on the same ring elements.  The reduced basis depends on the
    ideal alone, so a caller may hand in any generators of it: the oracle
    passes x * df/dx for df/dx wherever x is one of ``nonzero``.  The
    coefficients stay ``Fraction``s in the dicts; ``_element`` makes them QQ
    elements of the ring ``_ring`` keeps for these generators and order.
    """
    from sympy.polys.groebnertools import groebner

    size = len(nonzero) + (order == "lex")
    ring = _ring(("u", *nonzero, "t")[: size + 1], order)
    polys = [
        _element(ring, {(0, *m[:size]): c for m, c in p.items()}) for p in system if p
    ]
    unit = (1,) * (len(nonzero) + 1) + (0,) * (size - len(nonzero))
    polys.append(_element(ring, {unit: 1, (0,) * (size + 1): -1}))
    return groebner(polys, ring)


def _eliminant(system: list, nonzero: str) -> Optional[PolyElement]:
    """Generator of (ideal of ``system`` and u * prod(nonzero) - 1)
    intersected with QQ[t], as ``_basis`` takes them.

    Returns None when the elimination ideal is zero (the stratum is critical
    for every t), 1 when the system is infeasible.  The generator is sympy's:
    monic, or primitive with a positive leading coefficient when every
    coefficient of ``system`` is an integer (sympy then works over ZZ).
    """
    in_t = [
        g for g in _basis(system, nonzero, "lex")
        if not any(any(m[:-1]) for m in g.itermonoms())
    ]
    if not in_t:
        return None
    g = in_t[0]  # a reduced basis meets QQ[t] in at most one element
    if all(c.denominator == 1 for p in system for c in p.values()):
        g = g.clear_denoms()[1]
    return _in_t({m[-1]: c for m, c in g.items()})


def _vertex_gcd(conditions: list) -> PolyElement:
    """gcd of the QQ[t] polynomials ``conditions`` (dicts keyed by the
    exponent of t), normalized as ``sympy.gcd`` normalizes it: over ZZ the
    content stays and the leading coefficient is positive, over QQ it is
    monic."""
    g = reduce(lambda f, h: f.gcd(h), map(_in_t, conditions)).monic()
    coefficients = [c for p in conditions for c in p.values()]
    if all(c.denominator == 1 for c in coefficients):
        g = g.clear_denoms()[1] * gcd(*(c.numerator for c in coefficients))
    return g


def _newton_boundary(points):
    """Vertices of the compact Newton boundary of a plane curve germ.

    ``points`` are the exponent pairs of the local equation; the boundary is
    the chain of negative-slope edges of the convex hull of points + (Z>=0)^2,
    returned as hull vertices sorted by first coordinate.
    """
    pts = sorted(set(points))
    minimal = [
        p
        for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    hull: list[tuple[int, int]] = []
    for p in minimal:  # already sorted: d1 ascending, d2 strictly descending
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _persistent_vertex_eliminant(coeff_at: dict, names: str) -> Optional[PolyElement]:
    """t-values where a persistently singular vertex degenerates further.

    ``coeff_at`` maps each exponent pair of the chart variables ``names`` to
    its coefficient, a dict keyed by the exponent of t.  The germ at the
    vertex is singular for every t, so the fiber only differs from its
    neighbours there when the equisingularity type jumps.  With the Newton
    boundary constant in t that happens exactly when some boundary face
    polynomial becomes critical on the torus, or when a boundary monomial's
    coefficient vanishes (changing the boundary itself).  Faces that are
    degenerate for every t carry no information and make us give up (None).
    """
    hull = _newton_boundary(coeff_at)
    result = _t_ring().one
    for point in hull:
        if any(coeff_at[point]):  # the coefficient carries t
            result *= _in_t(coeff_at[point])
    for start, end in zip(hull, hull[1:]):
        dx, dy = end[0] - start[0], end[1] - start[1]
        face = {
            (a, b, e): c
            for (a, b), coefficient in coeff_at.items()
            if (a - start[0]) * dy == (b - start[1]) * dx
            and min(start[0], end[0]) <= a <= max(start[0], end[0])
            for e, c in coefficient.items()
        }
        system = [face, _euler(face, 0), _euler(face, 1)]
        if any(m[2] for m in face):
            eliminant = _eliminant(system, names)
            if eliminant is None:
                return None
            result *= eliminant
        elif _basis(system, names, "grevlex") != [1]:
            return None
    return result


def discriminant_oracle(plane: PlaneModel) -> PolyElement:
    """Product of per-stratum eliminants, a polynomial in QQ[t] whose roots
    are the parameters with a singular member (plus possibly t = 0 factors).

    This route never looks at the relation vector, which makes it a genuine
    second opinion on ``singular_locus``.  On the torus (and on the Newton
    faces of a persistent vertex) the critical system is (f, x df/dx,
    y df/dy): u x y - 1 makes x and y units, and df/dx = u y (x df/dx) -
    df/dx (u x y - 1), so it generates the ideal of (f, df/dx, df/dy).  On a
    punctured line the variable set to 0 keeps its plain partial and the
    other one, a unit there, its Euler derivative.
    """
    family = _family(plane)
    contributions = []

    # the torus and the three punctured lines, each as the coordinate set to
    # 1 in its chart and the chart variable set to 0 (None on the torus);
    # every other chart variable is nonzero
    for one, zero in (
        (2, None),  # torus (chart z = 1, x y != 0)
        (2, 0),  # punctured line x = 0 (chart z = 1, y != 0)
        (2, 1),  # punctured line y = 0 (chart z = 1, x != 0)
        (1, 1),  # punctured line z = 0 (chart y = 1, x != 0)
    ):
        chart, names = _at(family, one, 1), "xyz".replace("xyz"[one], "")
        # a variable set to 0 keeps its partial, a unit one takes x * d/dx
        system = [chart] + [(_diff if j == zero else _euler)(chart, j) for j in (0, 1)]
        if zero is not None:
            system = [_at(g, zero, 0) for g in system]
            names = names.replace(names[zero], "")
        contributions.append(_eliminant(system, names))

    # the three vertices, each the origin of the chart where its coordinate
    # is 1: multiplicity >= 2 there means every monomial of local degree <= 1
    # has vanishing t-coefficient
    for one in (2, 1, 0):  # (0 : 0 : 1), (0 : 1 : 0), (1 : 0 : 0)
        coeff_at: dict = {}
        for (a, b, e), c in _at(family, one, 1).items():
            coeff_at.setdefault((a, b), {})[e] = c
        conditions = [c for (a, b), c in coeff_at.items() if a + b <= 1]
        if conditions:
            contributions.append(_vertex_gcd(conditions))
        else:
            names = "xyz".replace("xyz"[one], "")
            contributions.append(_persistent_vertex_eliminant(coeff_at, names))

    oracle = _t_ring().one
    for p in contributions:
        # None: a persistent stratum, singular for all t, says nothing
        if p is not None and p.degree() > 0:
            oracle *= p
    return oracle


def oracle_matches_locus(oracle: PolyElement, locus: SingularLocus) -> bool:
    """Do the nonzero roots of the oracle agree exactly with the away orbit?

    Compares the squarefree part of the oracle, with t divided out, against
    t^{k4} - c up to a constant.  A degenerate locus has no closed form to
    compare with, and is refused.
    """
    if locus.degenerate:  # raised, not asserted: must hold under -O too
        raise AssertionError("degenerate locus has no closed form")
    if not oracle:
        return False
    squarefree = oracle.sqf_part()
    low = min(e for (e,) in squarefree.itermonoms())
    reduced = {(e - low,): c for (e,), c in squarefree.items()}
    orbit = {(locus.exponent,): 1, (0,): -locus.value}
    return oracle.ring.from_dict(reduced).monic() == _element(oracle.ring, orbit)

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


def classify_trichotomy(
    minimal: MinimalFibration, plane: PlaneModel, locus: SingularLocus
) -> Trichotomy:
    """The structure branch of ``minimal``; ``plane`` and ``locus`` are its
    plane model and closed-form locus (a degenerate locus is the isotrivial
    branch; the semistable branch carries the locus)."""
    if locus.degenerate:
        return Isotrivial(locus.duplicate_index, locus.value)
    k = plane.kernel
    if any(k[i] == 0 for i in range(3)):
        form = superelliptic_form(minimal, plane)
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


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, u) with a*s + b*u = g = gcd(a, b); iterative, deterministic."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_u, u = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_u, u = u, old_u - q * u
    if old_r < 0:
        old_r, old_s, old_u = -old_r, -old_s, -old_u
    return old_r, old_s, old_u


def superelliptic_form(
    minimal: MinimalFibration, plane: PlaneModel
) -> SuperellipticForm:
    """Rewrite the generic fiber as u^a = psi(v).

    When k_i = 0 the other three monomials have collinear exponent vectors.
    A unimodular change of torus coordinates sends the common direction to
    the v-axis, putting those three at one u-level and the k_i = 0 monomial
    at another; the level gap is the cover exponent a, and dividing through
    (after a final u -> u * v^s twist to clear negative exponents, s minimal)
    leaves psi as minus the three-term side over the off-line coefficient.
    """
    k = plane.kernel
    zero_positions = [i for i in range(3) if k[i] == 0]
    if len(zero_positions) != 1:
        raise ValidationError("superelliptic form needs exactly one k_i = 0, i < 4")
    off = zero_positions[0]
    pairs = [(ex, ey) for _, (ex, ey, _) in minimal.equation.terms]
    coeffs = [c for c, _ in minimal.equation.terms]
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

    # unimodular M with (da, db) . M = (0, 1): columns (-db, da) and a Bezout
    # pair; new exponents of (p, q) are (p, q) . M
    _, mu, nu = _egcd(da, db)

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
    shift = max(0, ceil(-min(raw) / a)) * a
    exponents = [r + shift for r in raw]
    if len(set(exponents)) != 3:
        raise AssertionError(f"cover exponents {exponents} must be distinct")
    terms = tuple(
        (-coeffs[j] / coeffs[off], e, j == 3) for j, e in zip(line, exponents)
    )
    return SuperellipticForm(a, terms)


def generic_profile(form: SuperellipticForm) -> list[int]:
    """Multiplicities of the distinct roots of psi for generic t.

    psi = v^m * (trinomial with nonzero constant term); for all but finitely
    many t the trinomial is squarefree with nonzero roots, so the profile is
    one root of multiplicity m (if m > 0) plus deg - m simple roots.
    """
    exps = sorted(e for _, e, _ in form.terms)
    m = exps[0]
    simple = exps[2] - m
    return ([m] if m > 0 else []) + [1] * simple


def superelliptic_genus(cover_exponent: int, multiplicities: Sequence[int]) -> int:
    """Genus of the smooth model of u^a = psi(v) from the multiplicity profile
    of psi (one entry per distinct root; the degree is their sum).

    Riemann-Hurwitz over the v-line: 2g - 2 = -2a + sum over branch places
    (the roots and v = infinity) of (a - gcd(a, multiplicity)).
    """
    a = cover_exponent
    if a < 1:
        raise ValidationError("cover exponent must be >= 1")
    if any(m < 1 for m in multiplicities):
        raise ValidationError("multiplicities must be >= 1")
    degree = sum(multiplicities)
    component_count = gcd(a, gcd(degree, *multiplicities) if multiplicities else a)
    if component_count > 1:
        raise ValidationError(
            f"cover splits into {component_count} components; genus undefined"
        )
    total = -2 * a + (a - gcd(a, degree))
    for m in multiplicities:
        total += a - gcd(a, m)
    if total % 2:
        raise AssertionError("Riemann-Hurwitz gives an odd 2g - 2")
    return total // 2 + 1


def generic_fiber_genus(form: SuperellipticForm) -> int:
    return superelliptic_genus(form.cover_exponent, generic_profile(form))


def constant_j_value(a: int) -> Fraction:
    """j-invariant of a genus-one cyclic cover of exponent a in {3, 4, 6}.

    Such a curve has an automorphism of order a >= 3 fixing the base map, so
    j is 0 or 1728 independently of t: 1728 exactly for a = 4.
    """
    if a not in (3, 4, 6):
        raise ValidationError(f"constant j needs cover exponent 3, 4 or 6, not {a}")
    return Fraction(1728) if a == 4 else Fraction(0)
