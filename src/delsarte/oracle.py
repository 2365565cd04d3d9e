"""The ``--verify`` elimination oracle: the parameters t with a singular
member, found without the relation vector.

``discriminant_oracle`` knows nothing about k, which makes it a genuine
second opinion on ``singular.singular_locus``.  It stratifies the plane
(torus, the three punctured coordinate lines, the three vertices) and
eliminates the curve variables from the critical equations on each stratum
with Groebner bases, returning the product of the eliminants.  Strata that
are singular for every t (this happens at a vertex when every monomial
vanishes there to order >= 2) say nothing about any particular fiber and are
dropped.  Wherever a chart variable is kept off 0, its critical equation is
the Euler derivative x * df/dx rather than df/dx: with x a unit the two
generate the same ideal, hence the same reduced basis and eliminant, and
x * df/dx keeps the support of f, so Buchberger meets binomials at once
instead of chasing S-pairs between f and its lower-degree partials.

The equations are dicts from exponent tuples to ``Fraction`` coefficients,
and ``_basis`` computes their reduced Groebner basis with the standard
library alone: Buchberger's algorithm with normal selection and the
Gebauer-Moeller criteria, as in Becker and Weispfenning, "Groebner Bases"
(1993), p. 232, over integer coefficients kept primitive.  Every basis is
taken in one order, lex with t last, which eliminates the curve variables.
A Newton face free of t needs no other order: its elimination ideal is the
unit ideal or zero, and a reduced basis is [1] exactly for the unit ideal,
in every order.  A reduced basis depends only on the ideal and the monomial
order, so the basis is the one any other implementation returns, up to the
scaling of each element.  Eliminants, gcds and the squarefree test run on
``exact.QPoly``.  ``oracle_matches_locus`` compares the oracle's
nonzero roots with the closed-form away orbit.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import add, ge, itemgetter, sub
from typing import TYPE_CHECKING, Optional

from .exact import T, QPoly, primitive_integer_vector

if TYPE_CHECKING:
    from .reduction import PlaneModel
    from .singular import SingularLocus

# ---------------------------------------------------------------------------
# Buchberger's algorithm over Z
# ---------------------------------------------------------------------------
#
# Inside the kernel a polynomial is a pair (lm, poly): ``poly`` a dict from
# exponent tuples to ints with no common content and a positive leading
# coefficient, and ``lm`` its leading monomial.  That scaling is unique, so
# it stands for the monic polynomial over Q.


def _primitive(poly: dict) -> tuple:
    """(lm, poly over its content, with a positive leading coefficient)."""
    lm = max(poly)
    content = gcd(*poly.values())
    if poly[lm] < 0:
        content = -content
    if content != 1:
        poly = {m: c // content for m, c in poly.items()}
    return lm, poly


def _reduce(poly: dict, divisors: list) -> Optional[tuple]:
    """The remainder of ``poly`` on division by ``divisors``, (lm, poly)
    pairs tried in their order, as an (lm, poly) pair; None when it is 0.

    The division is fraction-free: a term c m that the leading term a n of
    a divisor g divides is cancelled by scaling the rest of ``poly`` and of
    the remainder by a / gcd(a, c) when a does not divide c, so the result
    is an integer multiple of the remainder over Q, made primitive.
    """
    poly, rest = dict(poly), {}
    while poly:
        m = max(poly)
        for lm, g in divisors:
            if all(map(ge, m, lm)):
                break
        else:
            rest[m] = poly.pop(m)
            continue
        c, lead = poly.pop(m), g[lm]
        q, r = divmod(c, lead)
        if r:
            k = gcd(c, lead)
            scale, q = lead // k, c // k
            for n in poly:
                poly[n] *= scale
            for n in rest:
                rest[n] *= scale
        shift = tuple(map(sub, m, lm))
        for n, d in g.items():
            if n != lm:
                n = tuple(map(add, n, shift))
                v = poly.get(n, 0) - q * d
                if v:
                    poly[n] = v
                else:
                    del poly[n]
    return _primitive(rest) if rest else None


def _s_polynomial(f: tuple, g: tuple) -> dict:
    """An integer multiple of the S-polynomial of f and g."""
    (lf, pf), (lg, pg) = f, g
    top = tuple(map(max, lf, lg))
    k = gcd(pf[lf], pg[lg])
    a, b = pg[lg] // k, pf[lf] // k
    shift = tuple(map(sub, top, lf))
    s = {tuple(map(add, n, shift)): a * c for n, c in pf.items() if n != lf}
    shift = tuple(map(sub, top, lg))
    for n, c in pg.items():
        if n != lg:
            n = tuple(map(add, n, shift))
            v = s.get(n, 0) - b * c
            if v:
                s[n] = v
            else:
                del s[n]
    return s


def _update(f: list, basis: set, pairs: dict, new: int) -> set:
    """The basis after f[new] joins ``basis``; ``pairs``, the critical pairs
    keyed to the lcm of their leading monomials, is updated in place by the
    Gebauer-Moeller criteria (Becker-Weispfenning, p. 230)."""
    mh = f[new][0]
    lcms = {g: tuple(map(max, mh, f[g][0])) for g in basis}
    coprime = {g for g in basis if not any(map(min, mh, f[g][0]))}

    # the old pairs that f[new] does not make redundant
    for (i, j), top in list(pairs.items()):
        if (
            all(map(ge, top, mh))
            and tuple(map(max, f[i][0], mh)) != top
            and tuple(map(max, f[j][0], mh)) != top
        ):
            del pairs[i, j]

    # the new pairs (new, g): keep one per least common multiple, and drop
    # those whose leading monomials are coprime
    waiting, chosen = set(basis), []
    while waiting:
        g = waiting.pop()
        top = lcms[g]
        if g in coprime or not any(
            all(map(ge, top, lcms[i])) for i in (*waiting, *chosen)
        ):
            chosen.append(g)
    pairs.update(((new, g), lcms[g]) for g in chosen if g not in coprime)

    basis = {g for g in basis if not all(map(ge, f[g][0], mh))}
    basis.add(new)
    return basis


def _buchberger(polys: list) -> list:
    """The reduced lex Groebner basis of the ideal of ``polys``, nonzero
    integer dicts, as (lm, poly) pairs by descending leading monomial.

    The inputs join the basis in their own order, the pair with the least
    lcm of leading monomials goes first, and the basis is reduced at the
    end; an element whose leading monomial another one divides reduces to 0
    then.  A reduced basis depends only on the ideal, so no step order
    changes the result, but one changes the cost: each S-polynomial is
    divided by the basis sorted by ascending leading monomial, without
    which some degree-80 inputs take over 20 times as long.
    """
    f = [_primitive(p) for p in polys]
    basis, pairs = set(), {}
    for i in range(len(f)):
        basis = _update(f, basis, pairs, i)
    divisors = sorted((f[g] for g in basis), key=itemgetter(0))
    while pairs:
        i, j = min(pairs, key=pairs.get)
        del pairs[i, j]
        h = _reduce(_s_polynomial(f[i], f[j]), divisors)
        if h is not None:
            f.append(h)
            basis = _update(f, basis, pairs, len(f) - 1)
            divisors = sorted((f[g] for g in basis), key=itemgetter(0))

    result = [
        r for g in basis if (r := _reduce(f[g][1], [f[i] for i in basis if i != g]))
    ]
    return sorted(result, key=itemgetter(0), reverse=True)


def _basis(system: list) -> list:
    """Reduced lex Groebner basis of ``system`` and u * x1 * ... * xn - 1,
    which keeps the chart variables x1..xn off 0, in the generators
    (u, x1, ..., xn, t): integer dicts from exponent tuples, each primitive
    with a positive leading coefficient, by descending leading monomial.

    ``system`` holds dicts keyed by the exponents of x1..xn and then of t,
    with rational coefficients; each is scaled to integers before
    Buchberger's algorithm runs.  The first one, f, is never empty on a
    stratum (no variable divides all four plane monomials), so its keys
    give n.  With t last the basis eliminates all but t.  No second order
    is needed for a system free of t: its basis is [1] exactly for the unit
    ideal, in every order.  The reduced basis depends on the ideal alone,
    so a caller may hand in any generators of it: the oracle passes
    x * df/dx for df/dx wherever x is one of the chart variables.
    """
    polys = []
    for p in system:
        terms = {(0, *m): c for m, c in p.items() if c}
        if terms:
            scale = lcm(*(c.denominator for c in terms.values()))
            polys.append(
                {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}
            )
    size = len(next(iter(system[0])))  # x1..xn and t
    polys.append({(1,) * size + (0,): 1, (0,) * (size + 1): -1})
    return [p for _, p in _buchberger(polys)]


# ---------------------------------------------------------------------------
# Strata
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


def _in_qt(poly: dict) -> QPoly:
    """The polynomial in t of ``poly``, a dict keyed by the exponent of t."""
    coeffs = [0] * (max(poly) + 1)
    for e, c in poly.items():
        coeffs[e] = c
    return QPoly(coeffs)


def _integral(polys) -> bool:
    """Whether every coefficient of the dicts ``polys`` is an integer."""
    return all(c.denominator == 1 for p in polys for c in p.values())


def _eliminant(system: list) -> Optional[QPoly]:
    """Generator of (ideal of ``system`` and u * x1 * ... * xn - 1)
    intersected with Q[t], as ``_basis`` takes them.

    Returns None when the elimination ideal is zero (the stratum is critical
    for every t), 1 when the system is infeasible; a system free of t has
    one of the two.  The generator is monic, or primitive with a positive
    leading coefficient when every coefficient of ``system`` is an integer.
    """
    # the last element has the least leading monomial; in lex with t last
    # it lies in Q[t] when any element does, and then it is the only one
    last = _basis(system)[-1]
    if any(any(m[:-1]) for m in last):
        return None
    g = _in_qt({m[-1]: c for m, c in last.items()})
    return g if _integral(system) else g.monic()


def _vertex_gcd(conditions: list) -> QPoly:
    """gcd of the Q[t] polynomials ``conditions`` (dicts keyed by the
    exponent of t): when every coefficient is an integer, primitive with a
    positive leading coefficient times the content of all the coefficients,
    and monic otherwise."""
    g = reduce(QPoly.gcd, map(_in_qt, conditions), QPoly())  # gcd(0, f) is monic
    if _integral(conditions):
        content = gcd(*(c.numerator for p in conditions for c in p.values()))
        g = QPoly(primitive_integer_vector(g.coeffs)) * content
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


def _persistent_vertex_eliminant(coeff_at: dict) -> Optional[QPoly]:
    """t-values where a persistently singular vertex degenerates further.

    ``coeff_at`` maps each exponent pair of the two chart variables to its
    coefficient, a dict keyed by the exponent of t.  The germ at the
    vertex is singular for every t, so the fiber only differs from its
    neighbours there when the equisingularity type jumps.  With the Newton
    boundary constant in t that happens exactly when some boundary face
    polynomial becomes critical on the torus, or when a boundary monomial's
    coefficient vanishes (changing the boundary itself).  Faces that are
    degenerate for every t carry no information and make us give up (None).
    """
    hull = _newton_boundary(coeff_at)
    result = QPoly([1])
    for point in hull:
        if any(coeff_at[point]):  # the coefficient carries t
            result *= _in_qt(coeff_at[point])
    for start, end in zip(hull, hull[1:]):
        dx, dy = end[0] - start[0], end[1] - start[1]
        face = {
            (a, b, e): c
            for (a, b), coefficient in coeff_at.items()
            if (a - start[0]) * dy == (b - start[1]) * dx
            and min(start[0], end[0]) <= a <= max(start[0], end[0])
            for e, c in coefficient.items()
        }
        # a face free of t is critical on the torus for every t unless its
        # ideal is the unit ideal; on admitted input it is a binomial, which
        # never is critical there (k[3] != 0 rules out a third collinear
        # monomial free of t)
        eliminant = _eliminant([face, _euler(face, 0), _euler(face, 1)])
        if eliminant is None:
            return None
        result *= eliminant
    return result


def discriminant_oracle(plane: PlaneModel) -> QPoly:
    """Product of per-stratum eliminants, a polynomial in Q[t] whose roots
    are the parameters with a singular member (plus possibly t = 0 factors).

    On the torus (and on the Newton faces of a persistent vertex) the
    critical system is (f, x df/dx, y df/dy): u x y - 1 makes x and y units,
    and df/dx = u y (x df/dx) - df/dx (u x y - 1), so it generates the ideal
    of (f, df/dx, df/dy).  On a punctured line the variable set to 0 keeps
    its plain partial and the other one, a unit there, its Euler derivative.
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
        chart = _at(family, one, 1)
        # a variable set to 0 keeps its partial, a unit one takes x * d/dx
        system = [chart] + [(_diff if j == zero else _euler)(chart, j) for j in (0, 1)]
        if zero is not None:
            system = [_at(g, zero, 0) for g in system]
        contributions.append(_eliminant(system))

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
            contributions.append(_persistent_vertex_eliminant(coeff_at))

    oracle = QPoly([1])
    for p in contributions:
        # None: a persistent stratum, singular for all t, says nothing
        if p is not None and p.degree > 0:
            oracle *= p
    return oracle


def oracle_matches_locus(oracle: QPoly, locus: SingularLocus) -> bool:
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
    return squarefree.shift(-squarefree.low).monic() == T**locus.exponent - locus.value
