"""Tests for singular-fiber location, the elimination oracle, the trichotomy.

The locus formula (``singular``) and the discriminant oracle (``oracle``)
share no code: one evaluates a closed form of the relation vector, the other
stratifies the plane curve and eliminates variables.  Their agreement over a
corpus is therefore a genuine two-route check, and the pinned polynomials
below were each verified against a hand computation before being frozen.
The oracle's Groebner bases are checked against sympy's
(``groebner_oracle.py``) on every system it builds for seeded surfaces.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from sympy.abc import t, x, y, z

from calls import count_calls
from groebner_oracle import sympy_basis
from qt_oracle import to_expr
from corpus import (
    deterministic_corpus,
    nondegenerate_surfaces,
    surface_from_affine_triples,
    uniform_rows,
)
from delsarte import oracle as oracle_module
from delsarte.analysis import analyze
from delsarte.errors import ValidationError
from delsarte.exact import T
from delsarte.model import validate_surface
from delsarte.oracle import (
    _at,
    _basis,
    _diff,
    _eliminant,
    _euler,
    _family,
    _persistent_vertex_eliminant,
    discriminant_oracle,
    oracle_matches_locus,
)
from delsarte.reduction import plane_model, reduce_to_minimal
from delsarte.singular import (
    Isotrivial,
    SemistableAway,
    Superelliptic,
    SuperellipticForm,
    classify_trichotomy,
    constant_j_value,
    generic_fiber_genus,
    singular_locus,
    superelliptic_form,
)


def plane_of(triples):
    return plane_model(reduce_to_minimal(surface_from_affine_triples(triples)))


def oracle_factors(plane) -> set:
    """Irreducible factors of the oracle output, content and powers dropped."""
    _, factors = sympy.factor_list(to_expr(discriminant_oracle(plane)), t)
    return {base.as_expr() for base, _ in factors}


def in_oracle_scope(p) -> bool:
    """Locus == oracle is claimed for distinct monomials and positive genus.

    A duplicated monomial has no closed-form locus at all, and a rational
    fibration (cyclic-cover genus 0) can be smooth over every t != 0 even
    though the closed form has roots, so both are out of scope.
    """
    if len(set(p.exponents)) < 4:
        return False
    if any(p.kernel[i] == 0 for i in range(3)):
        return generic_fiber_genus(superelliptic_form(p)) >= 1
    return True


# ---------------------------------------------------------------------------
# Closed-form locus
# ---------------------------------------------------------------------------


def test_locus_cusp_family():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    loc = singular_locus(p)
    assert p.kernel == (0, 2, -3, 1)
    assert (loc.exponent, loc.value) == (1, Fraction(-4, 27))
    assert loc.rational_points == (Fraction(-4, 27),)
    assert not loc.degenerate


def test_locus_square_orbit():
    # y^2 + x^3 + x + t: k4 = 2, both singular values are irrational
    p = plane_of([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)])
    loc = singular_locus(p)
    assert p.kernel == (0, 1, -3, 2)
    assert (loc.exponent, loc.value) == (2, Fraction(-4, 27))
    assert loc.rational_points == ()


def test_locus_shifted_carrier():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)])
    loc = singular_locus(p)
    assert p.kernel == (0, 1, -2, 1)
    assert (loc.exponent, loc.value) == (1, Fraction(1, 4))


def test_locus_rational_pair():
    p = plane_of([(0, 2, 0), (3, 0, 0), (1, 0, 0), (2, 0, 1)])
    loc = singular_locus(p)
    assert (loc.exponent, loc.value) == (2, Fraction(4))
    assert loc.rational_points == (Fraction(-2), Fraction(2))


def test_locus_all_kernel_entries_nonzero():
    p = plane_of([(1, 2, 0), (3, 1, 0), (0, 1, 0), (1, 0, 1)])
    loc = singular_locus(p)
    assert p.kernel == (3, -2, -4, 3)
    assert (loc.exponent, loc.value) == (3, Fraction(729, 1024))
    assert loc.rational_points == ()


def test_locus_degenerate_duplicate_monomial():
    # t rides on a copy of x^2: no closed form, the duplicate is reported;
    # the kernel e4 - e3 still gives the single degenerate fiber t = -1
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (2, 0, 1)])
    loc = singular_locus(p)
    assert loc.degenerate
    assert loc.duplicate_index == 2
    assert (loc.exponent, loc.value) == (1, Fraction(-1))
    with pytest.raises(AssertionError):
        oracle_matches_locus(discriminant_oracle(p), loc)


# ---------------------------------------------------------------------------
# Discriminant oracle
# ---------------------------------------------------------------------------


def test_oracle_cusp_family():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    assert oracle_factors(p) == {t, 27 * t + 4}


def test_oracle_square_orbit():
    p = plane_of([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)])
    assert oracle_factors(p) == {27 * t**2 + 4}


def test_oracle_shifted_carrier():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)])
    assert oracle_factors(p) == {t, 4 * t - 1}


def test_oracle_singularities_on_coordinate_lines():
    # y^2 + x^3 + x + t x^2 degenerates at (x, y) = (1, 0) and (-1, 0) for
    # t = -+2: the oracle must pick those up from the line strata
    p = plane_of([(0, 2, 0), (3, 0, 0), (1, 0, 0), (2, 0, 1)])
    assert oracle_factors(p) == {t - 2, t + 2}


def test_oracle_duplicate_family_collision_value():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (2, 0, 1)])
    assert oracle_factors(p) == {t + 1}


def test_oracle_persistent_vertex_cone_degeneration():
    # 1 + y + x^3 y + t x^2 y: the vertex (0:1:0) is singular for every t,
    # with local cubic cone x^3 + t x^2 z + z^3 degenerating at 4t^3 = -27;
    # only the Newton-boundary face analysis sees this stratum
    p = plane_of([(0, 0, 0), (0, 1, 0), (3, 1, 0), (2, 1, 1)])
    assert oracle_factors(p) == {4 * t**3 + 27}
    assert oracle_matches_locus(discriminant_oracle(p), singular_locus(p))


# rows of the persistent-vertex input above, and a degree-8 input whose
# torus eliminant once took seconds
PERSISTENT_VERTEX_ROWS = [[0, 0, 0, 4], [0, 1, 0, 3], [3, 1, 0, 0], [2, 1, 1, 0]]
DEGREE_EIGHT_ROWS = [[5, 1, 1, 0], [1, 4, 0, 2], [0, 0, 5, 2], [4, 3, 0, 0]]


def seeded_coefficients(rng) -> list:
    return [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))
        for _ in range(4)
    ]


def seeded_oracle_inputs(seed: int, count: int):
    """The plane models of the two pinned rows above and ``count`` seeded
    nondegenerate surfaces of degree 2 to 7, each with unit coefficients
    and again with seeded rational ones."""
    rng = random.Random(seed)
    rows_drawn = [PERSISTENT_VERTEX_ROWS, DEGREE_EIGHT_ROWS]
    while len(rows_drawn) < count + 2:
        rows = uniform_rows(rng, rng.randint(2, 7))
        try:
            if not validate_surface(rows).is_degenerate:
                rows_drawn.append(rows)
        except ValidationError:
            pass
    return [
        plane_model(reduce_to_minimal(validate_surface(rows, coefficients)))
        for rows in rows_drawn
        for coefficients in (None, seeded_coefficients(rng))
    ]


class SympyExpressionBuilt(Exception):
    pass


def test_oracle_builds_no_sympy_expression(monkeypatch):
    # the oracle runs on the standard library: with sympy's fallback from a
    # foreign number to an expression made to raise, it still matches the
    # locus on every seeded surface in scope
    def refuse(*args, **kwargs):
        raise SympyExpressionBuilt(args)

    monkeypatch.setattr("sympy.polys.domains.domain.sympify", refuse)
    matched = 0
    for p in seeded_oracle_inputs(5, 40):
        oracle = discriminant_oracle(p)
        locus = singular_locus(p)
        if not locus.degenerate:
            matches = oracle_matches_locus(oracle, locus)
            assert matches or not in_oracle_scope(p), p
            matched += matches
    assert matched >= 40


def chart_size(system) -> int:
    """How many chart variables ``system`` is in: its keys hold their
    exponents and then that of t."""
    return len(next(iter(system[0]))) - 1


def recorded_bases(monkeypatch, planes) -> list:
    """(system, basis) of every ``_basis`` call that ``discriminant_oracle``
    makes on ``planes``."""
    calls = []

    def recording_basis(system):
        basis = _basis(system)
        calls.append((system, basis))
        return basis

    monkeypatch.setattr(oracle_module, "_basis", recording_basis)
    for plane in planes:
        discriminant_oracle(plane)
    monkeypatch.undo()
    return calls


UNIT_IDEAL = {(0, 0, 0, 0): 1}


@pytest.mark.parametrize("seed", [3, 7])
def test_basis_is_sympys_reduced_basis(monkeypatch, seed):
    # every system the oracle builds, on the torus, the punctured lines and
    # the Newton faces of a persistent vertex, those free of t included, has
    # sympy's reduced lex basis
    planes = seeded_oracle_inputs(seed, 30)
    calls = recorded_bases(monkeypatch, planes)
    shapes = Counter()
    for system, basis in calls:
        assert basis == sympy_basis(system), system
        # primitive, with a positive leading coefficient
        assert all(gcd(*g.values()) == 1 and g[max(g)] > 0 for g in basis)
        free_of_t = not any(m[-1] for p in system for m in p)
        shapes[chart_size(system)] += 1
        shapes["free of t", chart_size(system)] += free_of_t
        shapes["unit ideal"] += basis == [UNIT_IDEAL]
    # the torus and the faces have two chart variables, a line one; the
    # torus always carries t, so a system free of t with two chart
    # variables is a Newton face free of t, the branch _eliminant answers
    # with 1 or None
    assert shapes[2] and shapes[1], shapes
    assert shapes["free of t", 2] and shapes["unit ideal"], shapes


def test_basis_on_a_zero_elimination_ideal_and_an_infeasible_system():
    # (x - y)^2 + t z^2 is singular at (1 : 1 : 0) for every t: on the line
    # z = 0 (chart y = 1, x != 0) its system ((x - 1)^2, x d/dx, d/dz at
    # z = 0) has the basis (u - 1, x - 1), which meets Q[t] in 0
    line = [
        {(2, 0): Fraction(1), (1, 0): Fraction(-2), (0, 0): Fraction(1)},
        {(2, 0): Fraction(2), (1, 0): Fraction(-2)},
        {},
    ]
    basis = [{(1, 0, 0): 1, (0, 0, 0): -1}, {(0, 1, 0): 1, (0, 0, 0): -1}]
    assert _basis(line) == basis == sympy_basis(line)
    assert _eliminant(line) is None
    # a monomial, kept off 0, generates the unit ideal
    point = [{(1, 0): Fraction(3)}]
    assert _basis(point) == [{(0, 0, 0): 1}] == sympy_basis(point)
    assert _eliminant(point) == 1


def test_persistent_vertex_gives_up_on_a_face_critical_for_every_t():
    # a vertex chart's coefficients by exponent pair of x and y, each a dict
    # keyed by the exponent of t; a face critical on the torus for every t,
    # free of t or not, says nothing about any one fiber
    behind_t_x3 = {(2, 0): {0: 1}, (1, 1): {0: -2}, (0, 2): {0: 1}, (3, 0): {1: 1}}
    assert _persistent_vertex_eliminant(behind_t_x3) is None  # (x - y)^2
    with_y3 = {(2, 0): {0: 1}, (1, 1): {1: -2}, (0, 2): {2: 1}, (0, 3): {0: 1}}
    assert _persistent_vertex_eliminant(with_y3) is None  # (x - t y)^2
    # a binomial face free of t is never critical on the torus
    cusp = {(2, 0): {0: 1}, (0, 3): {0: 1}, (2, 2): {1: 1}}
    assert _persistent_vertex_eliminant(cusp) == 1
    # the boundary vertex t x y^2 degenerates at t = 0
    chain = {(2, 0): {0: 1}, (1, 2): {1: 1}, (0, 5): {0: 1}}
    assert _persistent_vertex_eliminant(chain) == T


def plain_partials(f: dict) -> list:
    """(f, df/dx, df/dy): the critical system of a two-variable chart by
    its plain partials, the reference for the oracle's Euler system."""
    return [f, _diff(f, 0), _diff(f, 1)]


def euler_partials(f: dict) -> list:
    """(f, x df/dx, y df/dy): the oracle's system where x and y are units."""
    return [f, _euler(f, 0), _euler(f, 1)]


def seeded_torus_charts(seed: int, count: int):
    """(f, f at one t) for ``count`` seeded nondegenerate surfaces of degree
    2 to 5: f is the torus chart z = 1 of the plane family, keyed by the
    exponents of x, y and t, and the second is f at one t, free of t and
    keyed the same with t's exponent 0, at a rational point of the locus
    when it has one.  Every other draw has rational coefficients."""
    rng = random.Random(seed)
    charts = []
    while len(charts) < count:
        rows = uniform_rows(rng, rng.randint(2, 5))
        coefficients = None
        if len(charts) % 2:
            coefficients = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
                for _ in range(4)
            ]
        try:
            surface = validate_surface(rows, coefficients)
        except ValidationError:
            continue
        if surface.is_degenerate:
            continue
        p = plane_model(reduce_to_minimal(surface))
        f = _at(_family(p), 2, 1)
        t0 = (singular_locus(p).rational_points or (Fraction(1),))[0]
        at_t0: dict = {}
        for (a, b, e), c in f.items():
            at_t0[a, b, 0] = at_t0.get((a, b, 0), 0) + c * t0**e
        charts.append((f, {m: c for m, c in at_t0.items() if c}))
    return charts


def test_euler_partials_generate_the_partials_ideal():
    # u x y - 1 makes x and y units, so df/dx = u y (x df/dx) - df/dx (u x y
    # - 1) and (f, x df/dx, y df/dy) generate the ideal of (f, df/dx, df/dy):
    # the reduced bases, hence the eliminants and their bytes, are equal
    singular_fibers = 0
    for f, at_t0 in seeded_torus_charts(23, 60):
        assert _basis(euler_partials(f)) == _basis(plain_partials(f))
        basis = _basis(euler_partials(at_t0))
        assert basis == _basis(plain_partials(at_t0))
        singular_fibers += basis != [UNIT_IDEAL]
    # some fibers at a locus point are singular, so not every basis is [1]
    assert singular_fibers > 0


def test_euler_partials_hold_on_the_newton_faces(monkeypatch):
    # every two-variable system the oracle hands to _basis (the torus and
    # each Newton-boundary face of the persistent vertex) has the basis of
    # its plain partials
    seen = []

    def recording_basis(system):
        basis = _basis(system)
        if chart_size(system) == 2:
            seen.append((system, basis))
        return basis

    monkeypatch.setattr(oracle_module, "_basis", recording_basis)
    p = plane_of([(0, 0, 0), (0, 1, 0), (3, 1, 0), (2, 1, 1)])
    discriminant_oracle(p)
    assert len(seen) >= 2  # the torus and at least one face
    for system, basis in seen:
        assert system == euler_partials(system[0])
        assert basis == _basis(plain_partials(system[0]))


def test_oracle_genus_zero_family_has_no_away_roots():
    # y + y^3 + x y^2 + t solves for x: every fiber is rational and stays
    # equisingular, so the closed form's roots t^2 = -4/27 are spurious and
    # the oracle correctly returns nothing away from t = 0
    p = plane_of([(0, 1, 0), (0, 3, 0), (1, 2, 0), (0, 0, 1)])
    assert generic_fiber_genus(superelliptic_form(p)) == 0
    factors = oracle_factors(p)
    assert factors <= {t}
    assert not oracle_matches_locus(discriminant_oracle(p), singular_locus(p))


def test_oracle_matches_locus_on_pinned_cases():
    for triples in (
        [(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)],
        [(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)],
        [(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)],
        [(0, 2, 0), (3, 0, 0), (1, 0, 0), (2, 0, 1)],
        [(1, 2, 0), (3, 1, 0), (0, 1, 0), (1, 0, 1)],
    ):
        p = plane_of(triples)
        assert oracle_matches_locus(discriminant_oracle(p), singular_locus(p))


@settings(max_examples=60, deadline=None)
@given(nondegenerate_surfaces())
def test_oracle_matches_locus_property(surface):
    p = plane_model(reduce_to_minimal(surface))
    assume(in_oracle_scope(p))
    assert oracle_matches_locus(discriminant_oracle(p), singular_locus(p))


# ---------------------------------------------------------------------------
# Orbit structure of the away fibers (carried by the locus)
# ---------------------------------------------------------------------------


def test_structure_one_orbit_under_rotation():
    p = plane_of([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)])
    orbit = singular_locus(p)
    assert orbit.exponent == 2
    assert orbit.value == Fraction(-4, 27)
    # the two away fibers are swapped by t -> -t
    assert orbit.negation_invariant


def test_structure_trivial_orbit():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    orbit = singular_locus(p)
    assert orbit.exponent == 1
    assert not orbit.negation_invariant


def test_structure_survives_degenerate_locus():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (2, 0, 1)])
    orbit = singular_locus(p)
    assert orbit.exponent == 1
    assert orbit.value == Fraction(-1)
    assert orbit.degenerate


# ---------------------------------------------------------------------------
# Trichotomy
# ---------------------------------------------------------------------------


def test_trichotomy_isotrivial_duplicate():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (2, 0, 1)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert isinstance(tri, Isotrivial)
    assert tri.duplicate_index == 2
    assert tri.degeneration_value == Fraction(-1)


def test_trichotomy_isotrivial_constant_term():
    p = plane_of([(0, 2, 0), (3, 0, 0), (0, 0, 0), (0, 0, 1)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert isinstance(tri, Isotrivial)
    assert tri.duplicate_index == 2


def test_trichotomy_superelliptic_weierstrass_shape():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert isinstance(tri, Superelliptic)
    assert tri.form == SuperellipticForm(
        2,
        (
            (Fraction(-1), 3, False),
            (Fraction(-1), 2, False),
            (Fraction(-1), 0, True),
        ),
    )
    assert tri.generic_genus == 1
    assert tri.constant_j is None  # hyperelliptic involution says nothing


def test_trichotomy_superelliptic_after_coordinate_change():
    # k = (0, -1, -1, 2): the three on-line monomials are not axis-aligned,
    # so the normal form needs the unimodular substitution
    p = plane_of([(0, 2, 0), (3, 0, 0), (1, 0, 0), (2, 0, 1)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert isinstance(tri, Superelliptic)
    assert tri.form.cover_exponent == 2
    assert [(e, flag) for _, e, flag in tri.form.terms] == [
        (3, False),
        (1, False),
        (2, True),
    ]
    assert tri.generic_genus == 1


def test_superelliptic_form_is_exact_past_float_precision():
    # x^N y^2 + 1 + x + t x^2: the v-twist that clears negative exponents is
    # a ceiling of N/2, which a float rounds one step short at N = 2^60 + 1
    # and leaves a rational generic fiber; the form must not depend on N
    forms = []
    for n in (11, 1001, 2**60 + 1):
        report = analyze(
            surface_from_affine_triples([(n, 2, 0), (0, 0, 0), (1, 0, 0), (2, 0, 1)])
        )
        assert isinstance(report.trichotomy, Superelliptic)
        assert report.trichotomy.generic_genus == 1
        forms.append(report.trichotomy.form)
        section = report.genus_one
        fibers = (section.at_zero, section.away, section.at_infinity)
        assert [fiber.symbol for fiber in fibers] == ["I2", "I1", "III*"]
        assert section.gamma == Fraction(1, 2)
    assert forms[0].cover_exponent == 2
    assert [(e, flag) for _, e, flag in forms[0].terms] == [
        (1, False), (2, False), (3, True),
    ]
    assert forms == [forms[0]] * 3


def test_trichotomy_superelliptic_genus_two():
    p = plane_of([(0, 5, 0), (2, 0, 0), (1, 0, 0), (0, 0, 3)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert isinstance(tri, Superelliptic)
    assert tri.form.cover_exponent == 5
    assert tri.generic_genus == 2
    assert tri.constant_j is None


def test_trichotomy_constant_j_cover():
    p = plane_of([(0, 3, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert isinstance(tri, Superelliptic)
    assert (tri.form.cover_exponent, tri.generic_genus) == (3, 1)
    assert tri.constant_j == Fraction(0)

    p = plane_of([(0, 4, 0), (2, 0, 0), (1, 0, 0), (0, 0, 1)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert tri.constant_j == Fraction(1728)

    # the cube cover with t^2 (reduced to t), and with x and y swapped
    for triples in (
        [(0, 3, 0), (3, 0, 0), (2, 0, 0), (0, 0, 2)],
        [(3, 0, 0), (0, 3, 0), (0, 2, 0), (0, 0, 1)],
    ):
        p = plane_of(triples)
        tri = classify_trichotomy(p, singular_locus(p))
        assert isinstance(tri, Superelliptic)
        assert (tri.form.cover_exponent, tri.generic_genus) == (3, 1)
        assert tri.constant_j == Fraction(0)


def test_isotrivial_branch_is_the_degenerate_locus():
    # read off the minimal equation directly: the t-monomial repeats monomial
    # i exactly on the isotrivial branch, which degenerates at -c_i / c_4
    coefficients = [Fraction(2), Fraction(3, 5), Fraction(-7), Fraction(4, 3)]
    isotrivial = 0
    for surface in deterministic_corpus(min_count=120)[:40]:
        m = reduce_to_minimal(validate_surface(surface.rows, coefficients))
        p = plane_model(m)
        try:
            tri = classify_trichotomy(p, singular_locus(p))
        except ValidationError:  # rational generic fiber
            continue
        pairs = [(ex, ey) for _, (ex, ey, _) in m.equation.terms]
        coeffs = [c for c, _ in m.equation.terms]
        repeats = [i for i in range(3) if pairs[i] == pairs[3]]
        assert isinstance(tri, Isotrivial) == bool(repeats)
        if repeats:
            isotrivial += 1
            assert tri.duplicate_index == repeats[0]
            assert tri.degeneration_value == -coeffs[repeats[0]] / coeffs[3]
    assert isotrivial >= 10


def test_trichotomy_semistable_branch():
    p = plane_of([(1, 2, 0), (3, 1, 0), (0, 1, 0), (1, 0, 1)])
    tri = classify_trichotomy(p, singular_locus(p))
    assert isinstance(tri, SemistableAway)
    assert (tri.locus.exponent, tri.locus.value) == (3, Fraction(729, 1024))


def test_trichotomy_rejects_rational_fibers():
    p = plane_of([(0, 1, 0), (0, 3, 0), (1, 2, 0), (0, 0, 1)])
    with pytest.raises(ValidationError):
        classify_trichotomy(p, singular_locus(p))


def test_trichotomy_branch_two_iff_kernel_zero():
    # the branch decision must agree with the independently computed kernel
    for triples in (
        [(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)],
        [(1, 2, 0), (3, 1, 0), (0, 1, 0), (1, 0, 1)],
        [(0, 3, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)],
    ):
        p = plane_of(triples)
        tri = classify_trichotomy(p, singular_locus(p))
        has_zero = any(p.kernel[i] == 0 for i in range(3))
        assert isinstance(tri, Superelliptic) == has_zero


# ---------------------------------------------------------------------------
# Cyclic-cover genus arithmetic
# ---------------------------------------------------------------------------


def cover(a, exponents) -> SuperellipticForm:
    """u^a = psi(v), psi with unit coefficients and the given exponents, the
    last one carrying t."""
    return SuperellipticForm(
        a, tuple((Fraction(1), e, i == 2) for i, e in enumerate(exponents))
    )


def test_generic_fiber_genus_table():
    assert generic_fiber_genus(cover(2, (0, 1, 3))) == 1
    assert generic_fiber_genus(cover(2, (0, 1, 4))) == 1
    assert generic_fiber_genus(cover(2, (0, 2, 5))) == 2  # hyperelliptic, (5-1)/2
    assert generic_fiber_genus(cover(3, (0, 1, 3))) == 1
    assert generic_fiber_genus(cover(3, (0, 1, 2))) == 1
    assert generic_fiber_genus(cover(4, (0, 1, 2))) == 1
    # a simple root at v = 0 counts as one more simple root
    assert generic_fiber_genus(cover(2, (1, 2, 3))) == 1
    # v^2 is absorbed by the square: u^2 = v^2 (v^2 + v + 1) is rational
    assert generic_fiber_genus(cover(2, (2, 3, 4))) == 0
    assert generic_fiber_genus(cover(1, (0, 1, 3))) == 0


def test_generic_profile_with_repeated_origin_root():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)])
    form = superelliptic_form(p)
    assert sorted(e for _, e, _ in form.terms) == [1, 2, 3]
    assert generic_fiber_genus(form) == 1


def test_constant_j_rejects_wrong_genus():
    # no genus-one cyclic cover has exponent 5
    with pytest.raises(ValidationError):
        constant_j_value(5)


def test_analyze_computes_the_generic_genus_once(monkeypatch):
    # the quartic cover v^4 + u^2 + u + t has genus one and constant j; its
    # j is read off the cover exponent, not off a second genus count
    surface = surface_from_affine_triples([(0, 4, 0), (2, 0, 0), (1, 0, 0), (0, 0, 1)])
    calls = count_calls(monkeypatch, [("singular", "generic_fiber_genus")])
    assert analyze(surface).trichotomy.constant_j == Fraction(1728)
    assert calls == {"generic_fiber_genus": 1}


# ---------------------------------------------------------------------------
# Nodality of individual fibers
# ---------------------------------------------------------------------------


def plane_curve_expr(plane, t0: Fraction) -> sympy.Expr:
    """The fiber over t0 of the plane projective family, the sum of
    coeff * t0^{[i = 4]} * x^a y^b z^c, as a sympy expression."""
    total = sympy.Integer(0)
    for i, ((a, b, c), coeff) in enumerate(zip(plane.exponents, plane.coefficients)):
        scale = coeff * t0 if i == 3 else coeff
        total += sympy.Rational(scale.numerator, scale.denominator) * x**a * y**b * z**c
    return total


def fiber_singularities_are_nodal(plane, t0: Fraction) -> bool:
    """True when every singular point of the fiber over t0 is an ordinary
    node (nondegenerate Hessian).

    Checked exactly: in each of the three affine charts of the plane, the
    system {g = 0, grad g = 0, det Hess g = 0} must be infeasible over the
    complex numbers, which the Groebner basis decides.
    """
    F = plane_curve_expr(plane, t0)
    for g, (v1, v2) in (
        (F.subs(z, 1), (x, y)),
        (F.subs(y, 1), (x, z)),
        (F.subs(x, 1), (y, z)),
    ):
        g1, g2 = g.diff(v1), g.diff(v2)
        hess = g1.diff(v1) * g2.diff(v2) - g1.diff(v2) ** 2
        basis = sympy.groebner([g, g1, g2, hess], v1, v2, order="grevlex")
        if list(basis.exprs) != [sympy.Integer(1)]:
            return False
    return True


def test_away_fiber_is_nodal():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    assert fiber_singularities_are_nodal(p, Fraction(-4, 27))


def test_duplicate_family_node_vs_cusp():
    p = plane_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (2, 0, 1)])
    # t = 0: y^2 + x^3 + x^2 has an ordinary node at the origin
    assert fiber_singularities_are_nodal(p, Fraction(0))
    # t = -1: y^2 + x^3 has a cusp
    assert not fiber_singularities_are_nodal(p, Fraction(-1))
