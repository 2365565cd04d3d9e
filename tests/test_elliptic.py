"""Weierstrass invariants, Kodaira types at places of P^1, and gamma.

The fiber-type expectations below were computed by hand from the valuation
triples (v(c4), v(c6), v(delta)) before the classifier existed; the Euler-sum
checks (total = 12 on a rational elliptic surface) guard against symbol-table
typos.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, assume, settings, strategies as st
from sympy.abc import t

from calls import count_calls
from corpus import deterministic_corpus, surface_from_affine_triples, y_squared_triples
from kodaira_oracle import ADDITIVE_EULER, kodaira_fiber
from qt_oracle import QT, to_expr, to_ring
from delsarte.analysis import analyze
from delsarte.elliptic import (
    AT_INFINITY,
    INFINITY,
    KodairaFiber,
    WeierstrassModel,
    _classify_valuations,
    _double_cover_model,
    gamma,
    genus_one_section,
    genus_one_weierstrass,
    kodaira_type,
    weierstrass_invariants,
)
from delsarte.errors import ValidationError
from delsarte.exact import QPoly, T
from delsarte.model import validate_surface
from delsarte.reduction import MinimalFibration, plane_model, reduce_to_minimal
from delsarte.singular import (
    SemistableAway,
    Superelliptic,
    SuperellipticForm,
    classify_trichotomy,
    singular_locus,
)


def trichotomy_of(minimal: MinimalFibration):
    plane = plane_model(minimal)
    return classify_trichotomy(plane, singular_locus(plane))


def model_of(triples) -> WeierstrassModel:
    """The Weierstrass model from the cyclic-cover form of the trichotomy."""
    minimal = reduce_to_minimal(surface_from_affine_triples(triples))
    return genus_one_weierstrass(trichotomy_of(minimal).form)


def report_of(triples):
    return analyze(surface_from_affine_triples(triples))


def psi_direct(minimal: MinimalFibration) -> dict:
    """psi of a fibration whose equation is y^2 plus y-free monomials, read
    off as y^2 = psi(x, t), as {exponent of x: coefficient in Q[t]}: the
    reference the cyclic-cover form is checked against."""
    eq = minimal.equation
    pairs = [(ex, ey) for _, (ex, ey, _) in eq.terms]
    coeffs = [c * (T if j == 3 else 1) for j, (c, _) in enumerate(eq.terms)]
    i = pairs.index((0, 2))
    assert i != 3 and all(ey == 0 for j, (_, ey) in enumerate(pairs) if j != i)
    y2 = eq.terms[i][0]  # the constant coefficient of y^2
    scale = -1 / Fraction(y2)
    return {ex: coeffs[j] * scale for j, (ex, _) in enumerate(pairs) if j != i}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_of_constant_curves():
    inv = weierstrass_invariants(WeierstrassModel(a6=QPoly([1])))
    assert inv.c4 == 0  # so j = 0
    assert inv.c6 == -864
    assert inv.delta == -432

    inv = weierstrass_invariants(WeierstrassModel(a4=QPoly([1])))
    assert inv.c4**3 == 1728 * inv.delta  # j = 1728


def test_invariants_identically_degenerate():
    with pytest.raises(ValidationError):
        weierstrass_invariants(WeierstrassModel())  # y^2 = x^3
    with pytest.raises(ValidationError):
        weierstrass_invariants(WeierstrassModel(a2=QPoly([1])))  # nodal


@given(
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
)
@settings(max_examples=40, deadline=None)
def test_invariants_identity_on_random_models(p0, p1, q0, q1, r0, r1):
    model = WeierstrassModel(
        a2=p0 + p1 * T, a4=q0 + q1 * T, a6=r0 + r1 * T
    )
    try:
        inv = weierstrass_invariants(model)
    except ValidationError:
        assume(False)
    # the 1728-identity is checked inside; recheck from the record's fields
    assert inv.c4**3 - inv.c6**2 - 1728 * inv.delta == 0
    assert 4 * inv.b8 - inv.b2 * inv.b6 + inv.b4**2 == 0


def test_section_is_polynomial_but_for_j():
    # the model and every invariant lie in Q[t]; j = c4^3/delta is the one
    # quotient, kept as two integer polynomials
    section = report_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)]).genus_one
    for part in (section.model, section.invariants):
        for field in part._fields:
            assert isinstance(getattr(part, field), QPoly), field
    numer, denom = section.j
    assert numer.integral and denom.integral
    inv = section.invariants
    assert inv.c4**3 * denom == numer * inv.delta
    assert isinstance(section.orbit, QPoly)


@pytest.mark.parametrize("seed", range(3))
def test_j_matches_sympy_cancel(seed):
    # j is formed from the valuations at 0 and on the orbit, without a gcd;
    # sympy's field, whose QT.new(c4^3, delta) reduces by a gcd, is the
    # oracle for the lowest-terms pair
    rng = random.Random(seed)
    sections = 0
    while sections < 60:
        triples = y_squared_triples(rng)
        coefficients = [
            Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.randrange(1, 8))
            for _ in range(4)
        ]
        try:
            rows = surface_from_affine_triples(triples).rows
            section = analyze(validate_surface(rows, coefficients)).genus_one
        except ValidationError:
            continue
        if section is None:
            continue
        sections += 1
        inv = section.invariants
        j = QT.new(to_ring(inv.c4**3), to_ring(inv.delta))
        assert tuple(map(to_ring, section.j)) == (j.numer, j.denom)


# every reduced exponent pattern a double cover u^2 = psi(v) reaches
# _double_cover_model with: three distinct exponents of v in [0, 4], the
# least 0 or 1 (an even power of v is absorbed into u) and the largest 3
# or 4 (a cubic or a quartic)
DOUBLE_COVER_PATTERNS = [
    pattern
    for pattern in itertools.combinations(range(5), 3)
    if pattern[0] <= 1 and pattern[-1] >= 3
]


def test_double_cover_sections_never_have_constant_j():
    # the section has no constant-j route: u^2 = p v^e1 + q v^e2 + r t v^e3
    # with distinct e_i keeps one modulus under scaling of u and v,
    # proportional to t^(e1 - e2), so j moves with t.  On every pattern,
    # with t on each term, unit and seeded rational coefficients and even
    # shifts of the exponents, c4^3 is no constant multiple of delta
    assert len(DOUBLE_COVER_PATTERNS) == 8
    rng = random.Random(35)
    coefficient_sets = [(Fraction(1),) * 3] + [
        tuple(
            Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.randrange(1, 8))
            for _ in range(3)
        )
        for _ in range(9)
    ]
    forms = 0
    for pattern in DOUBLE_COVER_PATTERNS:
        for with_t in range(3):
            for coefficients in coefficient_sets:
                for shift in (0, 2, 4):
                    terms = tuple(
                        (c, e + shift, i == with_t)
                        for i, (c, e) in enumerate(zip(coefficients, pattern))
                    )
                    model = genus_one_weierstrass(SuperellipticForm(2, terms))
                    inv = weierstrass_invariants(model)
                    cube = inv.c4**3
                    assert cube * inv.delta.lc != inv.delta * cube.lc, terms
                    forms += 1
    assert forms == 720


@pytest.mark.parametrize(
    "terms, fibers",
    [
        # c4 = 0, so v(c4) is infinite everywhere
        (((Fraction(1), 3, False), (Fraction(-2), 0, True)), ("II", "I0", "II*")),
        # c6 = 0
        (((Fraction(1), 3, False), (Fraction(3), 1, True)), ("III", "I0", "III*")),
    ],
    ids=["j0", "j1728"],
)
def test_constant_j_models_keep_their_fiber_tables(terms, fibers):
    # two-term covers u^2 = v^3 - 2t and u^2 = v^3 + 3tv have constant j,
    # which no double cover analyze hands the section has; kodaira_type
    # still reads their tables at 0, on the orbit t - 1 and at infinity, and
    # the section refuses them on its own claim that the away fiber is I_nu
    inv = weierstrass_invariants(genus_one_weierstrass(SuperellipticForm(2, terms)))
    places = (Fraction(0), T - 1, AT_INFINITY)
    assert tuple(kodaira_type(inv, place).symbol for place in places) == fibers
    trichotomy = SimpleNamespace(form=SuperellipticForm(2, terms))
    locus = SimpleNamespace(exponent=1, value=Fraction(1))
    with pytest.raises(AssertionError, match="away fiber .* must be I_nu"):
        genus_one_section(trichotomy, locus)


# ---------------------------------------------------------------------------
# fiber symbols
# ---------------------------------------------------------------------------


def test_fiber_table():
    assert kodaira_fiber("I0") == KodairaFiber("I0", 0, 0, 0)
    assert kodaira_fiber("I5") == KodairaFiber("I5", 5, 5, 1)
    assert kodaira_fiber("I1*") == KodairaFiber("I1*", 1, 7, 2)
    for symbol, euler in [("II", 2), ("III", 3), ("IV", 4), ("I0*", 6),
                          ("IV*", 8), ("III*", 9), ("II*", 10)]:
        fiber = kodaira_fiber(symbol)
        assert (fiber.euler, fiber.conductor, fiber.n) == (euler, 2, 0)

    # the package builds each record from the minimal valuations, with
    # e = v(delta_min): every triple it accepts gives the textbook record
    # of its symbol, which checks Ogg's formula on every type reached
    grid = [*range(30), INFINITY]
    reached = set()
    for v4 in grid:
        for v6 in grid:
            for vd in range(40):
                try:
                    fiber = _classify_valuations(v4, v6, vd)
                except AssertionError:
                    continue
                assert fiber == kodaira_fiber(fiber.symbol), (v4, v6, vd)
                reached.add(fiber.symbol)
    assert reached == {
        *(f"I{n}" for n in range(40)),
        *(f"I{n}*" for n in range(1, 34)),
        *ADDITIVE_EULER,
    }


# ---------------------------------------------------------------------------
# Kodaira types of the worked families
# ---------------------------------------------------------------------------


def test_types_y2_x3_x2_t():
    model = model_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    inv = weierstrass_invariants(model)
    assert kodaira_type(inv, Fraction(0)).symbol == "I1"
    assert kodaira_type(inv, Fraction(-4, 27)).symbol == "I1"
    assert kodaira_type(inv, AT_INFINITY).symbol == "II*"
    # generic place is smooth
    assert kodaira_type(inv, Fraction(1)).symbol == "I0"


def test_types_y2_x3_x2_tx():
    triples = [(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)]
    inv = weierstrass_invariants(model_of(triples))
    assert inv.delta == 16 * T**2 * (1 - 4 * T)
    expected_j = 256 * (3 * t - 1) ** 3 / (4 * t**3 - t**2)
    numer, denom = report_of(triples).genus_one.j
    assert sympy.cancel(to_expr(numer) / to_expr(denom) - expected_j) == 0
    assert kodaira_type(inv, Fraction(0)).symbol == "I2"
    assert kodaira_type(inv, Fraction(1, 4)).symbol == "I1"
    assert kodaira_type(inv, AT_INFINITY).symbol == "III*"


def test_types_y2_x3_tx_t2():
    model = WeierstrassModel(a4=T, a6=T**2)
    inv = weierstrass_invariants(model)
    at_zero = kodaira_type(inv, Fraction(0))
    away = kodaira_type(inv, Fraction(-4, 27))
    at_inf = kodaira_type(inv, AT_INFINITY)
    assert (at_zero.symbol, away.symbol, at_inf.symbol) == ("III", "I1", "IV*")
    assert at_zero.euler + away.euler + at_inf.euler == 12


def test_types_y2_x3_tx2_t4():
    model = WeierstrassModel(a2=T, a6=T**4)
    inv = weierstrass_invariants(model)
    at_zero = kodaira_type(inv, Fraction(0))
    away = kodaira_type(inv, Fraction(-4, 27))
    at_inf = kodaira_type(inv, AT_INFINITY)
    assert (at_zero.symbol, away.symbol, at_inf.symbol) == ("I1*", "I1", "IV")
    assert at_zero.euler + away.euler + at_inf.euler == 12
    assert gamma(at_zero, at_inf, [(away, 1)]) == Fraction(2, 3)


@pytest.mark.parametrize(
    "model",
    [WeierstrassModel(a6=T**3), WeierstrassModel(a4=T**2)],
    ids=["c4_0", "c6_0"],
)
def test_i0_star_with_a_vanishing_invariant(model):
    # v(c4) or v(c6) is infinite when c4 or c6 is 0; the table still reads
    # I0* from (oo, 3, 6) and (2, oo, 6), at 0 and, by symmetry, at infinity
    inv = weierstrass_invariants(model)
    assert kodaira_type(inv, Fraction(0)).symbol == "I0*"
    assert kodaira_type(inv, AT_INFINITY).symbol == "I0*"
    assert kodaira_type(inv, Fraction(1)).symbol == "I0"


def test_euler_totals_of_first_two_families():
    for triples, parts in [
        ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)],
         [Fraction(0), Fraction(-4, 27), AT_INFINITY]),
        ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)],
         [Fraction(0), Fraction(1, 4), AT_INFINITY]),
    ]:
        inv = weierstrass_invariants(model_of(triples))
        assert sum(kodaira_type(inv, p).euler for p in parts) == 12


def test_orbit_place():
    # y^2 = x^3 + x + t has its away fiber over the two roots of t^2 + 4/27
    model = model_of([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)])
    inv = weierstrass_invariants(model)
    assert kodaira_type(inv, T**2 + Fraction(4, 27)).symbol == "I1"
    assert kodaira_type(inv, 27 * T**2 + 4).symbol == "I1"
    assert kodaira_type(inv, AT_INFINITY).symbol == "II*"

    # y^2 = x^3 - 3x + t: t^2 - 4 splits over Q, and both factors carry I1,
    # as does the rational place t - 2 on its own
    model = WeierstrassModel(a4=QPoly([-3]), a6=T)
    inv = weierstrass_invariants(model)
    assert kodaira_type(inv, T**2 - 4).symbol == "I1"
    assert kodaira_type(inv, T - 2) == kodaira_type(inv, Fraction(2)) == (
        kodaira_fiber("I1")
    )

    # y^2 = x^3 - 3x + t - 4: of the roots of t^2 - 4, 2 carries I1 and -2
    # carries I0, so the place has no one type
    inv = weierstrass_invariants(model._replace(a6=T - 4))
    with pytest.raises(AssertionError, match="places disagree"):
        kodaira_type(inv, T**2 - 4)


@pytest.mark.parametrize(
    "place",
    [
        QPoly([3]),  # no t: division would never end
        T**2,  # one term
        T**3 - T**2,  # no constant term: a double root at t = 0
        (T**2 - 4) * (T - 1),  # three terms
        (T - 2) ** 2,  # a double root would halve the valuations
        t**2 - 4,  # a sympy expression, not a QPoly
    ],
    ids=["constant", "monomial", "no_constant", "trinomial", "square", "expression"],
)
def test_place_must_be_a_binomial(place):
    inv = weierstrass_invariants(WeierstrassModel(a4=QPoly([-3]), a6=T))
    with pytest.raises(AssertionError, match="must be a binomial"):
        kodaira_type(inv, place)


def run_optimized(script: str) -> list[str]:
    """The stdout lines of ``script`` run by a ``python -O`` child that
    imports the package and the test helpers from where this process does."""
    tests = Path(__file__).resolve().parent
    src = Path(sys.modules["delsarte.elliptic"].__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(tests), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_discriminant_shape_is_checked_under_optimize():
    # assert statements are stripped under -O; the verdict's check that
    # delta is a monomial times (t^k4 - c)^nu must still raise, on a delta
    # left with a remainder and on one with a root at t = 1
    script = (
        "from corpus import surface_from_affine_triples\n"
        "from delsarte.analysis import analyze\n"
        "from delsarte.elliptic import _j_and_gamma, _split\n"
        "from delsarte.exact import T\n"
        "triples = [(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)]\n"
        "s = analyze(surface_from_affine_triples(triples)).genus_one\n"
        "for delta in (T**2, s.invariants.delta * (T - 1)):\n"
        "    inv = s.invariants._replace(delta=delta)\n"
        "    try:\n"
        "        _j_and_gamma(\n"
        "            inv, 1, _split(delta, s.orbit), s.at_zero, s.away, s.at_infinity\n"
        "        )\n"
        "    except AssertionError as exc:\n"
        "        print(__debug__, exc)\n"
    )
    assert run_optimized(script) == [
        "False discriminant has roots outside {0, away orbit}"
    ] * 2


def test_verdict_and_place_claims_are_checked_under_optimize():
    # y^2 + x^3 + x + t has k4 = 2; a forged c4 = t (so that j = t^3/delta),
    # a forged additive away fiber and a forged I1 at zero each break one
    # claim of the verdict; on
    # y^2 = x^3 - 3x + t - 4, t^2 - 4 has roots of two fiber types, which
    # breaks _multiplicity's claim, and a place of three terms is refused
    script = (
        "from corpus import surface_from_affine_triples\n"
        "from delsarte.analysis import analyze\n"
        "from delsarte.elliptic import (\n"
        "    WeierstrassModel, _j_and_gamma, _split,\n"
        "    kodaira_type, weierstrass_invariants,\n"
        ")\n"
        "from kodaira_oracle import kodaira_fiber\n"
        "from delsarte.exact import QPoly, T\n"
        "triples = [(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)]\n"
        "s = analyze(surface_from_affine_triples(triples)).genus_one\n"
        "table = dict(at_zero=s.at_zero, away=s.away, at_infinity=s.at_infinity)\n"
        "split = _split(s.invariants.delta, s.orbit)\n"
        "inv_i = weierstrass_invariants(\n"
        "    WeierstrassModel(a4=QPoly([-3]), a6=T - 4)\n"
        ")\n"
        "calls = [\n"
        "    lambda: _j_and_gamma(\n"
        "        s.invariants._replace(c4=T), 2, split, **table\n"
        "    ),\n"
        "    lambda: _j_and_gamma(\n"
        "        s.invariants, 2, split, **dict(table, away=kodaira_fiber('II'))\n"
        "    ),\n"
        "    lambda: _j_and_gamma(\n"
        "        s.invariants, 2, split, **dict(table, at_zero=kodaira_fiber('I1'))\n"
        "    ),\n"
        "    lambda: kodaira_type(inv_i, T**2 - 4),\n"
        "    lambda: kodaira_type(inv_i, (T**2 - 4) * (T - 1)),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        print(__debug__, call())\n"
        "    except AssertionError as exc:\n"
        "        print(__debug__, exc)\n"
    )
    assert run_optimized(script) == [
        "False j must be a function of t^k4",
        "False away fiber of a nonconstant-j family must be I_nu",
        "False k4 must divide n0 and n_inf",
        "False places disagree",
        "False a polynomial place must be a binomial a t^k - c",
    ]


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_reference_values():
    I0 = kodaira_fiber("I0")
    I1 = kodaira_fiber("I1")
    assert gamma(I1, I0, [(I1, 1)]) == Fraction(2, 3)
    assert gamma(kodaira_fiber("IV"), I1, [(kodaira_fiber("I1*"), 1)]) == Fraction(2, 3)
    assert gamma(I0, I0, []) == 0


def test_gamma_counts_orbit_size():
    I1 = kodaira_fiber("I1")
    one = gamma(kodaira_fiber("I0"), kodaira_fiber("I0"), [(I1, 1)])
    three = gamma(kodaira_fiber("I0"), kodaira_fiber("I0"), [(I1, 3)])
    assert three == 3 * one == Fraction(5, 2)


# ---------------------------------------------------------------------------
# conversion to Weierstrass form
# ---------------------------------------------------------------------------


def test_direct_conversion_cubic():
    model = model_of([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)])
    inv = weierstrass_invariants(model)
    assert inv.c4 == 16
    assert inv.delta == -64 * T - 432 * T**2


def test_quartic_conversion():
    # y^2 + x^4 + x + t: quartic right side, handled through I and J
    model = model_of([(0, 2, 0), (4, 0, 0), (1, 0, 0), (0, 0, 1)])
    inv = weierstrass_invariants(model)
    assert inv.delta == 8503056 * (256 * T**3 - 27)
    section = report_of([(0, 2, 0), (4, 0, 0), (1, 0, 0), (0, 0, 1)]).genus_one
    assert section.gamma == Fraction(5, 6)
    assert section.base_change_exponent == 3
    assert section.at_infinity.symbol == "III*"


def test_square_factor_is_absorbed():
    # y^2 = -x^3(x^2 + x + t): x^2 moves into y^2, leaving a cubic
    model = model_of([(0, 2, 0), (5, 0, 0), (4, 0, 0), (3, 0, 1)])
    inv = weierstrass_invariants(model)
    assert inv.delta == 16 * T**2 * (1 - 4 * T)


def test_odd_order_quartic_route():
    # x y^2 + x^3 + x^2 + t straightens to (xy)^2 = quartic with a simple
    # root at x = 0; this realizes the (III, I1, IV*) configuration on an
    # honest 4-monomial surface
    section = report_of([(1, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)]).genus_one
    assert section.at_zero.symbol == "III"
    assert section.away.symbol == "I1"
    assert section.at_infinity.symbol == "IV*"
    assert section.gamma == Fraction(5, 6)


def test_direct_and_cyclic_cover_routes_agree():
    # on y^2 plus three y-free monomials, psi read off the equation and psi
    # from the trichotomy's cyclic-cover form give the same model, or the
    # same refusal
    def outcome(model):
        try:
            return model()
        except ValidationError as exc:
            return str(exc)

    rng = random.Random(20121)
    models = 0
    for _ in range(150):
        triples = y_squared_triples(rng)
        coefficients = [
            Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.randrange(1, 8))
            for _ in range(4)
        ]
        try:
            rows = surface_from_affine_triples(triples).rows
            surface = validate_surface(rows, coefficients)
            if surface.is_degenerate:
                continue
            minimal = reduce_to_minimal(surface)
            trichotomy = trichotomy_of(minimal)
        except ValidationError:
            continue
        assert isinstance(trichotomy, Superelliptic)
        direct = outcome(lambda: _double_cover_model(psi_direct(minimal)))
        assert direct == outcome(lambda: genus_one_weierstrass(trichotomy.form))
        models += isinstance(direct, WeierstrassModel)
    assert models >= 100


def test_genus_one_section_exactly_on_genus_one_double_covers():
    # analyze gates the section on the cover exponent, and on a = 2 the
    # model never refuses: psi cleared of its even power of v is a cubic or
    # a quartic; a cube cover has a form but no double cover, and the
    # semistable branch has no cyclic-cover form at all
    cube_cover = [(0, 3, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)]
    with pytest.raises(ValidationError, match="cyclic cover of exponent 3, not 2"):
        model_of(cube_cover)
    assert report_of(cube_cover).genus_one is None
    report = report_of([(1, 2, 0), (3, 1, 0), (0, 1, 0), (1, 0, 1)])
    assert isinstance(report.trichotomy, SemistableAway)
    assert report.genus_one is None

    rng = random.Random(2012)
    genus_one_covers = Counter()
    for draw in range(3000):
        if draw % 4:  # u^a plus three u-free monomials, a in 2..4
            a = rng.choice([2, 3, 4])
            exponents = rng.sample(range(5), 3)
            triples = [(0, a, 0)] + [(e, 0, rng.randrange(4)) for e in exponents]
            rng.shuffle(triples)
        else:  # four distinct triples in [0..4]^2 x [0..3]
            triples = set()
            while len(triples) < 4:
                triples.add((rng.randrange(5), rng.randrange(5), rng.randrange(4)))
            triples = sorted(triples)
        coefficients = [
            Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.randrange(1, 8))
            for _ in range(4)
        ]
        try:
            rows = surface_from_affine_triples(triples).rows
            surface = validate_surface(rows, coefficients)
        except ValidationError:
            continue
        try:  # a double cover must never be refused by the model
            report = analyze(surface)
        except ValidationError as exc:
            assert "generic fiber is rational" in str(exc), triples
            continue
        trichotomy = report.trichotomy
        a = None  # the cover exponent of a genus-one cyclic cover
        if isinstance(trichotomy, Superelliptic) and trichotomy.generic_genus == 1:
            a = trichotomy.form.cover_exponent
        assert (report.genus_one is not None) == (a == 2), triples
        if a is not None:
            genus_one_covers[a] += 1
            if a != 2:
                with pytest.raises(ValidationError, match=f"exponent {a}, not 2"):
                    genus_one_weierstrass(trichotomy.form)
    assert set(genus_one_covers) == {2, 3, 4}
    assert min(genus_one_covers.values()) >= 100, genus_one_covers


def test_semistable_check_builds_the_plane_once(monkeypatch):
    # x y^2 + x^3 y + y + x t: no cyclic cover, so no Weierstrass model
    surface = surface_from_affine_triples([(1, 2, 0), (3, 1, 0), (0, 1, 0), (1, 0, 1)])
    calls = count_calls(
        monkeypatch, [("reduction", "plane_model"), ("singular", "singular_locus")]
    )
    assert analyze(surface).genus_one is None
    assert calls == {"plane_model": 1, "singular_locus": 1}


def test_isotrivial_check_builds_the_plane_once(monkeypatch):
    # x^5 + y^5 + y^4 + y^4 t: a duplicate monomial, so the isotrivial branch
    # is read off the locus, and no genus-one model is attempted
    surface = surface_from_affine_triples([(5, 0, 0), (0, 5, 0), (0, 4, 0), (0, 4, 1)])
    calls = count_calls(monkeypatch, [("reduction", "plane_model")])
    report = analyze(surface)
    assert report.trichotomy.branch == "isotrivial"
    assert report.genus_one is None
    assert calls == {"plane_model": 1}


# ---------------------------------------------------------------------------
# the eligibility verdict
# ---------------------------------------------------------------------------


def test_verdict_base_change_families():
    cases = [
        ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)], Fraction(2, 3), 1, "II*"),
        ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)], Fraction(1, 2), 1, "III*"),
        ([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)], Fraction(5, 6), 2, "II*"),
    ]
    for triples, expected_gamma, k4, inf_symbol in cases:
        section = report_of(triples).genus_one
        assert section.gamma == expected_gamma
        assert section.base_change_exponent == k4
        assert section.at_infinity.symbol == inf_symbol
        assert section.away.symbol == "I1"


def test_verdict_constant_j_families():
    # cyclic covers of exponent 4 and 3 carry their constant j in the
    # trichotomy: the quartic cover v^4 + u^2 + u + t, and cube covers
    # u^3 + v^3 + v^2 + t^n of a nodal-cubic shape, in both variable orders
    # and with n = 2 reduced away
    for triples, j in (
        ([(0, 4, 0), (2, 0, 0), (1, 0, 0), (0, 0, 1)], 1728),
        ([(0, 3, 0), (3, 0, 0), (2, 0, 0), (0, 0, 2)], 0),
        ([(3, 0, 0), (0, 3, 0), (0, 2, 0), (0, 0, 1)], 0),
    ):
        report = report_of(triples)
        assert report.trichotomy.constant_j == Fraction(j)
        assert report.genus_one is None  # no double cover to model


def genus_one_double_cover(surface) -> bool:
    try:
        trichotomy = trichotomy_of(reduce_to_minimal(surface))
    except ValidationError:
        return False
    return (
        isinstance(trichotomy, Superelliptic)
        and trichotomy.generic_genus == 1
        and trichotomy.form.cover_exponent == 2
    )


def test_verdict_gamma_below_one_on_corpus():
    for surface in deterministic_corpus(min_count=10, keep=genus_one_double_cover):
        section = analyze(surface).genus_one
        assert section.gamma < 1
        assert section.away.conductor == 1  # multiplicative
        if section.base_change_exponent == 1:
            # no quotient: the verdict must agree with the raw formula
            assert section.gamma == gamma(
                section.at_zero, section.at_infinity, [(section.away, 1)]
            )
