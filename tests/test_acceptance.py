"""Shipped acceptance checks, one test per criterion.

Each test is self-contained and asserts exact values (no tolerances).
Criteria 2 and 5 were corrected: each had advertised a value that exact
recomputation and the literature contradict (the (3, 60) Picard number and
three Kodaira symbols).  The tests now assert the correct values; the
analysis, with the old values and why they are wrong, lives in the
docstrings of those two tests.  Runtime expectations are asserted with
``time.monotonic`` where the criterion states one.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import reduce
from math import gcd

import sympy
from sympy.abc import t

from corpus import deterministic_corpus, surface_from_affine_triples
from kodaira_oracle import kodaira_fiber
from delsarte import cli
from delsarte.elliptic import (
    AT_INFINITY,
    WeierstrassModel,
    gamma,
    kodaira_type,
    weierstrass_invariants,
)
from delsarte.errors import ValidationError
from delsarte.exact import QPoly, T, primitive_integer_vector
from delsarte.oracle import discriminant_oracle, oracle_matches_locus
from delsarte.reduction import plane_model, reduce_to_minimal
from delsarte.shioda import (
    FamilyParams,
    excluded_fractions,
    family_L0_count,
    gs_hodge_counts,
)
from delsarte.singular import generic_fiber_genus, singular_locus, superelliptic_form


def picard_record(capsys, p: int, a: int) -> dict:
    assert cli.main(["picard", "--p", str(p), "--a", str(a)]) == 0
    return json.loads(capsys.readouterr().out)


def minimal_and_plane(triples):
    m = reduce_to_minimal(surface_from_affine_triples(triples))
    return m, plane_model(m)


def fiber_symbols(model: WeierstrassModel, *places) -> tuple[str, ...]:
    inv = weierstrass_invariants(model)
    return tuple(kodaira_type(inv, place).symbol for place in places)


def oracle_scope(surface) -> bool:
    """Oracle == closed form is claimed for distinct moving monomials and
    positive generic genus (genus-0 families can be equisingular over every
    t != 0 while the closed form still has roots)."""
    p = plane_model(reduce_to_minimal(surface))
    if len(set(p.exponents)) < 4:
        return False
    if any(p.kernel[i] == 0 for i in range(3)):
        return generic_fiber_genus(superelliptic_form(p)) >= 1
    return True


def test_criterion_1_family_picard_headline(capsys):
    """rho(S~) = 2 + 6(p-1) for the double-cover family at p = 11 and 13,
    independent of a; exact, < 10 s per (p, a) single-threaded."""
    for p, expected in ((11, 62), (13, 74)):
        assert expected == 2 + 6 * (p - 1)
        for a in range(1, 13):
            started = time.monotonic()
            record = picard_record(capsys, p, a)
            assert record["rho_tilde"] == expected, (p, a)
            assert time.monotonic() - started < 10.0, (p, a)


def test_criterion_2_small_prime_exceptions(capsys):
    """Stable small-prime values: (7, 3k) -> 86, (5, 6k) -> 74 and
    (3, 60k) -> 70 = 2 + 34(p-1), all three in under 60 s.

    The (3, 60) member is y^2 = x^3 + t^360 + s^360.  Its rho of 70 is
    checked three ways:

    * the direct residue loop and the matrix-route span enumeration
      (exhaustive fractional-part scans) both give 70;
    * a count from scratch over the characters (1/2, i/3, j/m, k/m) of
      y^2 = x^3 + t^m + 1, keeping those whose fractional parts sum to 2
      under every unit, finds 60, 68 and 68 algebraic characters for
      m = 180, 360 and 720, i.e. rho 62, 70 and 70;
    * Shioda proved that y^2 = x^3 + t^360 + 1 has Mordell-Weil rank 68
      over C(t) (Asterisque 209, 1992), the largest rank of any elliptic
      Delsarte surface (Heijne, Math. Comp. 81, 2012); the surface has no
      reducible fiber, so Shioda-Tate gives rho = 2 + 68 = 70.

    The criterion used to advertise 62 = 2 + 30(p-1) here.  That value is
    attained at gcd(a, 60) = 30 (a = 30, 90), not at 60 | a; the full
    gcd(a, 60) -> rho table is pinned in
    test_shioda.py::test_picard_p3_depends_on_gcd_with_60.
    """
    started = time.monotonic()
    seven = picard_record(capsys, 7, 3)["rho_tilde"]
    five = picard_record(capsys, 5, 6)["rho_tilde"]
    three = picard_record(capsys, 3, 60)["rho_tilde"]
    elapsed = time.monotonic() - started
    assert seven == 86
    assert five == 74
    assert elapsed < 60.0
    assert three == 70


def test_criterion_3_excluded_fraction_six_set():
    """For p in {11, 13} and a in {1, 2, 3, 4} the brute-forced out-of-Lambda
    fraction set is exactly the six-element set in terms of p alone."""
    started = time.monotonic()
    for p in (11, 13):
        six = {
            Fraction(p - 1, 2 * p),
            Fraction(1, 2),
            Fraction(p + 2, 2 * p),
            Fraction(2 * p - 4, 2 * p),
            Fraction(2 * p - 2, 2 * p),
            Fraction(2 * p - 1, 2 * p),
        }
        assert len(six) == 6
        for a in (1, 2, 3, 4):
            assert set(excluded_fractions(FamilyParams(p, a))) == six, (p, a)
    assert time.monotonic() - started < 30.0


def test_criterion_4_singular_locus_oracle_equivalence():
    """On >= 50 generated all-ones minimal fibrations of degree <= 6 with
    distinct moving monomials (and positive generic genus, where the claim
    lives), the nonzero roots of the elimination oracle coincide exactly
    with t^{k4} = prod k_i^{k_i}; includes the three pinned loci."""
    pinned = [
        ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (0, 0, 1)], 1, Fraction(-4, 27)),
        ([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)], 2, Fraction(-4, 27)),
        ([(0, 2, 0), (3, 0, 0), (2, 0, 0), (1, 0, 1)], 1, Fraction(1, 4)),
    ]
    for triples, exponent, value in pinned:
        _, p = minimal_and_plane(triples)
        locus = singular_locus(p)
        assert (locus.exponent, locus.value) == (exponent, value)
        assert oracle_matches_locus(discriminant_oracle(p), locus)

    corpus = deterministic_corpus(50, max_total=6, keep=oracle_scope)
    assert len(corpus) >= 50
    for surface in corpus:
        p = plane_model(reduce_to_minimal(surface))
        assert oracle_matches_locus(discriminant_oracle(p), singular_locus(p)), (
            surface.rows
        )


def test_criterion_5_elliptic_worked_examples():
    """Worked elliptic examples: the exact j and fibers of
    y^2 = x^3 + x^2 + tx, the (I1; I1; II*) table of y^2 = x^3 + x^2 + t,
    the (III; I1; IV*) table of y^2 = x^3 + tx + t^2, and the two
    gamma = 2/3 configurations.

    Three Kodaira symbols were corrected from the advertised ones.  By
    Tate's table, from the orders of (c4, c6, Delta):

    * y^2 = x^3 + x^2 + tx at infinity: orders (3, 5, 9), type III*.  The
      advertised III would make the Euler total 2 + 1 + 3 = 6, but a
      rational elliptic surface needs 12 (2 + 1 + 9 = 12 with III*).
      Pinned in test_elliptic.py::test_types_y2_x3_x2_tx.
    * y^2 = x^3 + tx + t^2: orders (1, 2, 3) at 0, type III, and
      (3, 4, 8) at infinity, type IV*, with I1 at -4/27 (Euler
      3 + 1 + 8 = 12).  The advertised (IV, I1, I1*) cannot hold: IV at 0
      needs ord Delta = 4, and here it is 3.  Pinned in
      test_elliptic.py::test_types_y2_x3_tx_t2.

    The advertised (IV at 0, I1 away, I1* at infinity) configuration stays
    under test on y^2 = x^3 + tx^2 + t^2, which has orders (2, 2, 4) at 0
    and (2, 3, 7) at infinity and I1 at -27/4.  The advertised equation
    may be a typo for this one; nothing in the repository settles that.
    (y^2 = x^3 + tx^2 + t^4 has the same fibers with 0 and infinity
    swapped, see test_elliptic.py::test_types_y2_x3_tx2_t4.)
    """
    tx_model = WeierstrassModel(a2=QPoly([1]), a4=T)
    inv = weierstrass_invariants(tx_model)
    # j = c4^3/delta = 256 (3t - 1)^3 / (4t^3 - t^2), cross-multiplied
    assert inv.c4**3 * (4 * T**3 - T**2) == 256 * (3 * T - 1) ** 3 * inv.delta

    assert kodaira_type(inv, Fraction(0)).symbol == "I2"
    assert kodaira_type(inv, Fraction(1, 4)).symbol == "I1"
    assert kodaira_type(inv, AT_INFINITY).symbol == "III*"

    # gamma(at zero, at infinity, away) for (I1; I1; II*) and (IV; I1; I1*)
    I1 = kodaira_fiber("I1")
    assert gamma(I1, kodaira_fiber("II*"), [(I1, 1)]) == Fraction(2, 3)
    assert gamma(kodaira_fiber("IV"), kodaira_fiber("I1*"), [(I1, 1)]) == Fraction(2, 3)

    # (I1; I1; II*) for y^2 = x^3 + x^2 + t reproduces exactly
    cubic = WeierstrassModel(a2=QPoly([1]), a6=T)
    assert fiber_symbols(cubic, Fraction(0), Fraction(-4, 27), AT_INFINITY) == (
        "I1", "I1", "II*"
    )

    t2_model = WeierstrassModel(a4=T, a6=T**2)
    assert fiber_symbols(t2_model, Fraction(0), Fraction(-4, 27), AT_INFINITY) == (
        "III", "I1", "IV*"
    )

    iv_model = WeierstrassModel(a2=T, a6=T**2)
    assert fiber_symbols(iv_model, Fraction(0), Fraction(-27, 4), AT_INFINITY) == (
        "IV", "I1", "I1*"
    )


def _random_minimal_surfaces(count: int, seed: int):
    """Seeded stream of valid minimal fibrations (as surfaces, single moving
    monomial already in place): reducible, degenerate and rank-deficient
    draws are discarded."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        triples = [(rng.randrange(5), rng.randrange(5), 0) for _ in range(3)]
        triples.append((rng.randrange(5), rng.randrange(5), 1))
        if len(set(triples)) < 4:
            continue
        try:
            surface = surface_from_affine_triples(triples)
            if surface.is_degenerate:
                continue
            plane_model(reduce_to_minimal(surface))
        except ValidationError:
            continue
        out.append(surface)
    return out


def test_criterion_6_kernel_vector_invariants():
    """On the criterion-4 corpus plus 200 seeded-random minimal fibrations:
    k annihilates the plane rows, sums to zero, is primitive with k4 > 0,
    every prime misses at least two entries, and k is the primitive
    normalization of (0, 0, 1, -1) A^{-1}."""
    surfaces = deterministic_corpus(50, max_total=6, keep=oracle_scope)
    surfaces += _random_minimal_surfaces(200, seed=20260814)
    assert len(surfaces) >= 250
    for surface in surfaces:
        minimal = reduce_to_minimal(surface)
        pm = plane_model(minimal)
        k = pm.kernel
        for j in range(3):
            assert sum(ki * row[j] for ki, row in zip(k, pm.exponents)) == 0
        assert sum(k) == 0
        assert reduce(gcd, k) == 1
        assert k[3] > 0
        for q in {f for ki in k for f in sympy.primefactors(ki)}:
            assert sum(1 for ki in k if ki % q != 0) >= 2

        # proportionality to (0,0,1,-1) A^{-1} for the minimal form's own
        # exponent matrix (rebuilt by homogenizing its affine terms)
        rebuilt = surface_from_affine_triples(
            [(ex, ey, et) for _, (ex, ey, et) in minimal.equation.terms]
        )
        # (0, 0, 1, -1) A^{-1} = (row 3 - row 4 of adj A) / det A
        det, adj = rebuilt.adjugate
        u = [x - y for x, y in zip(adj[2], adj[3])]
        w = primitive_integer_vector([det * x for x in u])
        if w[3] < 0:
            w = tuple(-x for x in w)
        assert tuple(w) == k, (surface.rows, w, k)


def test_criterion_7_hodge_consistency():
    """Character counts by level sum to (p-1)(2ap-2) = #L0, the outer counts
    agree (conjugation symmetry), and (p, a) = (3, 2) has h20 = 1."""
    for p, a in ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 3), (11, 1), (13, 2)):
        params = FamilyParams(p, a)
        h20, h11, h02 = gs_hodge_counts(params)
        total = h20 + h11 + h02
        assert total == (p - 1) * (2 * a * p - 2) == family_L0_count(params), (p, a)
        assert h20 == h02, (p, a)
    assert gs_hodge_counts(FamilyParams(3, 2))[0] == 1


def test_criterion_8_structure_theorem_smoke():
    """y^2 + x^3 + x + t: the kernel gives k4 = 2 with quotient singular
    value -4/27, and the two away singular parameters are swapped by the
    base involution t -> -t."""
    _, pm = minimal_and_plane([(0, 2, 0), (3, 0, 0), (1, 0, 0), (0, 0, 1)])
    st = singular_locus(pm)
    assert st.exponent == 2
    assert st.value == Fraction(-4, 27)
    assert st.negation_invariant  # t -> -t preserves the away locus as a set

    # the locus polynomial t^2 + 4/27 is even with two distinct conjugate
    # roots, each mapped to the other by negation
    locus_poly = sympy.Poly(t**2 + sympy.Rational(4, 27), t)
    roots = sympy.roots(locus_poly)
    assert len(roots) == 2 and all(m == 1 for m in roots.values())
    r1, r2 = roots
    assert r1 == -r2 and r1 != r2
    assert not st.rational_points
