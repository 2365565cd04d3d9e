"""Genus-one pipeline: Weierstrass models, Kodaira fiber types, gamma.

Everything is exact and lives in one type: polynomials in t over Q
(``exact.QPoly``, whose coefficients are ints when integral).  The models
are short, y^2 = x^3 + a2 x^2 + a4 x + a6; their three coefficients and the
invariants b2..c6 and delta are such polynomials, from the standard b/c
formulas with the two classical identities checked on every call.  By the
main theorem every singular fiber lies over t = 0, t = infinity or the away
orbit t^k4 = c, so a place of the base line is a rational number, the point
at infinity, or a binomial a t^k - c with a, c != 0.  Such a binomial is
squarefree, and its roots must share one fiber type (each cofactor left by
repeated division is prime to it; nothing is factored).  ``kodaira_type``
reads the valuations off c4, c6 and delta.  ``genus_one_section`` splits
c4, c6 and delta at the away orbit once, classifies the away fiber from
those valuations and hands delta's cofactor on to j and gamma, so one
model's invariants are computed once and divided by the orbit once.

The one quotient, j = c4^3/delta, is formed once, with gamma, and without
a gcd.  j is never constant on a double cover of this shape (constant-j
fibrations end on the isotrivial branch, or as covers of exponent at least
3 whose trichotomy carries j), so the away fibers are multiplicative:
the section first checks that delta = unit * t^m * (t^k4 - c)^nu, so c4
is prime to the orbit and the common factor of c4^3 and delta is the power
of t read off the valuations at 0.  j is kept as a (numerator,
denominator) pair in sympy's ``cancel`` form (``exact.primitive_quotient``),
whose denominator has at least two terms.  The report prints these
polynomials with ``exact.format_polynomial`` and ``exact.format_quotient``,
which write what sympy's ``str`` would.

The classification at a place uses the characteristic-zero correspondence
between Kodaira symbols and the valuations (v(c4), v(c6), v(delta)) of the
minimal model there; minimality is reached by shifting with the largest
k <= min(v4/4, v6/6, vd/12), which in residue characteristic zero is the
whole of Tate's algorithm.

``genus_one_section`` computes each genus-one quantity once (psi from the
cyclic-cover form, nu from the away fiber).  The section holds the fiber
table and the verdict's two numbers: the fibration is the base change of
degree k4 (``base_change_exponent``) of a rational elliptic surface whose
``gamma`` < 1 is ``gamma`` of that table (the away orbit as k4 places) over
k4 (Fastenberg's corollary).  Its input is a genus-one double cover
u^2 = psi(v), the one shape ``analysis.analyze`` hands it;
``genus_one_weierstrass`` raises ValidationError on any other cover, a
precondition for a library caller and not a verdict on the surface.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import ValidationError
from .exact import QPoly, T, primitive_quotient
from .singular import SingularLocus, Superelliptic, SuperellipticForm


class _Infinity:
    """The one infinity here: the point at infinity of the base line, and
    the valuation of the zero polynomial, which the Kodaira table compares
    as at least any integer (``v >= 2``, and so ``2 <= v``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "AT_INFINITY"

    def __ge__(self, other) -> bool:
        return True


AT_INFINITY = INFINITY = _Infinity()

Valuation = Union[int, _Infinity]

# j as (numerator, denominator): integer coefficients, lowest terms
Quotient = tuple[QPoly, QPoly]


# ---------------------------------------------------------------------------
# Models and invariants
# ---------------------------------------------------------------------------


class WeierstrassModel(NamedTuple):
    """y^2 = x^3 + a2 x^2 + a4 x + a6, the coefficients polynomials in t."""

    a2: QPoly = QPoly()
    a4: QPoly = QPoly()
    a6: QPoly = QPoly()


class WeierstrassInvariants(NamedTuple):
    """The b- and c-invariants and the discriminant, polynomials in t."""

    b2: QPoly
    b4: QPoly
    b6: QPoly
    b8: QPoly
    c4: QPoly
    c6: QPoly
    delta: QPoly


def weierstrass_invariants(model: WeierstrassModel) -> WeierstrassInvariants:
    """The b-, c-invariants and discriminant of ``model``, checking both
    classical identities, 4 b8 = b2 b6 - b4^2 and c4^3 - c6^2 = 1728 delta."""
    a2, a4, a6 = model.a2, model.a4, model.a6
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = 4 * a2 * a6 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if not delta:
        raise ValidationError(
            "discriminant vanishes identically: not an elliptic fibration"
        )
    # raised, not asserted: both identities must hold under -O too
    if 4 * b8 != b2 * b6 - b4**2:
        raise AssertionError("4 b8 != b2 b6 - b4^2")
    if c4**3 - c6**2 != 1728 * delta:
        raise AssertionError("c4^3 - c6^2 != 1728 delta")
    return WeierstrassInvariants(b2, b4, b6, b8, c4, c6, delta)


# ---------------------------------------------------------------------------
# Kodaira symbols
# ---------------------------------------------------------------------------


class KodairaFiber(NamedTuple):
    """A Kodaira symbol with its Euler number and conductor exponent.

    ``n`` is the index for I_n and I_n* and 0 otherwise; the smooth fiber is
    I0 with (n, e, f) = (0, 0, 0).  In characteristic zero the Euler number
    is e = v(delta_min), the valuation of the minimal discriminant (Ogg), and
    the conductor exponent is 0 for I0, 1 for I_n (n >= 1) and 2 for every
    additive fiber.  ``_classify_valuations`` builds every record.
    """

    symbol: str
    n: int
    euler: int
    conductor: int


Place = Union[Fraction, QPoly, _Infinity]

# (valuation, cofactor) of a polynomial at a binomial place
Split = tuple[Valuation, QPoly]


def _split(p: QPoly, pi: QPoly) -> Split:
    """(n, p / pi^n) for the exponent n of the squarefree, nonconstant
    ``pi`` in ``p``, which every root of ``pi`` must share: the cofactor is
    prime to ``pi`` (an AssertionError otherwise).  (INFINITY, 0) for p = 0."""
    if not p:
        return INFINITY, p
    n = 0
    while True:
        q, r = divmod(p, pi)
        if r:
            break
        p, n = q, n + 1
    if pi.degree > 1 and not r.is_coprime(pi):
        raise AssertionError("places disagree")
    return n, p


def _valuations(inv: WeierstrassInvariants, place: Place) -> list[Valuation]:
    """The orders of vanishing of c4, c6 and delta at a place of P^1 (a
    polynomial place is a binomial); INFINITY for a zero polynomial."""
    parts = (inv.c4, inv.c6, inv.delta)
    if place is AT_INFINITY:
        return [-f.degree if f else INFINITY for f in parts]
    if place == 0:
        return [f.low if f else INFINITY for f in parts]
    if isinstance(place, Fraction):
        place = T - place
    return [_split(f, place)[0] for f in parts]


def _classify_valuations(v4, v6, vd) -> KodairaFiber:
    """The fiber record of the valuations (v(c4), v(c6), v(delta)) at a
    place, read off the minimal valuations (a, b, d); its Euler number is d."""
    # pass to the minimal model: u-substitutions shift by multiples of
    # (4, 6, 12), and vd is always finite; k <= vd // 12, so d >= 0
    k = vd // 12
    if v4 is not INFINITY:
        k = min(k, v4 // 4)
    if v6 is not INFINITY:
        k = min(k, v6 // 6)
    a = v4 - 4 * k if v4 is not INFINITY else INFINITY
    b = v6 - 6 * k if v6 is not INFINITY else INFINITY
    d = vd - 12 * k
    if d == 0:
        return KodairaFiber("I0", 0, 0, 0)
    if a == 0:
        return KodairaFiber(f"I{d}", d, d, 1)
    if a == 2 and b == 3 and d >= 7:
        return KodairaFiber(f"I{d - 6}*", d - 6, d, 2)
    table = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}
    symbol = table.get(d)
    sane = {
        "II": b == 1,
        "III": a == 1,
        "IV": b == 2,
        "I0*": a >= 2 and b >= 3,
        "IV*": b == 4,
        "III*": a == 3,
        "II*": b == 5,
    }
    if symbol is None or not sane[symbol]:
        raise AssertionError(f"no Kodaira symbol for valuations {(a, b, d)}")
    return KodairaFiber(symbol, 0, d, 2)


def kodaira_type(inv: WeierstrassInvariants, place: Place) -> KodairaFiber:
    """Fiber type over the given place of the relatively minimal model whose
    invariants are ``inv``, as in ``kodaira_type(weierstrass_invariants(model),
    Fraction(0))``.

    ``place`` is a rational number, AT_INFINITY, or a binomial a t^k - c
    (a ``QPoly``) with a, c != 0, such as the away orbit t^k4 - c or t - c;
    it shares no root with its derivative, so it is squarefree.  All of its
    roots must have the same valuation data (an AssertionError otherwise).
    """
    if not (place is AT_INFINITY or isinstance(place, Fraction)):
        # raised, not asserted: a constant place would divide forever and a
        # repeated root would halve the valuations, also under -O
        if not (
            isinstance(place, QPoly)
            and sum(map(bool, place.coeffs)) == 2
            and place.coeffs[0]
        ):
            raise AssertionError("a polynomial place must be a binomial a t^k - c")
    return _classify_valuations(*_valuations(inv, place))


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def gamma(
    at_zero: KodairaFiber,
    at_infinity: KodairaFiber,
    away: Sequence[tuple[KodairaFiber, int]],
) -> Fraction:
    """sum over away places of (f - e/6), minus n0/6 and n_infinity/6.

    ``away`` lists each away fiber type once with its number of places (an
    orbit contributes its size); n is the I_n / I_n* index, 0 for the other
    types.
    """
    total = Fraction(0)
    for fiber, count in away:
        total += count * (Fraction(fiber.conductor) - Fraction(fiber.euler, 6))
    return total - Fraction(at_zero.n, 6) - Fraction(at_infinity.n, 6)


# ---------------------------------------------------------------------------
# From minimal fibrations to Weierstrass models
# ---------------------------------------------------------------------------


def _double_cover_model(psi: dict[int, QPoly]) -> WeierstrassModel:
    """Weierstrass model of u^2 = psi(v), psi in Q[t][v] of genus one, given
    as {exponent of v: nonzero coefficient, a polynomial in t}.

    Square factors of v are absorbed into u first; the reduced right side
    must be a cubic (straightened by X = a v, Y = a u) or a quartic (replaced
    by its Jacobian via the classical binary-quartic invariants I and J —
    same j, same fiber types).
    """
    mu = min(psi)
    shift = {e - 2 * (mu // 2): c for e, c in psi.items()}
    degree = max(shift)
    if degree == 3:
        a, b, c, d = (shift.get(i, QPoly()) for i in (3, 2, 1, 0))
        return WeierstrassModel(b, a * c, a**2 * d)
    if degree == 4:
        a, b, c, d, e = (shift.get(i, QPoly()) for i in (4, 3, 2, 1, 0))
        inv_i = 12 * a * e - 3 * b * d + c**2
        inv_j = (
            72 * a * c * e
            - 27 * a * d**2
            - 27 * b**2 * e
            + 9 * b * c * d
            - 2 * c**3
        )
        return WeierstrassModel(a4=-27 * inv_i, a6=-27 * inv_j)
    raise ValidationError(
        f"double cover has degree {degree} after clearing squares; need 3 or 4"
    )


def genus_one_weierstrass(form: SuperellipticForm) -> WeierstrassModel:
    """Weierstrass model of a genus-one fibration from ``form``, the
    cyclic-cover normal form u^a = psi(v) of its superelliptic trichotomy
    (``classify_trichotomy(...).form``).  Its precondition is a double
    cover u^2 = cubic-or-quartic; it raises ValidationError otherwise."""
    if form.cover_exponent != 2:
        raise ValidationError(f"cyclic cover of exponent {form.cover_exponent}, not 2")
    return _double_cover_model(
        {e: c * T if carries_t else QPoly([c]) for c, e, carries_t in form.terms}
    )


# ---------------------------------------------------------------------------
# The section and its gamma
# ---------------------------------------------------------------------------


class GenusOneSection(NamedTuple):
    """The genus-one data of one fibration, each part computed once: the
    Weierstrass model, its invariants, j = c4^3/delta in lowest terms, the
    fibers at 0, over the away orbit ``orbit`` (t^k4 - c) and at infinity,
    and the verdict: the fibration is the degree-k4 base change
    (``base_change_exponent``) of a rational elliptic fibration with one
    away fiber and ``gamma`` < 1, whose fibers are read off this table."""

    model: WeierstrassModel
    invariants: WeierstrassInvariants
    j: Quotient
    orbit: QPoly
    at_zero: KodairaFiber
    away: KodairaFiber
    at_infinity: KodairaFiber
    gamma: Fraction
    base_change_exponent: int


def _j_and_gamma(
    inv: WeierstrassInvariants,
    k4: int,
    delta_split: Split,
    at_zero: KodairaFiber,
    away: KodairaFiber,
    at_infinity: KodairaFiber,
) -> tuple[Quotient, Fraction]:
    """j = c4^3/delta in lowest terms and the gamma of the quotient by
    t -> t^k4, from the invariants and the fiber table.

    j is never constant here: the cover is u^2 = p v^e1 + q v^e2 + r t v^e3
    with distinct e_i, and scaling u and v leaves one modulus, proportional
    to t^(e1 - e2).  So the away fibers, over the orbit t^k4 - c, must be
    multiplicative, I_nu, and delta = unit * t^m * orbit^nu;
    ``delta_split`` is delta's valuation and cofactor at the orbit.  Then
    v(c4) = 0 on the orbit (a multiplicative fiber of a model minimal
    there), so c4^3 and delta share only t^min(3 v0(c4), m), and j needs no
    gcd.  The quotient by t -> t^{k4} has a single away fiber I_nu, and its
    gamma is this table's (k4 away places) over k4,
    1 - (nu + n0/k4 + n_inf/k4)/6, the divisibilities being consequences of
    j living in Q(t^{k4}).  Each of these claims raises AssertionError when
    it fails; a constant j fails the first two, as j then has no pole on
    the orbit.
    """
    # raised, not asserted: every check here must hold under -O too
    nu = away.n
    if nu < 1 or away.symbol != f"I{nu}":
        raise AssertionError("away fiber of a nonconstant-j family must be I_nu")
    # delta = unit * t^m * orbit^nu exactly, before j is read off it
    vd, delta_rest = delta_split
    if vd != nu or delta_rest.low != delta_rest.degree:
        raise AssertionError("discriminant has roots outside {0, away orbit}")
    cube, delta = inv.c4**3, inv.delta
    low = min(cube.low, delta_rest.low)
    j = primitive_quotient(cube.shift(-low), delta.shift(-low))

    if any(c and e % k4 for part in j for e, c in enumerate(part.coeffs)):
        raise AssertionError("j must be a function of t^k4")
    if at_zero.n % k4 or at_infinity.n % k4:
        raise AssertionError("k4 must divide n0 and n_inf")
    return j, gamma(at_zero, at_infinity, [(away, k4)]) / k4


def genus_one_section(
    trichotomy: Superelliptic, locus: SingularLocus
) -> GenusOneSection:
    """Model, invariants, fiber table, j and gamma of a genus-one
    fibration.

    ``trichotomy`` is a superelliptic trichotomy of genus one whose
    cyclic-cover form is a double cover (``cover_exponent`` 2), which gives
    the model, and ``locus`` its locus (not degenerate; its exponent is k4).
    """
    model = genus_one_weierstrass(trichotomy.form)
    inv = weierstrass_invariants(model)
    orbit = T**locus.exponent - locus.value
    at_zero = kodaira_type(inv, Fraction(0))
    # c4, c6 and delta divided by the orbit once: the away fiber and the
    # shape of delta both come from these splits
    splits = [_split(f, orbit) for f in (inv.c4, inv.c6, inv.delta)]
    away = _classify_valuations(*(v for v, _ in splits))
    at_infinity = kodaira_type(inv, AT_INFINITY)
    k4 = locus.exponent
    j, quotient_gamma = _j_and_gamma(inv, k4, splits[2], at_zero, away, at_infinity)
    return GenusOneSection(
        model, inv, j, orbit, at_zero, away, at_infinity, quotient_gamma, k4
    )
