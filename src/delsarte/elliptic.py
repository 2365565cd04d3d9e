"""Genus-one pipeline: Weierstrass models, Kodaira fiber types, gamma.

Everything is exact and lives in one type: polynomials in Q[t] (``QT_RING``).
The models are short, y^2 = x^3 + a2 x^2 + a4 x + a6; their three
coefficients and the invariants b2..c6 and delta are such elements, from the
standard b/c formulas with the two classical identities checked on every
call; the one quotient, j = c4^3/delta, is an element of Q(t) (``QT``,
sympy's ``field("t", QQ)``) in lowest terms.  By the main theorem every
singular fiber lies over t = 0, t = infinity or the away orbit t^k4 = c, so
a place of the base line is a rational number, the point at infinity, or a
binomial a t^k - c of Q[t] with a, c != 0.  Such a binomial is squarefree,
and its roots must share one fiber type (each cofactor left by repeated
division is prime to it; nothing is factored).  ``kodaira_type`` reads the
valuations off c4, c6 and delta, so one model's invariants are computed once
however many places are classified.  The report prints these elements from
their ``.terms()`` with ``exact.format_polynomial`` and
``exact.format_quotient``, which write what sympy's ``str`` would.

The classification at a place uses the characteristic-zero correspondence
between Kodaira symbols and the valuations (v(c4), v(c6), v(delta)) of the
minimal model there; minimality is reached by shifting with the largest
k <= min(v4/4, v6/6, vd/12), which in residue characteristic zero is the
whole of Tate's algorithm.

``genus_one_section`` computes each genus-one quantity once (psi from the
cyclic-cover form, nu from the away fiber); its verdict's gamma is ``gamma``
of the fiber table (the away orbit as k4 places) over k4.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import sympy
from sympy import QQ
from sympy.polys.fields import FracElement, field
from sympy.polys.rings import PolyElement

from .errors import NotConvertibleError, ValidationError
from .singular import SingularLocus, Superelliptic, SuperellipticForm

AT_INFINITY = sympy.oo

# Q(t), where only j lives, and Q[t] with its generator t
QT = field("t", QQ)[0]
QT_RING, T = QT.ring, QT.ring.gens[0]


# ---------------------------------------------------------------------------
# Models and invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 = x^3 + a2 x^2 + a4 x + a6, the coefficients in QT_RING."""

    # a PolyElement is a dict, so a zero default needs a factory
    a2: PolyElement = dataclasses.field(default_factory=lambda: QT_RING.zero)
    a4: PolyElement = dataclasses.field(default_factory=lambda: QT_RING.zero)
    a6: PolyElement = dataclasses.field(default_factory=lambda: QT_RING.zero)


@dataclass(frozen=True)
class WeierstrassInvariants:
    """The b- and c-invariants and the discriminant, as elements of QT_RING,
    and j = c4^3/delta, as an element of QT."""

    b2: PolyElement
    b4: PolyElement
    b6: PolyElement
    b8: PolyElement
    c4: PolyElement
    c6: PolyElement
    delta: PolyElement
    j: FracElement


def weierstrass_invariants(model: WeierstrassModel) -> WeierstrassInvariants:
    """The b-, c-invariants, discriminant and j of ``model``, checking both
    classical identities, 4 b8 = b2 b6 - b4^2 and c4^3 - c6^2 = 1728 delta."""
    a2, a4, a6 = model.a2, model.a4, model.a6
    b2 = 4 * a2
    b4 = 2 * a4
    b6 = 4 * a6
    b8 = 4 * a2 * a6 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    delta = -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    if delta == 0:
        raise ValidationError(
            "discriminant vanishes identically: not an elliptic fibration"
        )
    # raised, not asserted: both identities must hold under -O too
    if 4 * b8 != b2 * b6 - b4**2:
        raise AssertionError("4 b8 != b2 b6 - b4^2")
    if c4**3 - c6**2 != 1728 * delta:
        raise AssertionError("c4^3 - c6^2 != 1728 delta")
    return WeierstrassInvariants(b2, b4, b6, b8, c4, c6, delta, QT.new(c4**3, delta))


# ---------------------------------------------------------------------------
# Kodaira symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KodairaFiber:
    """A Kodaira symbol with its Euler number and conductor exponent.

    ``n`` is the index for I_n and I_n* and 0 otherwise; the smooth fiber is
    I0 with (n, e, f) = (0, 0, 0).
    """

    symbol: str
    n: int
    euler: int
    conductor: int


_ADDITIVE_EULER = {"II": 2, "III": 3, "IV": 4, "I0*": 6, "IV*": 8, "III*": 9, "II*": 10}


def kodaira_fiber(symbol: str) -> KodairaFiber:
    """Build a fiber record from its symbol ("I3", "I1*", "IV*", ...)."""
    if symbol == "I0":
        return KodairaFiber("I0", 0, 0, 0)
    if symbol in _ADDITIVE_EULER:
        return KodairaFiber(symbol, 0, _ADDITIVE_EULER[symbol], 2)
    body = symbol[1:-1] if symbol.endswith("*") else symbol[1:]
    if symbol.startswith("I") and body.isdigit() and int(body) >= 1:
        n = int(body)
        if symbol.endswith("*"):
            return KodairaFiber(symbol, n, 6 + n, 2)
        return KodairaFiber(symbol, n, n, 1)
    raise ValidationError(f"unknown Kodaira symbol {symbol!r}")


Place = Union[Fraction, PolyElement]  # or AT_INFINITY


def _multiplicity(p: PolyElement, pi: PolyElement) -> int:
    """The exponent of the squarefree, nonconstant ``pi`` in ``p``, which
    every root of ``pi`` must share: the cofactor is prime to ``pi`` (an
    AssertionError otherwise)."""
    n = 0
    while True:
        q, r = p.div(pi)
        if r:
            break
        p, n = q, n + 1
    if pi.degree() > 1 and r.gcd(pi).degree() > 0:
        raise AssertionError("places disagree")
    return n


def _valuation(f: PolyElement, place: Place):
    """Order of vanishing of ``f`` in Q[t] at a place of P^1 (a polynomial
    place is a binomial of QT_RING); sympy.oo for f = 0."""
    if not f:
        return sympy.oo
    if place is AT_INFINITY:
        return -f.degree()
    if isinstance(place, Fraction) and place == 0:  # monoms() run high to low
        return f.monoms()[-1][0]
    if isinstance(place, Fraction):
        place = T - QT_RING(place)
    return _multiplicity(f, place)


def _classify_valuations(v4, v6, vd) -> KodairaFiber:
    # pass to the minimal model: u-substitutions shift by multiples of
    # (4, 6, 12), and vd is always finite; k <= vd // 12, so d >= 0
    k = vd // 12
    if v4 is not sympy.oo:
        k = min(k, v4 // 4)
    if v6 is not sympy.oo:
        k = min(k, v6 // 6)
    a = v4 - 4 * k if v4 is not sympy.oo else sympy.oo
    b = v6 - 6 * k if v6 is not sympy.oo else sympy.oo
    d = vd - 12 * k
    if d == 0:
        return kodaira_fiber("I0")
    if a == 0:
        return kodaira_fiber(f"I{d}")
    if a == 2 and b == 3 and d >= 7:
        return kodaira_fiber(f"I{d - 6}*")
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
    return kodaira_fiber(symbol)


def kodaira_type(inv: WeierstrassInvariants, place: Place) -> KodairaFiber:
    """Fiber type over the given place of the relatively minimal model whose
    invariants are ``inv``, as in ``kodaira_type(weierstrass_invariants(model),
    Fraction(0))``.

    ``place`` is a rational number, AT_INFINITY, or a binomial a t^k - c of
    QT_RING with a, c != 0, such as the away orbit t^k4 - c or t - c; it
    shares no root with its derivative, so it is squarefree.  All of its
    roots must have the same valuation data (an AssertionError otherwise).
    """
    if not (place is AT_INFINITY or isinstance(place, Fraction)):
        # raised, not asserted: a constant place would divide forever and a
        # repeated root would halve the valuations, also under -O
        if not (
            isinstance(place, PolyElement)
            and place.ring is QT_RING
            and len(place) == 2
            and (0,) in place
        ):
            raise AssertionError("a polynomial place must be a binomial a t^k - c")
    return _classify_valuations(
        _valuation(inv.c4, place),
        _valuation(inv.c6, place),
        _valuation(inv.delta, place),
    )


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


def _double_cover_model(psi: dict[int, PolyElement]) -> WeierstrassModel:
    """Weierstrass model of u^2 = psi(v), psi in Q[t][v] of genus one, given
    as {exponent of v: nonzero coefficient in QT_RING}.

    Square factors of v are absorbed into u first; the reduced right side
    must be a cubic (straightened by X = a v, Y = a u) or a quartic (replaced
    by its Jacobian via the classical binary-quartic invariants I and J —
    same j, same fiber types).
    """
    mu = min(psi)
    shift = {e - 2 * (mu // 2): c for e, c in psi.items()}
    degree = max(shift)
    if degree == 3:
        a, b, c, d = (shift.get(i, QT_RING.zero) for i in (3, 2, 1, 0))
        return WeierstrassModel(b, a * c, a**2 * d)
    if degree == 4:
        a, b, c, d, e = (shift.get(i, QT_RING.zero) for i in (4, 3, 2, 1, 0))
        inv_i = 12 * a * e - 3 * b * d + c**2
        inv_j = (
            72 * a * c * e
            - 27 * a * d**2
            - 27 * b**2 * e
            + 9 * b * c * d
            - 2 * c**3
        )
        return WeierstrassModel(a4=-27 * inv_i, a6=-27 * inv_j)
    raise NotConvertibleError(
        f"double cover has degree {degree} after clearing squares; need 3 or 4"
    )


def genus_one_weierstrass(form: SuperellipticForm) -> WeierstrassModel:
    """Weierstrass model of a genus-one fibration from ``form``, the
    cyclic-cover normal form u^a = psi(v) of its superelliptic trichotomy
    (``classify_trichotomy(...).form``); raises NotConvertibleError unless
    it is a double cover u^2 = cubic-or-quartic."""
    if form.cover_exponent != 2:
        raise NotConvertibleError(
            f"cyclic cover of exponent {form.cover_exponent}, not 2"
        )
    return _double_cover_model(
        {
            e: QT_RING(c) * T if carries_t else QT_RING(c)
            for c, e, carries_t in form.terms
        }
    )


# ---------------------------------------------------------------------------
# The eligibility verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantJ:
    """All smooth fibers share one modulus, ``j_value``."""

    kind = "constant_j"
    j_value: Fraction


@dataclass(frozen=True)
class BaseChangeOfGammaLessOne:
    """The fibration is the degree-k4 base change of a rational elliptic
    fibration with one away fiber and gamma < 1."""

    kind = "base_change_gamma_lt_one"
    gamma: Fraction
    away_fiber: KodairaFiber
    base_change_exponent: int
    at_zero: KodairaFiber
    at_infinity: KodairaFiber


FastenbergVerdict = Union[ConstantJ, BaseChangeOfGammaLessOne]


@dataclass(frozen=True)
class GenusOneSection:
    """The genus-one data of one fibration, each part computed once: the
    Weierstrass model, its invariants, the fibers at 0, over the away orbit
    ``orbit`` (t^k4 - c, an element of QT_RING) and at infinity, and the
    verdict."""

    model: WeierstrassModel
    invariants: WeierstrassInvariants
    orbit: PolyElement
    at_zero: KodairaFiber
    away: KodairaFiber
    at_infinity: KodairaFiber
    verdict: FastenbergVerdict


def _base_change_verdict(
    inv: WeierstrassInvariants,
    k4: int,
    orbit: PolyElement,
    at_zero: KodairaFiber,
    away: KodairaFiber,
    at_infinity: KodairaFiber,
) -> BaseChangeOfGammaLessOne:
    """The gamma verdict of a nonconstant-j family from its fiber table.

    The away fibers, over ``orbit`` = t^k4 - c, must be multiplicative, I_nu;
    the quotient by t -> t^{k4} has a single away fiber I_nu, and its gamma
    is this table's (k4 away places) over k4, 1 - (nu + n0/k4 + n_inf/k4)/6,
    the divisibilities being consequences of j living in Q(t^{k4}).  Each of
    these claims raises AssertionError when it fails.
    """
    # raised, not asserted: every check here must hold under -O too
    if any(
        m[0] % k4 for part in (inv.j.numer, inv.j.denom) for m in part.monoms()
    ):
        raise AssertionError("j must be a function of t^k4")
    nu = away.n
    if nu < 1 or away.symbol != f"I{nu}":
        raise AssertionError("away fiber of a nonconstant-j family must be I_nu")

    # delta = unit * t^m * (t^k4 - c)^nu exactly
    rest, remainder = inv.delta.div(orbit**nu)
    if remainder or len(rest.monoms()) != 1:
        raise AssertionError("discriminant has roots outside {0, away orbit}")

    if at_zero.n % k4 or at_infinity.n % k4:
        raise AssertionError("k4 must divide n0 and n_inf")
    quotient_gamma = gamma(at_zero, at_infinity, [(away, k4)]) / k4
    return BaseChangeOfGammaLessOne(quotient_gamma, away, k4, at_zero, at_infinity)


def genus_one_section(
    trichotomy: Superelliptic, locus: SingularLocus
) -> GenusOneSection:
    """Model, invariants, fiber table and verdict of a genus-one fibration.

    ``trichotomy`` is a superelliptic trichotomy, whose cyclic-cover form
    gives the model, and ``locus`` its locus (not degenerate; its exponent
    is k4).  Raises NotConvertibleError when the cover is not a double cover.
    """
    model = genus_one_weierstrass(trichotomy.form)
    inv = weierstrass_invariants(model)
    orbit = T**locus.exponent - QT_RING(locus.value)
    at_zero = kodaira_type(inv, Fraction(0))
    away = kodaira_type(inv, orbit)
    at_infinity = kodaira_type(inv, AT_INFINITY)
    j = inv.j
    if j.numer.is_ground and j.denom.is_ground:
        value = j.numer.LC / j.denom.LC
        verdict: FastenbergVerdict = ConstantJ(
            Fraction(int(value.numerator), int(value.denominator))
        )
    else:
        verdict = _base_change_verdict(
            inv, locus.exponent, orbit, at_zero, away, at_infinity
        )
    return GenusOneSection(model, inv, orbit, at_zero, away, at_infinity, verdict)
