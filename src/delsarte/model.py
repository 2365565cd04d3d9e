"""Surface model: four-monomial projective surfaces and their affine charts.

A surface here is cut out in P^3 by a sum of exactly four monomials

    F = sum_i  coeff_i * X0^{n_i0} X1^{n_i1} X2^{n_i2} X3^{n_i3},

all of the same total degree.  The 4x4 exponent matrix (rows = monomials,
columns = variables) determines almost everything this package computes, so
the matrix *is* the primary data; coefficients default to 1.  Its integer
determinant and adjugate are computed once per surface, when it is built,
and kept as the field ``DelsarteSurface.adjugate`` that every later stage
reads.

The fibration studied throughout is projection away from the line
{X2 = X3 = 0} onto the line {X0 = X1 = 0}; concretely we work in the affine
chart X3 = 1 with fiber coordinates (x, y) = (X0, X1) and base coordinate
t = X2, so the affine member over t is

    f(x, y, t) = F(x, y, t, 1).

Base changes of the form (x, y, t) -> (x t^a, y t^b, t^c) followed by
division by a power of t act on exponent vectors linearly, with Laurent
exponents in t allowed; ``BaseChangeRecord`` records the one a reduction
used.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ValidationError
from .exact import Adjugate, parse_rational, rational_to_json
from .exact import adjugate as integer_adjugate

IntVec = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# Projective model
# ---------------------------------------------------------------------------

class DelsarteSurface(NamedTuple):
    """A validated four-monomial surface in P^3.

    ``rows[i]`` is the exponent vector of the i-th monomial over the
    variables (X0, X1, X2, X3); ``coefficients[i]`` its coefficient.
    ``adjugate`` is ``(det A, adj A)`` of the exponent matrix A, computed
    once per surface: the reduction and the character lattice read A^{-1}
    off it.  Construct through ``validate_surface`` rather than directly.
    """

    rows: tuple[IntVec, IntVec, IntVec, IntVec]
    coefficients: tuple[Fraction, Fraction, Fraction, Fraction]
    adjugate: Adjugate

    @property
    def degree(self) -> int:
        return sum(self.rows[0])

    def determinant(self) -> int:
        return self.adjugate[0]

    @property
    def is_degenerate(self) -> bool:
        """True when the exponent matrix is singular (the generic fiber of the
        standard fibration is then a union of rational curves, possibly after
        a base change)."""
        return self.determinant() == 0

    def permuted(self, perm: Sequence[int]) -> "DelsarteSurface":
        """The surface with variables relabeled by ``perm``: new variable j is
        old variable perm[j].  Used to select a different pair of coordinate
        lines as fiber/base of the fibration."""
        if (
            not isinstance(perm, (list, tuple))
            or any(not isinstance(j, int) or isinstance(j, bool) for j in perm)
            or sorted(perm) != [0, 1, 2, 3]
        ):
            raise ValidationError(f"not a permutation of 0..3: {perm!r}")
        rows = tuple(tuple(r[perm[j]] for j in range(4)) for r in self.rows)
        return DelsarteSurface(
            rows, self.coefficients, integer_adjugate(rows)  # type: ignore[arg-type]
        )


def validate_surface(
    rows: Sequence[Sequence[int]],
    coefficients: Optional[Sequence[Union[int, Fraction]]] = None,
) -> DelsarteSurface:
    """Check the exponent data and build a ``DelsarteSurface``.

    Rejected inputs: anything not 4x4; negative or non-integer exponents;
    unequal row sums; duplicate rows (the defining polynomial would have
    fewer than four terms); a variable dividing every monomial (the surface
    would be reducible); coefficients that are not an ``int`` or a
    ``Fraction`` (a float or a bool); zero coefficients.
    """
    if (
        not isinstance(rows, (list, tuple))
        or len(rows) != 4
        or any(not isinstance(r, (list, tuple)) or len(r) != 4 for r in rows)
    ):
        raise ValidationError("exponent data must be a 4x4 matrix")
    clean: list[IntVec] = []
    for r in rows:
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValidationError(f"exponents must be integers, got {x!r}")
            if x < 0:
                raise ValidationError(f"exponents must be >= 0, got {x}")
        clean.append(tuple(r))  # type: ignore[arg-type]

    sums = {sum(r) for r in clean}
    if len(sums) != 1:
        raise ValidationError(f"monomials have different total degrees: {sorted(sums)}")
    if sums == {0}:
        raise ValidationError("degree must be positive")
    if len(set(clean)) != 4:
        raise ValidationError("duplicate monomials")
    for j in range(4):
        if all(r[j] > 0 for r in clean):
            raise ValidationError(
                f"variable {j} divides every monomial; the surface is reducible"
            )

    if coefficients is None:
        coeffs = (Fraction(1),) * 4
    else:
        if not isinstance(coefficients, (list, tuple)) or len(coefficients) != 4:
            raise ValidationError("need exactly 4 coefficients")
        if not all(type(c) in (int, Fraction) for c in coefficients):  # no bool
            raise ValidationError(f"coefficients must be rational: {coefficients!r}")
        coeffs = tuple(Fraction(c) for c in coefficients)
        if any(c == 0 for c in coeffs):
            raise ValidationError("coefficients must be nonzero")
    return DelsarteSurface(
        tuple(clean), coeffs, integer_adjugate(clean)  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# Affine chart and base changes
# ---------------------------------------------------------------------------

Term = tuple[Fraction, tuple[int, int, int]]


class _Terms(NamedTuple):
    terms: tuple[Term, ...]


class AffineEquation(_Terms):
    """f(x, y, t) as an ordered sum of monomial terms.

    Exponents of x and y are >= 0; the t-exponent may be any integer (base
    changes produce Laurent polynomials before powers of t are cleared).
    Term order is meaningful and preserved: index 3 is the designated
    t-carrying monomial once an equation is in minimal form.  The terms are
    checked when the equation is built (``_replace`` and ``_make`` would
    skip the checks, so nothing calls them).
    """

    __slots__ = ()

    def __new__(cls, terms: tuple[Term, ...]) -> "AffineEquation":
        seen = set()
        for coeff, (ex, ey, et) in terms:
            if coeff == 0:
                raise ValidationError("zero term in equation")
            if ex < 0 or ey < 0:
                raise ValidationError("negative exponent of a fiber variable")
            if (ex, ey, et) in seen:
                raise ValidationError("terms must have distinct monomials")
            seen.add((ex, ey, et))
        return super().__new__(cls, terms)

    def t_exponents(self) -> tuple[int, ...]:
        return tuple(et for _, (_, _, et) in self.terms)

    def __str__(self) -> str:
        parts = []
        for coeff, exps in self.terms:
            factors = [
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(("x", "y", "t"), exps)
                if e != 0
            ]
            if coeff == 1 and factors:
                parts.append("*".join(factors))
            elif not factors:
                parts.append(str(coeff))
            else:
                parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts)


def affine_equation(surface: DelsarteSurface) -> AffineEquation:
    """Restrict F to the chart X3 = 1 with (x, y, t) = (X0, X1, X2)."""
    return AffineEquation(
        tuple(
            (c, (r[0], r[1], r[2]))
            for c, r in zip(surface.coefficients, surface.rows)
        )
    )


class BaseChangeRecord(NamedTuple):
    """How a reduced equation g relates to the one it came from.

    The substitution x -> x t^twist[0], y -> y t^twist[1], t -> t^inner_degree
    applied to the original f, then divided by t^cleared_power, equals g with
    t replaced by t^degree:

        f(x t^a, y t^b, t^c) = t^e * g(x, y, t^degree).

    ``degree`` may be negative (a flip t -> 1/t was absorbed); it is the
    degree of the base change needed before the reduced model pulls back to
    the original family.
    """

    twist: tuple[int, int]
    inner_degree: int
    cleared_power: int
    degree: int


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def surface_from_json(obj: Mapping) -> DelsarteSurface:
    """Build a surface from the documented input mapping.

    Keys: "monomials" (required, 4x4 ints), "coefficients" (optional, four
    ints or "p/q" strings), "permutation" (optional, a permutation of
    [0, 1, 2, 3] relabeling the variables before analysis).
    """
    if not isinstance(obj, Mapping):
        raise ValidationError("input must be a JSON object")
    unknown = set(obj) - {"monomials", "coefficients", "permutation"}
    if unknown:
        raise ValidationError(f"unknown keys in input: {sorted(unknown)}")
    if "monomials" not in obj:
        raise ValidationError('missing required key "monomials"')
    coeffs = None
    if "coefficients" in obj and obj["coefficients"] is not None:
        raw = obj["coefficients"]
        if not isinstance(raw, Sequence) or isinstance(raw, str):
            raise ValidationError('"coefficients" must be a list')
        coeffs = [parse_rational(v) for v in raw]
    surface = validate_surface(obj["monomials"], coeffs)
    if "permutation" in obj and obj["permutation"] is not None:
        # every check of validate_surface is invariant under permuting the
        # columns, so the permuted surface is valid as it stands
        surface = surface.permuted(obj["permutation"])
    return surface


def surface_to_json(surface: DelsarteSurface) -> dict:
    return {
        "monomials": [list(r) for r in surface.rows],
        "coefficients": [rational_to_json(c) for c in surface.coefficients],
    }
