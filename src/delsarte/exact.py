"""Exact rational arithmetic and integer linear algebra on exponent matrices.

Everything in this package is computed over Q.  Floating point is never used
for anything that feeds a decision, so this module provides the few pieces of
exact machinery the rest of the code leans on:

* JSON-friendly parsing/formatting of rationals ("p/q" strings, bare ints);
* exact k-th roots of rationals (for locating rational points on a locus
  ``t^k = c``);
* integer linear algebra for exponent matrices: the determinant and
  adjugate of a 4x4 matrix and the left kernel of a 4x3 one, both from 3x3
  cofactors (fraction-free, so there is no pivoting nondeterminism), and
  ``hermite``, the Hermite normal form with its unimodular transform, the
  one echelon routine: integer kernels, Bezout pairs and the orders of the
  character groups all come from it;
* ``QPoly``, a polynomial in t over Q with the few operations the genus-one
  section and the ``--verify`` oracle need, and ``primitive_quotient``,
  which scales a quotient already in lowest terms to integer coefficients
  as sympy's ``cancel`` leaves it;
* the text of a polynomial in t, and of a quotient of two, as sympy's
  ``str`` writes the expression (``format_polynomial``, ``format_quotient``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import ValidationError

RationalLike = Union[int, Fraction]

# the documented text form: an optional sign, digits, and an optional
# "/digits"; Fraction itself would also take decimals and exponents
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")

# Longest numerator or denominator accepted, in digits.  The genus-one
# report prints integers several times longer than the coefficients (the
# discriminant and j), and str() of an int stops at 4,300 digits.
MAX_DIGITS = 256


# ---------------------------------------------------------------------------
# Rational <-> JSON text
# ---------------------------------------------------------------------------

def parse_rational(value: Union[int, str]) -> Fraction:
    """Parse a rational from its JSON form: an int, or a string "p/q" or "p".

    Floats are rejected on purpose -- every quantity in this package is exact
    -- and so are decimal and exponent strings such as "0.5" or "1e5", and
    rationals whose numerator or denominator in lowest terms has more than
    MAX_DIGITS digits.
    """
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r}")
    if isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_TEXT.fullmatch(text):
            raise ValidationError(f"not a rational: {value!r}")
        try:
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational: {value!r}") from exc
    else:
        raise ValidationError(f"not a rational: {value!r} (floats are not accepted)")
    if max(abs(q.numerator), q.denominator) >= 10**MAX_DIGITS:
        raise ValidationError(
            f"a numerator or denominator has more than {MAX_DIGITS} digits"
        )
    return q


def rational_to_json(q: RationalLike) -> Union[int, str]:
    """JSON form: a plain int when integral, else the string "p/q"."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else str(q)


# ---------------------------------------------------------------------------
# Exact roots
# ---------------------------------------------------------------------------

def _int_kth_root(n: int, k: int) -> tuple[int, bool]:
    """Exact floor k-th root of n >= 0, plus whether n is a perfect k-th power."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    lo, hi = 0, 1
    while hi**k <= n:
        hi <<= 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo, lo**k == n


def rational_kth_roots(c: RationalLike, k: int) -> list[Fraction]:
    """All rational solutions x of x^k = c, sorted ascending.

    The result has 0, 1 or 2 elements.  ``k`` must be >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    c = Fraction(c)
    if c == 0:
        return [Fraction(0)]
    if c < 0 and k % 2 == 0:
        return []
    num, den = abs(c.numerator), c.denominator
    rn, ok_n = _int_kth_root(num, k)
    rd, ok_d = _int_kth_root(den, k)
    if not (ok_n and ok_d):
        return []
    root = Fraction(rn, rd)
    if k % 2 == 1:
        return [root if c > 0 else -root]
    return [-root, root]


# ---------------------------------------------------------------------------
# Integer vector utilities
# ---------------------------------------------------------------------------

def primitive_integer_vector(v: Sequence[RationalLike]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational so the result is
    integral with gcd 1.  The direction (sign) is preserved."""
    if all(type(x) is int for x in v):
        ints = v
    else:
        fracs = [Fraction(x) for x in v]
        scale = lcm(*(x.denominator for x in fracs))
        ints = [x.numerator * (scale // x.denominator) for x in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# Integer exponent matrices
# ---------------------------------------------------------------------------

Matrix = tuple[tuple[int, ...], ...]  # integer rows
Adjugate = tuple[int, Matrix]  # (det A, rows of adj A)


# the indices 0..3 but one, in order: _OMIT[i] leaves out i
_OMIT = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _det3(a: Sequence[int], b: Sequence[int], c: Sequence[int],
          p: int = 0, q: int = 1, r: int = 2) -> int:
    """Determinant of the 3x3 integer matrix with rows a, b, c restricted to
    the columns p, q, r."""
    return (
        a[p] * (b[q] * c[r] - b[r] * c[q])
        - a[q] * (b[p] * c[r] - b[r] * c[p])
        + a[r] * (b[p] * c[q] - b[q] * c[p])
    )


def adjugate(rows: Sequence[Sequence[int]]) -> Adjugate:
    """``(det A, adj A)`` of a 4x4 integer matrix A, from its 3x3 cofactors.

    ``A . adj A = adj A . A = det A * I``, so A^{-1} = adj A / det A whenever
    det A != 0: every entry of A^{-1} is an integer over det A.
    """
    adj = [[0] * 4 for _ in range(4)]
    for i, (k, m, n) in enumerate(_OMIT):
        a, b, c = rows[k], rows[m], rows[n]
        for j, cols in enumerate(_OMIT):
            minor = _det3(a, b, c, *cols)  # of A without row i and column j
            adj[j][i] = -minor if (i + j) % 2 else minor
    det = sum(rows[0][j] * adj[j][0] for j in range(4))
    return det, tuple(map(tuple, adj))


def hermite(rows: Sequence[Sequence[int]]) -> tuple[Matrix, Matrix]:
    """``(H, U)``: the Hermite normal form H of an integer matrix and a
    unimodular U with ``U . rows = H`` (Cohen, GTM 138, section 2.4).

    H is in row echelon form with its zero rows last, each pivot positive
    and the entries above it in [0, pivot).  Column by column, Euclid's
    algorithm with floor quotients folds every row below the pivots so far
    into the first of them.  So the rows of U past the rank span the left
    kernel, and on one column (a, b) the first row of U is the Bezout pair
    of the extended Euclid algorithm.
    """
    width, m = (len(rows[0]) if rows else 0), len(rows)
    # each row carries its row of U, the identity at first
    h = [[*r, *(0,) * i, 1, *(0,) * (m - 1 - i)] for i, r in enumerate(rows)]
    rank = 0
    for col in range(width):
        if rank == m:
            break
        pivot = h[rank]
        for i in range(rank + 1, m):
            row = h[i]
            while row[col]:
                q = pivot[col] // row[col]
                pivot, row = row, [x - q * y for x, y in zip(pivot, row)]
            h[i] = row
        if not pivot[col]:  # the column is 0 below the pivots found
            continue
        h[rank] = pivot = pivot if pivot[col] > 0 else [-x for x in pivot]
        for i in range(rank):
            q = h[i][col] // pivot[col]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], pivot)]
        rank += 1
    return tuple(tuple(r[:width]) for r in h), tuple(tuple(r[width:]) for r in h)


def left_kernel_normalized(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The integer left kernel of a 4x3 rank-3 integer matrix, normalized.

    Returns the unique primitive integer vector k with ``k . rows = 0``,
    gcd(k) = 1 and k[3] > 0.  Computed fraction-free: k_i is (up to sign) the
    3x3 minor obtained by deleting row i.

    Raises ``ValidationError`` if the rank is below 3 or the kernel's last
    coordinate vanishes (no sign normalization exists).
    """
    if len(rows) != 4 or any(len(r) != 3 for r in rows):
        raise ValidationError("left_kernel_normalized expects a 4x3 matrix")
    k = [(-1) ** i * _det3(*(r for j, r in enumerate(rows) if j != i))
         for i in range(4)]
    if all(x == 0 for x in k):
        raise ValidationError("matrix has rank < 3; left kernel is not a line")
    g = gcd(*k)
    k = [x // g for x in k]
    if k[3] == 0:
        raise ValidationError(
            "left kernel vector has last coordinate 0; cannot normalize its sign"
        )
    if k[3] < 0:
        k = [-x for x in k]
    return tuple(k)


# ---------------------------------------------------------------------------
# Polynomials in t over Q
# ---------------------------------------------------------------------------


def _make(coeffs: list, integral: bool) -> QPoly:
    """The QPoly with these coefficients, low degree first.  ``integral``
    promises that every one is an int; otherwise the integral Fractions are
    turned into ints here."""
    if not integral:
        coeffs = [
            c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for c in coeffs
        ]
        integral = all(type(c) is int for c in coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    p = object.__new__(QPoly)
    p.coeffs, p.integral = tuple(coeffs), integral
    return p


def _lift(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return _make([x], type(x) is int)
    return NotImplemented


class QPoly:
    """A polynomial in t over Q.

    ``coeffs`` holds the coefficients, low degree first, without trailing
    zeros (the zero polynomial has none); each is an ``int`` when integral
    and a ``Fraction`` otherwise, so integer polynomials cost integer
    arithmetic only.  ``integral`` says that every coefficient is an int.
    The value is immutable and hashable.  Besides ``+``, ``-``, ``*`` and
    ``**`` by a natural number, it has division with remainder
    (``divmod``), the degree, the lowest exponent, the leading coefficient,
    a shift by a power of t, the monic gcd with a coprimality test, the
    monic multiple and the squarefree part.
    """

    __slots__ = ("coeffs", "integral")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        coeffs = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError(f"not rational coefficients: {coeffs!r}")
        p = _make(coeffs, False)
        self.coeffs, self.integral = p.coeffs, p.integral

    # -- reading ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """The degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def low(self) -> int:
        """The lowest exponent with a nonzero coefficient: the order of
        vanishing at t = 0.  The zero polynomial has none (ValueError)."""
        for e, c in enumerate(self.coeffs):
            if c:
                return e
        raise ValueError("the zero polynomial has no lowest term")

    @property
    def lc(self) -> RationalLike:
        """The leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return other
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({format_polynomial(self)!r})"

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> QPoly:
        other = _lift(other)
        if other is NotImplemented:
            return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        coeffs = list(a)
        for i, c in enumerate(b):
            coeffs[i] += c
        return _make(coeffs, self.integral and other.integral)

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return _make([-c for c in self.coeffs], self.integral)

    def __sub__(self, other) -> QPoly:
        other = _lift(other)
        if other is NotImplemented:
            return other
        return self + -other

    def __rsub__(self, other) -> QPoly:
        other = _lift(other)
        if other is NotImplemented:
            return other
        return other + -self

    def __mul__(self, other) -> QPoly:
        if isinstance(other, (int, Fraction)):
            integral = self.integral and type(other) is int
            return _make([c * other for c in self.coeffs], integral)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not (a and b):
            return _make([], True)
        coeffs = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    coeffs[j] += x * y
        return _make(coeffs, self.integral and other.integral)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        if n < 0:
            raise ValueError("a polynomial has no negative powers")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return _make([1], True) if result is None else result

    def __divmod__(self, other: QPoly) -> tuple[QPoly, QPoly]:
        """(q, r) with self = q * other + r and deg r < deg other.  Each
        quotient coefficient touches only the nonzero terms of ``other``, so
        dividing by a binomial costs one step per coefficient."""
        divisor = other.coeffs
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        n, lead = len(divisor) - 1, divisor[-1]
        rest = [(e, c) for e, c in enumerate(divisor[:-1]) if c]
        remainder = list(self.coeffs)
        quotient = [0] * max(len(remainder) - n, 0)
        for i in range(len(quotient) - 1, -1, -1):
            c = remainder[i + n]
            if not c:
                continue
            if lead != 1:
                if type(c) is int and type(lead) is int and c % lead == 0:
                    c //= lead
                else:
                    c = Fraction(c) / lead
            quotient[i] = c
            for e, d in rest:
                remainder[i + e] -= c * d
        del remainder[n:]
        integral = self.integral and other.integral and lead in (1, -1)
        return _make(quotient, integral), _make(remainder, integral)

    def shift(self, n: int) -> QPoly:
        """self * t^n; a negative n must be at most the lowest exponent."""
        if n >= 0:
            return _make([0] * n + list(self.coeffs), self.integral)
        if self and self.low < -n:
            raise ValueError(f"t^{-n} does not divide {self!r}")
        return _make(list(self.coeffs[-n:]), self.integral)

    def monic(self) -> QPoly:
        """self over its leading coefficient; the zero polynomial stays 0."""
        lead = self.lc
        if lead in (0, 1):
            return self
        inverse = 1 / Fraction(lead)
        return _make([c * inverse for c in self.coeffs], False)

    def gcd(self, other: QPoly) -> QPoly:
        """The monic greatest common divisor, by Euclid's algorithm; 0 when
        both are 0."""
        a, b = self, other
        while b:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def is_coprime(self, other: QPoly) -> bool:
        """Whether self and other have no common root."""
        return self.gcd(other).degree == 0

    def sqf_part(self) -> QPoly:
        """self over gcd(self, self'): the product of its distinct
        irreducible factors, up to a constant factor."""
        if not self:
            return self
        derivative = [e * c for e, c in enumerate(self.coeffs)][1:]
        return divmod(self, self.gcd(_make(derivative, self.integral)))[0]


T = QPoly([0, 1])


def primitive_quotient(numer: QPoly, denom: QPoly) -> tuple[QPoly, QPoly]:
    """numer/denom, a quotient already in lowest terms, scaled to integer
    coefficients with no common content and a positive leading coefficient
    in the denominator: the form sympy's ``cancel`` leaves, so that the
    printers write j as sympy's ``str`` would."""
    v = primitive_integer_vector(numer.coeffs + denom.coeffs)
    if denom.lc < 0:
        v = tuple(-x for x in v)
    k = len(numer.coeffs)
    return _make(list(v[:k]), True), _make(list(v[k:]), True)


# ---------------------------------------------------------------------------
# Polynomials in t as text
# ---------------------------------------------------------------------------
#
# The printers take a ``QPoly`` and write what sympy's ``str`` writes for
# the expression: terms by descending degree, a term as ``t``, ``-t``,
# ``5*t**3``, ``3*t/4`` or ``-t**2/2``, a constant as ``p`` or ``p/q``.


def _monomials(poly: QPoly) -> list[tuple[int, int, int]]:
    """(e, p, q) for each nonzero term p/q t^e of ``poly``, by descending e."""
    coeffs = poly.coeffs
    return [
        (e, coeffs[e].numerator, coeffs[e].denominator)
        for e in range(len(coeffs) - 1, -1, -1)
        if coeffs[e]
    ]


def _power(e: int) -> str:
    return "t" if e == 1 else f"t**{e}"


def _product(p: int, q: int, numer: list[str], denom: list[str]) -> str:
    """p/q times the factors ``numer`` over the factors ``denom``: numbers
    first, a lone denominator bare and several in parentheses."""
    top = ([str(abs(p))] if abs(p) != 1 else []) + numer
    bottom = ([str(q)] if q != 1 else []) + denom
    text = "-" if p < 0 else ""
    text += "*".join(top) or "1"
    if len(bottom) == 1:
        return f"{text}/{bottom[0]}"
    if bottom:
        return f"{text}/({'*'.join(bottom)})"
    return text


def _format_sum(monomials: list[tuple[int, int, int]]) -> str:
    if not monomials:
        return "0"
    # sympy's one exception to descending degree: a positive constant
    # plus one term with a negative coefficient, as in 5 - t
    if len(monomials) == 2 and monomials[1][0] == 0:
        if monomials[1][1] > 0 > monomials[0][1]:
            monomials = monomials[::-1]
    parts = []
    for e, p, q in monomials:
        term = _product(p, q, [_power(e)] if e else [], [])
        if parts:
            parts.append(" - " + term[1:] if p < 0 else " + " + term)
        else:
            parts.append(term)
    return "".join(parts)


def format_polynomial(poly: QPoly) -> str:
    """sympy's ``str`` of the polynomial ``poly`` in t."""
    return _format_sum(_monomials(poly))


def format_quotient(numer: QPoly, denom: QPoly) -> str:
    """sympy's ``str`` of numer/denom, polynomials in t, as the expression
    ``numer.as_expr()/denom.as_expr()``, for a nonzero ``numer`` and a
    ``denom`` of at least two terms, such as j's unit * t^m * (t^k4 - c)^nu
    with nu >= 1 (a ValueError otherwise).

    1/denom stays a power of its sum, so the denominator is parenthesized,
    and so is a numerator of several terms: ``(-t - 1)/(t - 2)``,
    ``6912/(27*t + 4)``, ``-3*t**2/(t + 1)``.
    """
    top, bottom = _monomials(numer), _monomials(denom)
    if not top or len(bottom) < 2:
        raise ValueError("a quotient needs a nonzero numerator over two or more terms")
    if len(top) == 1:
        e, p, q = top[0]
        numer_factors = [_power(e)] if e else []
        return _product(p, q, numer_factors, [f"({_format_sum(bottom)})"])
    return f"({_format_sum(top)})/({_format_sum(bottom)})"
