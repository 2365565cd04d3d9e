"""Exact rational arithmetic primitives and small dense exact linear algebra.

Everything in this package is computed over Q.  Floating point is never used
for anything that feeds a decision, so this module provides the few pieces of
exact machinery the rest of the code leans on:

* JSON-friendly parsing/formatting of rationals ("p/q" strings, bare ints);
* exact k-th roots of rationals (for locating rational points on a locus
  ``t^k = c``);
* ``ExactMatrix``: an immutable matrix of ``Fraction`` entries with exact
  determinant, inverse, vector products and right-kernel basis, and an
  integer left-kernel routine that is fraction-free (cofactor based), so
  there is no intermediate blowup and no pivoting nondeterminism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import RankDeficiencyError, SingularMatrixError, ValidationError

RationalLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Rational <-> JSON text
# ---------------------------------------------------------------------------

def parse_rational(value: Union[int, str]) -> Fraction:
    """Parse a rational from its JSON form: an int, or a string "p/q" or "p".

    Floats are rejected on purpose -- every quantity in this package is exact.
    """
    if isinstance(value, bool):
        raise ValidationError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational: {value!r}") from exc
    raise ValidationError(f"not a rational: {value!r} (floats are not accepted)")


def format_rational(q: RationalLike) -> str:
    """Render a rational as "p" or "p/q" (lowest terms, q > 0)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_to_json(q: RationalLike) -> Union[int, str]:
    """JSON form: a plain int when integral, else the string "p/q"."""
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else format_rational(q)


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

def vec_gcd(v: Iterable[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive_integer_vector(v: Sequence[RationalLike]) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational so the result is
    integral with gcd 1.  The direction (sign) is preserved."""
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive form")
    scale = 1
    for x in fracs:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in fracs]
    g = vec_gcd(ints)
    return tuple(x // g for x in ints)


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix over Q.

    Rows are stored as a tuple of tuples of ``Fraction``.  All operations are
    exact; none of them mutate.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "ExactMatrix":
        if not rows:
            raise ValidationError("matrix needs at least one row")
        width = len(rows[0])
        if width == 0 or any(len(r) != width for r in rows):
            raise ValidationError("matrix rows must be nonempty and equal length")
        return ExactMatrix(tuple(tuple(Fraction(x) for x in r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.rows)

    # -- products ----------------------------------------------------------

    def matvec(self, v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise ValidationError("dimension mismatch in matvec")
        vf = [Fraction(x) for x in v]
        return tuple(sum(a * b for a, b in zip(r, vf)) for r in self.rows)

    def vecmat(self, v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Row vector times matrix."""
        if len(v) != self.nrows:
            raise ValidationError("dimension mismatch in vecmat")
        vf = [Fraction(x) for x in v]
        return tuple(
            sum(vf[i] * self.rows[i][j] for i in range(self.nrows))
            for j in range(self.ncols)
        )

    # -- determinant, inverse, kernel --------------------------------------

    def det(self) -> Fraction:
        """Exact determinant via fraction-free (Bareiss) elimination.

        Rows are first scaled to integers; the accumulated scaling is divided
        back out at the end.
        """
        if self.nrows != self.ncols:
            raise ValidationError("determinant needs a square matrix")
        n = self.nrows
        scale = Fraction(1)
        m: list[list[int]] = []
        for r in self.rows:
            d = 1
            for x in r:
                d = d * x.denominator // gcd(d, x.denominator)
            scale *= d
            m.append([int(x * d) for x in r])

        sign = 1
        prev = 1
        for p in range(n - 1):
            if m[p][p] == 0:
                swap = next((i for i in range(p + 1, n) if m[i][p] != 0), None)
                if swap is None:
                    return Fraction(0)
                m[p], m[swap] = m[swap], m[p]
                sign = -sign
            for i in range(p + 1, n):
                for j in range(p + 1, n):
                    m[i][j] = (m[i][j] * m[p][p] - m[i][p] * m[p][j]) // prev
                m[i][p] = 0
            prev = m[p][p]
        return Fraction(sign * m[n - 1][n - 1], 1) / scale

    def invert(self) -> "ExactMatrix":
        """Exact inverse by Gauss-Jordan elimination over Q."""
        if self.nrows != self.ncols:
            raise ValidationError("inverse needs a square matrix")
        n = self.nrows
        aug = [list(self.rows[i]) + [Fraction(int(i == j)) for j in range(n)]
               for i in range(n)]
        for p in range(n):
            pivot_row = next((i for i in range(p, n) if aug[i][p] != 0), None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            aug[p], aug[pivot_row] = aug[pivot_row], aug[p]
            inv_pivot = 1 / aug[p][p]
            aug[p] = [x * inv_pivot for x in aug[p]]
            for i in range(n):
                if i != p and aug[i][p] != 0:
                    f = aug[i][p]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[p])]
        return ExactMatrix.from_rows([r[n:] for r in aug])

    def _rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m = [list(r) for r in self.rows]
        pivots: list[int] = []
        rank = 0
        for col in range(self.ncols):
            pivot_row = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
            if pivot_row is None:
                continue
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            inv = 1 / m[rank][col]
            m[rank] = [x * inv for x in m[rank]]
            for i in range(len(m)):
                if i != rank and m[i][col] != 0:
                    f = m[i][col]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
            pivots.append(col)
            rank += 1
            if rank == len(m):
                break
        return m, pivots

    def nullspace_basis(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right kernel {v : self . v = 0}, one vector per free
        column of the reduced echelon form (deterministic)."""
        m, pivots = self._rref()
        basis = []
        for free in range(self.ncols):
            if free in pivots:
                continue
            v = [Fraction(0)] * self.ncols
            v[free] = Fraction(1)
            for row, pc in enumerate(pivots):
                v[pc] = -m[row][free]
            basis.append(tuple(v))
        return basis


def left_kernel_normalized(m: ExactMatrix) -> tuple[int, ...]:
    """The integer left kernel of a 4x3 rank-3 matrix, normalized.

    Returns the unique primitive integer vector k with ``k . m = 0``,
    gcd(k) = 1 and k[3] > 0.  Computed fraction-free: k_i is (up to sign) the
    3x3 minor obtained by deleting row i, which is exact integer arithmetic
    once columns are scaled integral (column scaling does not change the left
    kernel).

    Raises ``RankDeficiencyError`` if rank(m) < 3, and ``ValidationError``
    if the kernel's last coordinate vanishes (no sign normalization exists).
    """
    if m.nrows != 4 or m.ncols != 3:
        raise ValidationError("left_kernel_normalized expects a 4x3 matrix")

    cols: list[list[int]] = []
    for j in range(3):
        c = m.col(j)
        d = 1
        for x in c:
            d = d * x.denominator // gcd(d, x.denominator)
        cols.append([int(x * d) for x in c])
    rows = [[cols[j][i] for j in range(3)] for i in range(4)]

    def minor(skip: int) -> int:
        a, b, c = (rows[i] for i in range(4) if i != skip)
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )

    k = [(-1) ** i * minor(i) for i in range(4)]
    if all(x == 0 for x in k):
        raise RankDeficiencyError("matrix has rank < 3; left kernel is not a line")
    g = vec_gcd(k)
    k = [x // g for x in k]
    if k[3] == 0:
        raise ValidationError(
            "left kernel vector has last coordinate 0; cannot normalize its sign"
        )
    if k[3] < 0:
        k = [-x for x in k]
    return tuple(k)
