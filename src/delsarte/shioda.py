"""Picard numbers by character enumeration (Shioda's method).

The primitive second cohomology of a quasi-smooth Delsarte surface splits
into one-dimensional eigenspaces of the covering torus, indexed by a finite
subgroup L of (Q/Z)^4 generated by the three rows u_i A^{-1}, u_i = e_i - e_4.
A character with no zero entry carries an algebraic class exactly when every
admissible scaling t (a unit modulo the character's order) keeps the sum of
fractional parts at 2; the characters escaping that condition for some t
form the set Lambda, and #(L0 ∩ Lambda) is the Lefschetz number
h^2 - rho of the desingularization.

Everything here is exact integer arithmetic: the generators are rows of
the integer adjugate of A over det A, a character is stored as numerators
n_k over its order D, and the defining condition reads
sum((t*n_k) mod D) == 2*D.

For the double-cover family y^2 = x^p + t^{2ap} + s^{2ap} one slice of L0
suffices.  Its members are (ap, 2ai, j, k)/2ap with 1 <= i < p and k
forced by the entry sum.  Take a unit u modulo 2ap with u = i (mod p); one
exists for every i.  As u is odd it fixes ap, it sends 2a to 2ai, and it
permutes the nonzero j, so scaling by u maps the slice i = 1 one-to-one
onto the slice i.  Unit scaling preserves both L0 and Lambda, so every
slice has as many members outside Lambda as the first, and rho of the
smooth model is 2 + (p - 1) times the number of excluded j-fractions of
that slice.

The Hodge levels need no scan at all.  Write c = ap + 2ai, so ap < c < 3ap
and the member's entry sum is c + j + k = 2ap * ceil((c + j) / 2ap).  With
lo, r = divmod(c, 2ap) (r is never 0, since 2ai = ap would make p even),
the j below 2ap - r sit at level q = lo + 1, j = 2ap - r gives k = 0, and
the j above sit at level lo + 2: slice i puts 2ap - r - 1 characters at
level lo + 1 and r - 1 at level lo + 2.

``verify_family`` (``picard --verify``) relies on neither: it enumerates
all of L0 from the adjugate of the family's exponent matrix, rescans every
member with the exhaustive scan and recounts the Hodge levels from the
members' entry sums.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import SingularMatrixError, ValidationError, VerificationError
from .exact import Adjugate
from .exact import adjugate as integer_adjugate

# Largest p accepted.  Miller-Rabin with the first twelve primes as
# witnesses decides primality exactly below 3.18 * 10**23 (Sorenson and
# Webster, Math. Comp. 86, 2017), which covers every n < MAX_P.
MAX_P = 2**64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Exact primality of an integer n < 2**64 (deterministic Miller-Rabin)."""
    if n >= MAX_P:
        raise ValueError(f"{n} is outside the range decided exactly")
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CharacterVector:
    """An element of (Q/Z)^4 with integer entry sum: numerators in
    [0, modulus) over ``modulus``, the lcm of the entry orders."""

    numerators: tuple[int, int, int, int]
    modulus: int

    def __post_init__(self) -> None:
        if len(self.numerators) != 4:
            raise ValidationError("character vectors have four entries")
        d = self.modulus
        if d < 1:
            raise ValidationError(f"modulus {d} is not positive")
        reduced = tuple(n % d for n in self.numerators)
        if sum(reduced) % d:
            raise ValidationError(
                f"entry sum of {_readable(reduced, d)} is not an integer"
            )
        g = gcd(d, *reduced)
        object.__setattr__(self, "numerators", tuple(n // g for n in reduced))
        object.__setattr__(self, "modulus", d // g)

    @property
    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The entries as fractions in [0, 1)."""
        return tuple(Fraction(n, self.modulus) for n in self.numerators)

    def __str__(self) -> str:
        return _readable(self.numerators, self.modulus)


def _readable(numerators: Sequence[int], modulus: int) -> str:
    return "(" + ", ".join(str(Fraction(n, modulus)) for n in numerators) + ")"


@dataclass(frozen=True)
class LambdaVerdict:
    vector: CharacterVector
    in_lambda: bool
    witness: Optional[int]
    modulus: int


@dataclass(frozen=True)
class FamilyParams:
    """The double-cover family y^2 = x^p + t^{2ap} + s^{2ap}."""

    p: int
    a: int

    def __post_init__(self) -> None:
        if self.p >= MAX_P:
            raise ValidationError(f"p = {self.p} must be below 2**64")
        if not (is_prime(self.p) and self.p % 2 == 1):
            raise ValidationError(f"p = {self.p} must be an odd prime")
        if self.a < 1:
            raise ValidationError(f"a = {self.a} must be positive")

    @property
    def weight(self) -> int:
        """Common degree 2ap of the defining monomials."""
        return 2 * self.a * self.p

    @property
    def matrix(self) -> tuple[tuple[int, int, int, int], ...]:
        d = self.weight
        return (
            (0, 2, 0, d - 2),
            (self.p, 0, 0, d - self.p),
            (0, 0, d, 0),
            (0, 0, 0, d),
        )


# ---------------------------------------------------------------------------
# The lattice L and the set Lambda
# ---------------------------------------------------------------------------


def shioda_vectors(
    adjugate: Adjugate,
) -> tuple[CharacterVector, CharacterVector, CharacterVector]:
    """The three generators u_i A^{-1} mod Z^4, u_i = e_i - e_4, from
    ``(det A, adj A)``: numerators sign(det A) * (u_i adj A) over |det A|.

    The left action is the one matching the printed family generators
    (0,1/p,0,-1/p), (1/2,0,0,-1/2), (0,0,1/2ap,-1/2ap) and the left-kernel
    convention used for fibrations; it also guarantees the integer entry
    sum, since the equal row sums d give A^{-1} 1 = 1/d.
    """
    det, adj = adjugate
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    sign = 1 if det > 0 else -1
    return tuple(
        CharacterVector(
            tuple(sign * (x - y) for x, y in zip(adj[i], adj[3])), abs(det)
        )
        for i in range(3)
    )  # type: ignore[return-value]


def enumerate_L0(
    v1: CharacterVector, v2: CharacterVector, v3: CharacterVector
) -> frozenset[CharacterVector]:
    """All-nonzero members of the subgroup generated by v1, v2, v3.

    The sums are taken on numerators over the lcm D of the generator moduli.
    The group is closed one generator g at a time: the cosets H + g,
    H + 2g, ... of the group H so far are added until a multiple of g lands
    in H, so the work is O(|L|) rather than the product of the moduli.  The
    members are held as four columns of numerators.
    """
    d = lcm(v1.modulus, v2.modulus, v3.modulus)
    columns: list[list[int]] = [[0], [0], [0], [0]]
    for v in (v1, v2, v3):
        g = tuple(n * (d // v.modulus) for n in v.numerators)
        subgroup = set(zip(*columns))
        coset = [list(column) for column in columns]
        multiple = g
        while multiple not in subgroup:
            coset = [[(x + c) % d for x in column] for column, c in zip(coset, g)]
            for column, added in zip(columns, coset):
                column.extend(added)
            multiple = tuple((x + c) % d for x, c in zip(multiple, g))
    return frozenset(
        CharacterVector(n, d) for n in zip(*columns) if 0 not in n
    )


@lru_cache(maxsize=256)
def _units(modulus: int) -> tuple[int, ...]:
    """The t in [1, modulus] prime to ``modulus``, ascending."""
    return tuple(t for t in range(1, modulus + 1) if gcd(t, modulus) == 1)


def _integer_verdict(
    numerators: Sequence[int], denominator: int
) -> tuple[bool, Optional[int]]:
    """Early-exit unit scan: is some fractional-part sum different from 2?

    Scans t ascending, so the witness is the least one; tests compare this
    against the exhaustive scan.
    """
    order_gcd = gcd(denominator, *numerators)
    modulus = denominator // order_gcd
    target = 2 * denominator
    for t in _units(modulus):
        total = sum((t * n) % denominator for n in numerators)
        if total != target:
            return True, t
    return False, None


def lambda_membership(v: CharacterVector) -> LambdaVerdict:
    """Whether some unit multiple of v has fractional parts not summing to 2.

    The scan runs over t in (Z/N)^*, N = lcm of the entry orders; unit t is
    exactly the order-preserving scaling.  Intended for vectors without zero
    entries (members of L0).
    """
    in_lambda, witness = _integer_verdict(v.numerators, v.modulus)
    return LambdaVerdict(v, in_lambda, witness, v.modulus)


def exhaustive_sums(v: CharacterVector) -> dict[int, int]:
    """All unit scalings with their fractional-part sums (no early exit).

    The unoptimized form of the Lambda test, kept as the reference the
    early-exit scan is validated against.  Each sum is an integer because
    the entry sum is.
    """
    d = v.modulus
    return {
        t: sum((t * n) % d for n in v.numerators) // d
        for t in range(1, d + 1)
        if gcd(t, d) == 1
    }


def lefschetz_number(adjugate: Adjugate) -> int:
    """#(L0 ∩ Lambda) for the exponent matrix A with ``(det A, adj A)``."""
    vectors = enumerate_L0(*shioda_vectors(adjugate))
    return sum(1 for v in vectors if lambda_membership(v).in_lambda)


# ---------------------------------------------------------------------------
# The double-cover family
# ---------------------------------------------------------------------------


def family_L0_count(params: FamilyParams) -> int:
    return (params.p - 1) * (params.weight - 2)


def picard_family(
    params: FamilyParams, excluded: Optional[set[Fraction]] = None
) -> int:
    """rho of the desingularized family member: 2 plus the number of L0
    characters outside Lambda, which is p - 1 times the number on the slice
    i = 1 (see the module docstring).  ``excluded`` is that slice's
    ``excluded_fractions`` when the caller has it already."""
    if excluded is None:
        excluded = excluded_fractions(params)
    return 2 + (params.p - 1) * len(excluded)


def excluded_fractions(params: FamilyParams) -> set[Fraction]:
    """Brute force, on the slice i = 1, of the j-fractions outside Lambda."""
    a, p, d = params.a, params.p, params.weight
    out: set[Fraction] = set()
    for j in range(1, d):
        k = -(a * p + 2 * a + j) % d
        if k == 0:
            continue
        if not _integer_verdict((a * p, 2 * a, j, k), d)[0]:
            out.add(Fraction(j, d))
    return out


def gs_hodge_counts(params: FamilyParams) -> tuple[int, int, int]:
    """(h20, h11_prim, h02): L0 characters grouped by entry sum q = 1, 2, 3,
    counted slice by slice in closed form (see the module docstring)."""
    a, p, d = params.a, params.p, params.weight
    counts = {1: 0, 2: 0, 3: 0}
    for i in range(1, p):
        lo, r = divmod(a * p + 2 * a * i, d)
        counts[lo + 1] += d - r - 1
        counts[lo + 2] += r - 1
    return counts[1], counts[2], counts[3]


# the name of the L0 characters of each entry sum q = 1, 2, 3
HODGE_LEVELS = {1: "h20", 2: "h11prim", 3: "h02"}


def verify_family(
    params: FamilyParams, L0_count: int, lam: int, hodge: Optional[tuple] = None
) -> int:
    """Recount a family member from the matrix route with the exhaustive
    scan; returns the number of characters checked, and raises
    VerificationError on the first disagreement.

    This enumerates all of L0, so it checks ``L0_count``, the Lefschetz
    number ``lam`` that the slice count of ``picard_family`` gives, and the
    early-exit scan on every member; with ``hodge``, the levels of
    ``gs_hodge_counts``, it checks those against the members' entry sums.
    """
    members = enumerate_L0(*shioda_vectors(integer_adjugate(params.matrix)))
    if len(members) != L0_count:
        raise VerificationError(f"L0 size {len(members)} != direct count {L0_count}")
    slow_lam = 0
    for vector in members:
        slow = any(s != 2 for s in exhaustive_sums(vector).values())
        if slow != lambda_membership(vector).in_lambda:
            raise VerificationError(f"scan disagreement at {vector}")
        slow_lam += slow
    if slow_lam != lam:
        raise VerificationError(f"lambda {slow_lam} != {lam}")
    if hodge is not None:
        levels = Counter(sum(v.numerators) // v.modulus for v in members)
        for (q, name), count in zip(HODGE_LEVELS.items(), hodge):
            if levels[q] != count:
                raise VerificationError(f"{name} {levels[q]} != {count}")
    return len(members)
