"""Picard numbers by character enumeration (Shioda's method).

The primitive second cohomology of a quasi-smooth Delsarte surface splits
into one-dimensional eigenspaces of the covering torus, indexed by a finite
subgroup L of (Q/Z)^4 generated by the three rows u_i A^{-1}, u_i = e_i - e_4.
A character with no zero entry carries an algebraic class exactly when every
admissible scaling t (a unit modulo the character's order) keeps the sum of
fractional parts at 2; the characters escaping that condition for some t
form the set Lambda, and #(L0 ∩ Lambda) is the Lefschetz number
h^2 - rho of the desingularization.

Everything here is exact integer arithmetic: a vector with common
denominator D is stored as numerators n_k, and the defining condition reads
sum((t*n_k) mod D) == 2*D.  The double-cover family
y^2 = x^p + t^{2ap} + s^{2ap} gets dedicated entry points, including the
brute-force check of which j-fractions fall outside Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from .errors import ValidationError
from .exact import ExactMatrix, RationalLike, frac_part

GENERATOR_TARGETS = ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))

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
    """An element of (Q/Z)^4 with integer entry sum, stored in [0, 1)^4."""

    entries: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        if len(self.entries) != 4:
            raise ValidationError("character vectors have four entries")
        reduced = tuple(frac_part(e) for e in self.entries)
        if sum(reduced).denominator != 1:
            raise ValidationError(f"entry sum of {reduced} is not an integer")
        object.__setattr__(self, "entries", reduced)

    @property
    def modulus(self) -> int:
        """lcm of the entry orders in Q/Z."""
        return lcm(*(e.denominator for e in self.entries))

    def numerators(self) -> tuple[int, int, int, int]:
        """The entries as numerators over the common denominator modulus."""
        d = self.modulus
        return tuple(int(e * d) for e in self.entries)

    def scaled(self, n: int) -> "CharacterVector":
        return CharacterVector(tuple(e * n for e in self.entries))

    def has_zero_entry(self) -> bool:
        return any(e == 0 for e in self.entries)


def character_vector(values: Sequence[RationalLike]) -> CharacterVector:
    return CharacterVector(tuple(Fraction(v) for v in values))


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
    def matrix(self) -> ExactMatrix:
        d = self.weight
        return ExactMatrix.from_rows(
            [
                [0, 2, 0, d - 2],
                [self.p, 0, 0, d - self.p],
                [0, 0, d, 0],
                [0, 0, 0, d],
            ]
        )


# ---------------------------------------------------------------------------
# The lattice L and the set Lambda
# ---------------------------------------------------------------------------


def shioda_vectors(
    matrix: ExactMatrix,
) -> tuple[CharacterVector, CharacterVector, CharacterVector]:
    """The three generators u_i A^{-1} mod Z^4, u_i = e_i - e_4.

    The left action is the one matching the printed family generators
    (0,1/p,0,-1/p), (1/2,0,0,-1/2), (0,0,1/2ap,-1/2ap) and the left-kernel
    convention used for fibrations; it also guarantees the integer entry
    sum, since the equal row sums d give A^{-1} 1 = 1/d.
    """
    inverse = matrix.invert()
    return tuple(
        character_vector(inverse.vecmat(target)) for target in GENERATOR_TARGETS
    )


def enumerate_L0(
    v1: CharacterVector, v2: CharacterVector, v3: CharacterVector
) -> frozenset[CharacterVector]:
    """All-nonzero members of the subgroup generated by v1, v2, v3."""
    members: set[CharacterVector] = set()
    for i in range(_generator_order(v1)):
        base1 = v1.scaled(i)
        for k in range(_generator_order(v2)):
            base2 = _add(base1, v2.scaled(k))
            for j in range(_generator_order(v3)):
                members.add(_add(base2, v3.scaled(j)))
    return frozenset(v for v in members if not v.has_zero_entry())


def _generator_order(v: CharacterVector) -> int:
    return v.modulus


def _add(u: CharacterVector, v: CharacterVector) -> CharacterVector:
    return CharacterVector(tuple(a + b for a, b in zip(u.entries, v.entries)))


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
    for t in range(1, modulus + 1):
        if gcd(t, modulus) != 1:
            continue
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
    denominator = v.modulus
    in_lambda, witness = _integer_verdict(v.numerators(), denominator)
    return LambdaVerdict(v, in_lambda, witness, denominator)


def exhaustive_sums(v: CharacterVector) -> dict[int, Fraction]:
    """All unit scalings with their fractional-part sums (no early exit).

    The unoptimized form of the Lambda test, kept as the reference the
    early-exit scan is validated against.
    """
    modulus = v.modulus
    sums = {}
    for t in range(1, modulus + 1):
        if gcd(t, modulus) != 1:
            continue
        sums[t] = sum((frac_part(t * e) for e in v.entries), Fraction(0))
    return sums


def lefschetz_number(matrix: ExactMatrix) -> int:
    """#(L0 ∩ Lambda) for the surface with the given exponent matrix."""
    vectors = enumerate_L0(*shioda_vectors(matrix))
    return sum(1 for v in vectors if lambda_membership(v).in_lambda)


# ---------------------------------------------------------------------------
# The double-cover family
# ---------------------------------------------------------------------------


def _family_vectors(params: FamilyParams) -> Iterator[tuple[int, int, int, int]]:
    """Numerators over 2ap of the L0 members (ap, 2ai, j, k), k forced."""
    a, p, d = params.a, params.p, params.weight
    for i in range(1, p):
        for j in range(1, d):
            k = -(a * p + 2 * a * i + j) % d
            if k == 0:
                continue
            yield (a * p, 2 * a * i, j, k)


def family_L0_count(params: FamilyParams) -> int:
    return (params.p - 1) * (params.weight - 2)


def picard_family(params: FamilyParams) -> int:
    """rho of the desingularized family member: 2 plus the number of L0
    characters whose fractional-part sums equal 2 for every unit scaling."""
    d = params.weight
    return 2 + sum(
        1 for n in _family_vectors(params) if not _integer_verdict(n, d)[0]
    )


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
    """(h20, h11_prim, h02): L0 characters grouped by entry sum q = 1, 2, 3."""
    d = params.weight
    counts = {1: 0, 2: 0, 3: 0}
    for numerators in _family_vectors(params):
        total = sum(numerators)
        assert total % d == 0
        counts[total // d] += 1
    return counts[1], counts[2], counts[3]
