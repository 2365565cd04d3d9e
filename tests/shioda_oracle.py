"""Reference routes for the character count, independent of the package's.

``character_vector`` builds a character from ``Fraction`` entries, and
``scaled`` multiplies one by an integer; ``frac_part`` and
``fraction_exhaustive_sums`` redo the Lambda test on ``Fraction`` entries;
``picard_family_all_vectors`` is the family count that scans every member of
L0 rather than one unit-orbit slice, and ``hodge_counts_all_vectors`` the
Hodge-level count that walks every member rather than using the closed form
per slice; ``enumerate_L0_product`` lists the generated group by looping over
every combination of the generators' multiples rather than closing it coset
by coset.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from delsarte.shioda import CharacterVector


def character_vector(values) -> CharacterVector:
    """The character with the given rational entries, over the lcm of their
    denominators."""
    fractions = [Fraction(v) for v in values]
    d = lcm(*(q.denominator for q in fractions))
    return CharacterVector(
        tuple(q.numerator * (d // q.denominator) for q in fractions), d
    )


def scaled(vector: CharacterVector, n: int) -> CharacterVector:
    """``n`` times the character ``vector``."""
    return CharacterVector(tuple(n * e for e in vector.numerators), vector.modulus)


def frac_part(q) -> Fraction:
    """Fractional part of ``q``: the unique representative in [0, 1).

    Works for negative inputs too: ``frac_part(Fraction(-1, 3)) == 2/3``.
    """
    q = Fraction(q)
    return q - (q.numerator // q.denominator)


def fraction_exhaustive_sums(entries) -> dict[int, Fraction]:
    """Every unit scaling t of a character with the given ``Fraction``
    entries, with the sum of the fractional parts of t times the entries."""
    modulus = lcm(*(e.denominator for e in entries))
    return {
        t: sum((frac_part(t * e) for e in entries), Fraction(0))
        for t in range(1, modulus + 1)
        if gcd(t, modulus) == 1
    }


def _outside_lambda(numerators, d: int) -> bool:
    """Every unit t modulo the order keeps sum((t*n) mod d) at 2d."""
    order = d // gcd(d, *numerators)
    return all(
        sum((t * n) % d for n in numerators) == 2 * d
        for t in range(1, order + 1)
        if gcd(t, order) == 1
    )


def _family_members(p: int, a: int):
    """Numerators over 2ap of the L0 members (ap, 2ai, j, k), k forced."""
    d = 2 * a * p
    for i in range(1, p):
        for j in range(1, d):
            k = -(a * p + 2 * a * i + j) % d
            if k:
                yield (a * p, 2 * a * i, j, k)


def picard_family_all_vectors(p: int, a: int) -> int:
    """rho of the smooth model of the (p, a) family member: 2 plus the
    members (ap, 2ai, j, k)/2ap of L0, over every slice i, outside Lambda."""
    d = 2 * a * p
    return 2 + sum(
        _outside_lambda(numerators, d) for numerators in _family_members(p, a)
    )


def hodge_counts_all_vectors(p: int, a: int) -> tuple[int, int, int]:
    """(h20, h11_prim, h02) of the (p, a) family member: every member of L0
    sorted by its entry sum q = 1, 2, 3."""
    d = 2 * a * p
    counts = {1: 0, 2: 0, 3: 0}
    for numerators in _family_members(p, a):
        counts[sum(numerators) // d] += 1
    return counts[1], counts[2], counts[3]


def enumerate_L0_product(
    v1: CharacterVector, v2: CharacterVector, v3: CharacterVector
) -> frozenset[CharacterVector]:
    """All-nonzero members of the group generated by v1, v2, v3, from every
    combination i v1 + k v2 + j v3 with i, k, j below the generators'
    moduli."""
    d = lcm(v1.modulus, v2.modulus, v3.modulus)
    g1, g2, g3 = (
        tuple(n * (d // v.modulus) for n in v.numerators) for v in (v1, v2, v3)
    )
    members: set[tuple[int, ...]] = set()
    for i in range(v1.modulus):
        for k in range(v2.modulus):
            base = [i * x + k * y for x, y in zip(g1, g2)]
            for j in range(v3.modulus):
                members.add(tuple((b + j * z) % d for b, z in zip(base, g3)))
    return frozenset(CharacterVector(n, d) for n in members if 0 not in n)
