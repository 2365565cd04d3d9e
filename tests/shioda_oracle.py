"""Reference routes for the character count, independent of the package's.

``character_vector`` builds a character from ``Fraction`` entries;
``frac_part`` and ``fraction_exhaustive_sums`` redo the Lambda test on
``Fraction`` entries; ``picard_family_all_vectors`` is the family count that
scans every member of L0 rather than one unit-orbit slice.
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


def picard_family_all_vectors(p: int, a: int) -> int:
    """rho of the smooth model of the (p, a) family member: 2 plus the
    members (ap, 2ai, j, k)/2ap of L0, over every slice i, outside Lambda."""
    d = 2 * a * p
    count = 0
    for i in range(1, p):
        for j in range(1, d):
            k = -(a * p + 2 * a * i + j) % d
            if k and _outside_lambda((a * p, 2 * a * i, j, k), d):
                count += 1
    return 2 + count
