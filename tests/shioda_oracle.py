"""Reference routes for the character count, independent of the package's.

``character`` turns ``Fraction`` entries into numerators over one
denominator, and ``entries`` turns them back; ``frac_part`` and
``fraction_exhaustive_sums`` redo the Lambda test on ``Fraction`` entries;
``picard_family_all_vectors`` is the family count that scans every member of
L0 rather than one unit-orbit slice, and ``hodge_counts_all_vectors`` the
Hodge-level count that walks every member rather than using the closed form
per slice; ``group_product`` lists the generated group by looping over
every combination of the generators' multiples rather than closing it coset
by coset or counting it from an echelon form, ``enumerate_L0_product`` keeps
its all-nonzero members, and ``lefschetz_by_fractions`` counts L0 ∩ Lambda
on that list with a ``Fraction`` scan.

``exhaustive_sums`` is the one helper that runs the package: it reads the
packed sum of ``shioda.exhaustive_scan``, the kernel ``picard --verify``
compares, lane by lane, so that the tests can hold each lane against
``fraction_exhaustive_sums``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm

from delsarte.shioda import exhaustive_scan


def character(values) -> tuple[tuple[int, ...], int]:
    """``(numerators, d)``: the given rational entries as numerators in
    [0, d) over d, the lcm of their denominators."""
    fractions = [Fraction(v) for v in values]
    d = lcm(*(q.denominator for q in fractions))
    return tuple(q.numerator * (d // q.denominator) % d for q in fractions), d


def entries(numerators, d: int) -> tuple[Fraction, ...]:
    """The character ``numerators``/``d`` as fractions in [0, 1)."""
    return tuple(Fraction(n % d, d) for n in numerators)


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


def exhaustive_sums(numerators, d: int, tables=None) -> dict[int, int]:
    """Every unit t of the order N of ``numerators``/``d``, with the sum of
    the fractional parts of t times the entries, unpacked from the lanes of
    ``exhaustive_scan``; ``tables`` is shared between calls when given, as
    one recount shares it.  Each sum is an integer because the entry sum is.
    """
    tables = {} if tables is None else tables
    rows, packed = exhaustive_scan(numerators, d, tables)
    lanes = rows._empty[:0]  # an empty array of the lane width
    lanes.frombytes(packed.to_bytes(len(rows.units) * lanes.itemsize, sys.byteorder))
    return {t: s // rows.order for t, s in zip(rows.units, lanes.tolist())}


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


def order(numerators, d: int) -> int:
    """The order of the character ``numerators``/``d`` in (Q/Z)^4."""
    return d // gcd(d, *numerators)


def group_product(d: int, generators) -> frozenset[tuple[int, ...]]:
    """All members, as numerators over ``d``, of the group generated by g1,
    g2, g3, from every combination i g1 + k g2 + j g3 with i, k, j below
    the generators' orders."""
    g1, g2, g3 = generators
    members: set[tuple[int, ...]] = set()
    for i in range(order(g1, d)):
        for k in range(order(g2, d)):
            base = [i * x + k * y for x, y in zip(g1, g2)]
            for j in range(order(g3, d)):
                members.add(tuple((b + j * z) % d for b, z in zip(base, g3)))
    return frozenset(members)


def enumerate_L0_product(d: int, generators) -> frozenset[tuple[int, ...]]:
    """The all-nonzero members of ``group_product``."""
    return frozenset(n for n in group_product(d, generators) if 0 not in n)


def lefschetz_by_fractions(d: int, generators) -> int:
    """#(L0 ∩ Lambda) from the product loop's members and an early-exit
    scan on ``Fraction`` entries."""
    count = 0
    for numerators in enumerate_L0_product(d, generators):
        fractions = entries(numerators, d)
        n = order(numerators, d)
        count += any(
            sum((frac_part(t * e) for e in fractions), Fraction(0)) != 2
            for t in range(1, n + 1)
            if gcd(t, n) == 1
        )
    return count
