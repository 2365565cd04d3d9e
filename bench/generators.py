"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and yields an endless stream of
inputs, so the same seed gives the same inputs.  Validity is decided by the
integer checks in this module alone, never by calling ``delsarte``: equal row
sums, distinct rows, no variable dividing every monomial, and a nonzero
determinant of the exponent matrix.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

Rows = list[list[int]]

ODD_PRIMES_TO_43 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)

# Affine exponents (of x, y and t) of random surfaces stay in [0, 4], the box
# the test suite draws its surfaces from.  Uniform rows of degree 7 without
# this cap spend about 5% of their ops in multi-second oracle eliminations,
# which no run of a few seconds can sample steadily.
MAX_AFFINE_EXPONENT = 4

# The matrix route (--verify) costs about this many times the family loop per
# L0 vector; it orders picard draws by expected cost.
MATRIX_ROUTE_WEIGHT = 100


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_nondegenerate_surface(rows: Sequence[Sequence[int]]) -> bool:
    """The generators' own acceptance test for a 4x4 exponent matrix."""
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        return False
    if any(x < 0 for r in rows for x in r):
        return False
    if len({sum(r) for r in rows}) != 1 or sum(rows[0]) == 0:
        return False
    if len({tuple(r) for r in rows}) != 4:
        return False
    if any(all(r[j] > 0 for r in rows) for j in range(4)):
        return False
    return determinant(rows) != 0


def family_L0_size(p: int, a: int) -> int:
    """|L0| of the double-cover family member (p, a): (p - 1)(2ap - 2)."""
    return (p - 1) * (2 * a * p - 2)


def balanced(rng: random.Random, strata: Sequence) -> Iterator:
    """Endless stream visiting every stratum once per block, in shuffled order.

    Drawing strata in blocks instead of independently keeps the mix of input
    sizes the same from seed to seed, which keeps run-to-run spread small.
    """
    while True:
        block = list(strata)
        rng.shuffle(block)
        yield from block


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly random way to write ``total`` as ``parts`` ordered
    nonnegative integers (stars and bars)."""
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    edges = [-1, *bars, total + parts - 1]
    return [edges[i + 1] - edges[i] - 1 for i in range(parts)]


def random_surface(rng: random.Random, degree: int) -> Rows:
    """A random nondegenerate surface whose monomials all have ``degree``.

    Each row is uniform among those whose x, y and t exponents are at most
    MAX_AFFINE_EXPONENT; the exponent of s makes up the degree.
    """
    while True:
        rows = []
        while len(rows) < 4:
            row = _composition(rng, degree, 4)
            if max(row[:3]) <= MAX_AFFINE_EXPONENT:
                rows.append(row)
        if is_nondegenerate_surface(rows):
            return rows


def surfaces(rng: random.Random, degrees: Sequence[int]) -> Iterator[Rows]:
    """Random nondegenerate surfaces, degrees balanced over ``degrees``."""
    for degree in balanced(rng, degrees):
        yield random_surface(rng, degree)


def genus_one_surface(rng: random.Random) -> Rows:
    """y^2 plus three y-free monomials x^e t^f, homogenised.

    The exponents e are pairwise distinct in [0, 4] with max(e) >= 3, and
    f lies in [0, 3].  The rows are over (x, y, t, s) with s the
    homogenising variable.
    """
    while True:
        es = rng.sample(range(5), 3)
        if max(es) < 3:
            continue
        fs = [rng.randrange(4) for _ in es]
        degree = max(2, *(e + f for e, f in zip(es, fs)))
        rows = [[0, 2, 0, degree - 2]]
        rows += [[e, 0, f, degree - e - f] for e, f in zip(es, fs)]
        if is_nondegenerate_surface(rows):
            return rows


def picard_cost(p: int, a: int, verify_max_L0: int) -> int:
    """Expected relative cost of a picard draw, from |L0| alone."""
    size = family_L0_size(p, a)
    return size * (1 + MATRIX_ROUTE_WEIGHT * (size <= verify_max_L0))


def picard_draws(
    rng: random.Random, verify_max_L0: int, stratum: int
) -> Iterator[tuple[int, int]]:
    """(p, a) over the grid of odd primes p <= 43 and a in [1, 10].

    The grid is cut into strata of ``stratum`` draws of similar expected
    cost.  Each block takes one draw from every stratum, and a stratum deals
    its draws without replacement, so every run sees nearly the same cost
    mix while the seed decides the order.
    """
    grid = sorted(
        ((p, a) for p in ODD_PRIMES_TO_43 for a in range(1, 11)),
        key=lambda pa: (picard_cost(*pa, verify_max_L0), pa),
    )
    decks = [balanced(rng, grid[i : i + stratum]) for i in range(0, len(grid), stratum)]
    for index in balanced(rng, range(len(decks))):
        yield next(decks[index])
