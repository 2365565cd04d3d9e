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
the integer adjugate of A over det A, and a character is a 4-tuple of
numerators n_k in [0, D) over a denominator D that the caller holds:
``shioda_vectors`` returns D, the lcm of the generators' orders, with the
generators, and every member of L is a tuple over that D.  The defining
condition of Lambda reads sum((t*n_k) mod D) == 2*D.

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
level lo + 1 and r - 1 at level lo + 2.  The same split halves the slice.
On the slice i = 1, lo = 0 and r = ap + 2a: a j below ap - 2a has entry
sum 2ap, so its fractional parts sum to 1 and t = 1 already puts it in
Lambda, and j = ap - 2a gives k = 0.  So only the level-2 members, j from
ap - 2a + 1 to 2ap - 1, are candidates.

``excluded_fractions`` sieves them over the units t of d = 2ap rather than
scanning them one at a time.  With c = ap + 2a, a level-2 member has
j + k = 2d - c.  Write x = tj mod d, r = -tc mod d and
s = (t ap mod d) + (t 2a mod d): then tk mod d is r - x when x < r and
r - x + d when x > r (x = r would make k = 0), so the scaled entry sum is
s + r or s + r + d, and s + r, a multiple of d below 3d, is d or 2d (the
sieve raises on anything else).  So each unit keeps the j on one side of
r: x < r when s + r = 2d, x > r when it is d.  The units go in ascending
order, the sieve stops when no j is left, and the j that survive every
unit are the excluded fractions.  The units of d give the same verdicts as
those of each member's own order, by the surjection ``exhaustive_scan``
relies on; t = 1 keeps every level-2 j, and d - t keeps the same j as t,
since it sends each scaled sum S to 4d - S, so only the odd t from 3 to
d/2 prime to d are taken, each found by its own gcd test.  That is one
list comprehension per unit over the j still left: at 2ap = 9,998 the
slice takes about 5 ms in process.

``family_report`` gives every quantity ``picard`` prints.  Its recount,
``verify_family`` (``picard --verify``), relies on none of these
shortcuts: it enumerates all of L0 from the adjugate of the family's
exponent matrix, as one ``PackedL0``, and reads the Hodge levels off the
packed entry sums.  A member at entry sum d or 3d is in Lambda by its
t = 1 lane, so it needs no scan; the three level counts must add up to
|L0|, and h20 must equal h02, since n -> -n swaps entry sums d and 3d.
Both scans of the pair, the early-exit ``lambda_witnesses`` and the
exhaustive ``exhaustive_scan``, rescan every level-2 member, and these
are the only members unpacked into tuples; none of them may have
early-exit witness 1.  ``lambda_witnesses`` is one call for all the
members it is given.  It decides t = 1 by the entry sum; otherwise it
walks the gcd-filtered units below N/2 of the member's own order N
(``_units``), ascending, and stops at the least witness, which is below
N/2 since t and N - t give scaled sums S and 4d - S.  The witness depends
only on the multiset of numerators and is the same for -n, so it is
computed once per sorted tuple of them and stored under both; that memo
and the unit table of each order met live for the one call.  On the
Fermat surface of degree 100, 313,698 of the 960,597 members of L0 sit
at entry sum d or 3d and are counted by popcount, and the 646,899
level-2 members fall into 28,203 sorted tuples: ``lefschetz_number``
(``analyze --shioda``) takes 0.6-0.7 s in process.
Enumeration and the exhaustive scan run on packed lanes (``_Lanes``): one
int holds one value per lane, and one add and one masked reduction or
compare act on every lane at once.  A lane is 16 bits wide when the
largest value it holds fits, else 64.  ``enumerate_L0`` sizes its lanes
for the entry sums, up to 4d - 4, so 16-bit lanes serve d <= 16,384.  A
compare with a bound b adds 2^(w-1) - b to every lane, so it needs
b <= 2^(w-1): the levels compare the sums with 2d, then the sums less 2d
on the upper half with d, and both bounds fit 16-bit lanes up to
d = 16,384 (a compare with 3d would hold only to d = 10,922).
``enumerate_L0`` holds the group as four packed columns and closes it
by doubling its cosets.  ``exhaustive_scan`` takes every unit of every
member's order and never stops early, but it adds them all at once, and
one table serves the whole recount: it packs (t*m) mod d for every unit
t of d into the lanes of one int per numerator m (``_UnitLanes(d)``), so
a member's sums are one sum of the four rows of its raw numerators,
compared with 2d in every lane.  A member of order N needs no table of
its own: reduction mod N maps the units of d onto the units of N, so its
lanes still take every unit of N.  A row is built by doubling from the
rows of m's binary prefixes, not unit by unit.  The members' sums are
made and compared one at a time, so no more than one is held.  A cold
``picard --p 43 --a 10 --verify`` takes 0.30-0.33 s and
``--p 3 --a 829 --verify`` 0.28-0.29 s (2-core shared VM).
The exhaustive scan lists the units of d with its own sieve
(``_sieved_units``) rather than the early-exit scan's gcd filter of the
units of each member's order (``_units``), so the two scans of the pair
share no unit table.

Input sizes are bounded: a family member needs 2ap <= MAX_WEIGHT,
``enumerate_L0`` counts |L| from the generators and refuses with
ValidationError, before the closure starts, a group of more than MAX_L
members, and ``check_recount_budget`` refuses a recount of more than
MAX_RECOUNT steps, |L0| * 2ap; ``family_report`` runs it once, under
``verify``, before the slice sieve and before L0 is built.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ValidationError, VerificationError

if TYPE_CHECKING:
    from .exact import Adjugate

# Largest weight 2ap of a family member.  The slice sieve makes one pass
# per unit below ap over the j still left: a cold ``picard`` takes
# 0.10 s at 2ap = 9,998, and would take about 0.2 s at 2ap = 200,006.
MAX_WEIGHT = 10**4

# Largest |L| that ``enumerate_L0`` closes: the Fermat surface of degree
# 100 has |L| = 10**6, that of degree 160 has 4,096,000.
MAX_L = 10**6

# Largest |L0| * 2ap that ``verify_family`` rescans: the exhaustive scan
# takes at most 2ap unit scalings per member of L0.  The largest member of
# the p <= 43, a <= 10 grid, (43, 10), needs 30,990,960 steps (0.30-0.33 s
# cold on a 2-core shared VM); (3, 829) needs 49,461,456 (0.28-0.29 s
# cold); the slowest admitted input found, (229, 1), the largest L0, needs
# 47,617,344 (0.43-0.63 s cold on the same host); (47, 106) would need
# 4.57 * 10**9.
MAX_RECOUNT = 5 * 10**7

Numerators = tuple[int, int, int, int]


def is_prime(n: int) -> bool:
    """Whether the integer n is prime, by trial division up to its square
    root: ``FamilyParams`` asks only about p <= MAX_WEIGHT / 2."""
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _readable(numerators: Sequence[int], d: int) -> str:
    return "(" + ", ".join(str(Fraction(n, d)) for n in numerators) + ")"


class FamilyParams:
    """The double-cover family y^2 = x^p + t^{2ap} + s^{2ap}: p an odd
    prime, a positive, both of type ``int`` (not ``bool``), and 2ap at most
    MAX_WEIGHT."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, a: int) -> None:
        for name, value in (("p", p), ("a", a)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} = {value!r} must be an integer")
        if a < 1:
            raise ValidationError(f"a = {a} must be positive")
        # the weight bound goes first: it keeps p small for trial division
        if 2 * a * p > MAX_WEIGHT:
            raise ValidationError(f"2ap = {2 * a * p} must be at most {MAX_WEIGHT}")
        if not (p % 2 == 1 and is_prime(p)):
            raise ValidationError(f"p = {p} must be an odd prime")
        self.p = p
        self.a = a

    def __repr__(self) -> str:
        return f"FamilyParams(p={self.p}, a={self.a})"

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


def shioda_vectors(adjugate: Adjugate) -> tuple[int, tuple[Numerators, ...]]:
    """``(D, (g1, g2, g3))``: the generators u_i A^{-1} mod Z^4,
    u_i = e_i - e_4, as numerators in [0, D) over D, the lcm of their
    orders, from ``(det A, adj A)``.

    The left action is the one matching the printed family generators
    (0,1/p,0,-1/p), (1/2,0,0,-1/2), (0,0,1/2ap,-1/2ap) and the left-kernel
    convention used for fibrations; it also guarantees the integer entry
    sum, since the equal row sums d give A^{-1} 1 = 1/d.
    """
    det, adj = adjugate
    if det == 0:
        raise ValidationError("matrix is singular")
    sign, m = (1, det) if det > 0 else (-1, -det)
    rows = [tuple(sign * (x - y) % m for x, y in zip(adj[i], adj[3])) for i in range(3)]
    for row in rows:
        # raised, not asserted: the claim must hold under -O too
        if sum(row) % m:
            raise AssertionError(f"entry sum of {_readable(row, m)} is not an integer")
    d = lcm(*(m // gcd(m, *row) for row in rows))
    return d, tuple(tuple(n // (m // d) for n in row) for row in rows)


def prefix_orders(d: int, generators: Sequence[Numerators]) -> list[int]:
    """``[|H_0|, |H_1|, ...]``: the orders of the subgroups H_i of (Z/d)^4
    that the first i ``generators`` span, H_0 = {0} first.

    H_i is the lattice of the first i generators and d Z^4, modulo d Z^4,
    so |H_i| is d^4 over the product of the diagonal of the lattice's
    Hermite normal form: that of the four rows of H_(i-1)'s, from d I, and
    the i-th generator.
    """
    from .exact import hermite  # only the matrix route needs it

    basis = [[d * (i == j) for j in range(4)] for i in range(4)]
    orders = [1]
    for g in generators:
        h, _ = hermite([*basis, g])
        basis = h[:4]
        orders.append(d**4 // (h[0][0] * h[1][1] * h[2][2] * h[3][3]))
    return orders


class _Lanes:
    """``count`` lanes of w bits packed into one int, for values reduced
    modulo ``modulus``: w = 16 when ``largest``, the largest value a lane
    will hold, fits in 16 bits, else 64 (callers keep it below 2^63).
    ``ones`` holds 1 in every lane.

    A lane-wise add or shift never carries into the next lane while every
    lane stays at most ``largest``.  ``at_least`` compares every lane with a
    bound b at once: it adds 2^(w-1) - b to every lane and keeps each lane's
    top bit, so it needs b <= 2^(w-1) and every lane below b + 2^(w-1).
    ``reduce`` subtracts the modulus N from every lane that reached it, so
    lanes in [0, 2N) come back in [0, N) when N <= 2^(w-1).  ``pack`` and
    ``unpack`` go through the bytes of an ``array`` in the host's byte
    order, so they read the lanes in one order on any host.
    """

    __slots__ = ("count", "modulus", "width", "ones", "_empty", "_top", "_bias")

    def __init__(self, count: int, modulus: int, largest: int) -> None:
        from array import array  # only the matrix route needs it

        self.count = count
        self.modulus = modulus
        self._empty = array("H" if largest <= 0xFFFF else "Q")
        self.width = width = 8 * self._empty.itemsize
        self.ones = ((1 << width * count) - 1) // ((1 << width) - 1)
        self._top = self.ones << (width - 1)  # the top bit of every lane
        self._bias = ((1 << (width - 1)) - modulus) * self.ones

    def pack(self, values: Sequence[int]) -> int:
        lanes = self._empty[:0]
        lanes.fromlist(list(values))
        return int.from_bytes(lanes.tobytes(), sys.byteorder)

    def unpack(self, packed: int) -> Sequence[int]:
        lanes = self._empty[:0]
        lanes.frombytes(packed.to_bytes(self.count * lanes.itemsize, sys.byteorder))
        return lanes

    def _reached(self, packed: int, bias: int) -> int:
        # 1 in every lane that reaches its top bit once its lane of ``bias``,
        # 2^(w-1) - b for a bound b, is added, that is every lane >= b; else 0
        return ((packed + bias) & self._top) >> (self.width - 1)

    def reduce(self, packed: int) -> int:
        return packed - self._reached(packed, self._bias) * self.modulus

    def at_least(self, packed: int, bound: int) -> int:
        """1 in every lane of ``packed`` that is at least ``bound``, else 0."""
        return self._reached(packed, ((1 << (self.width - 1)) - bound) * self.ones)


class PackedL0:
    """L0 in packed lanes, as ``enumerate_L0`` returns it: ``columns`` are
    the four coordinates of every member of L over ``d``, one lane per
    member (``lanes``), ``mask`` is 1 in the lane of every member of L0 and
    0 elsewhere, and ``levels`` are the masks of the members of L0 at entry
    sum d, 2d and 3d, which give h20, h11prim and h02 (``HODGE_LEVELS``).

    A member of L has entry sum 0, d, 2d or 3d, since every generator's is
    an integer and the lanes lie in [0, d).  So one add of the columns
    gives every entry sum, a compare with 2d splits them in two, and a
    compare with d of the sums less 2d on the upper half splits each half
    again; both bounds are at most 2^15 while the lanes are 16 bits wide,
    d <= 16,384 (see the module docstring).  ``len`` and ``counts`` are
    popcounts of the masks, and ``members`` unpacks one level.
    """

    __slots__ = ("lanes", "columns", "mask", "levels")

    def __init__(self, d: int, lanes: _Lanes, columns: Sequence[int]) -> None:
        self.lanes, self.columns = lanes, tuple(columns)
        n1, n2, n3, n4 = columns
        self.mask = mask = (  # the members with no zero entry
            lanes.at_least(n1, 1) & lanes.at_least(n2, 1)
            & lanes.at_least(n3, 1) & lanes.at_least(n4, 1)
        )
        sums = n1 + n2 + n3 + n4
        upper = lanes.at_least(sums, 2 * d)
        odd = lanes.at_least(sums - 2 * d * upper, d)
        self.levels = (mask & odd & ~upper, mask & upper & ~odd, mask & upper & odd)

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def counts(self) -> tuple[int, int, int]:
        """(h20, h11prim, h02): the members at entry sum d, 2d and 3d."""
        h20, h11, h02 = (level.bit_count() for level in self.levels)
        return h20, h11, h02

    def members(self, q: int) -> list[Numerators]:
        """The members at entry sum q*d as tuples of numerators, in lane
        order: each column is compressed by the level's mask before the
        zip, so no tuple is built for a member of another level."""
        keep = self.lanes.unpack(self.levels[q - 1])
        return list(zip(*(compress(self.lanes.unpack(x), keep) for x in self.columns)))


def enumerate_L0(d: int, generators: Sequence[Numerators]) -> PackedL0:
    """The all-nonzero members of the subgroup generated by ``generators``,
    as numerators over ``d``, in one ``PackedL0``.

    ``prefix_orders`` counts the groups the generators span, one prefix
    at a time; the last one is L, and when it has more than MAX_L members
    this raises ValidationError before any is built.  The members are held
    as four packed columns (``_Lanes``), one int per coordinate with one
    lane per member.  The group is closed one generator g at a time: the
    group H so far and its cosets H + g, H + 2g, ... make the next group,
    so there are its order over |H| cosets.  They come by doubling: when
    the columns hold the cosets H + mg for m < f, adding fg to every lane
    (one add and one reduction per column) gives those for f <= m < 2f.
    So the work is O(|L|) big-integer work in O(log |L|) steps, rather
    than the product of the generators' orders.  Every lane is sized for
    the entry sums, up to 4d - 4, that ``PackedL0`` adds, so d stays below
    2^61; from ``shioda_vectors`` d is the lcm of the generators' orders,
    which divides |L| <= MAX_L.
    """
    orders = prefix_orders(d, generators)
    size = orders[-1]
    if size > MAX_L:
        raise ValidationError(f"the character group has more than {MAX_L} members")
    columns = [0, 0, 0, 0]  # H = {0}
    for g, count, order in zip(generators, orders, orders[1:]):
        cosets = order // count
        filled = 1  # the columns hold the cosets H + mg, m < filled
        while filled < cosets:
            lanes = _Lanes(count * filled, d, 4 * d - 4)
            added = (1 << count * min(filled, cosets - filled) * lanes.width) - 1
            columns = [
                x | (lanes.reduce(x + filled * c % d * lanes.ones) & added)
                << count * filled * lanes.width
                for x, c in zip(columns, g)
            ]
            filled = min(2 * filled, cosets)
    return PackedL0(d, _Lanes(size, d, 4 * d - 4), columns)


def _units(modulus: int) -> tuple[int, ...]:
    """The t in [1, modulus / 2) prime to ``modulus``, ascending: the half
    of the units that the early-exit scan walks (``lambda_witnesses``)."""
    return tuple(t for t in range(1, (modulus + 1) // 2) if gcd(t, modulus) == 1)


def lambda_witnesses(members: Iterable[Numerators], d: int) -> list[Optional[int]]:
    """For each of ``members``, characters of L0 with numerators in [0, d)
    over ``d``, the least unit t modulo its order whose scaling has
    fractional parts not summing to 2, or None when it lies outside Lambda:
    the early-exit scan, one verdict per member in the order given.

    Unit t is exactly the order-preserving scaling.  ``verify_family``
    compares these verdicts with ``exhaustive_scan`` on every level-2
    member.  t = 1 is decided by the entry sum.  Otherwise the scan walks
    ``_units`` of the member's order N, ascending, and stops at the first
    unit that moves the sum off 2d.  Those units stop below N/2, and no
    witness is lost: a member of L0 has no zero entry, so neither has t
    times it, and (N - t)n_k = -tn_k mod d gives (t n_k mod d) +
    ((N - t) n_k mod d) = d for each k.  So t and N - t give scaled sums S
    and 4d - S, and one is 2d exactly when the other is; of two witnesses
    t and N - t the lesser is below N/2 (t = N/2 is a unit only at N = 2,
    where t = 1 is the only unit).  The same sums show that n and its
    negative -n have the same witnesses.  The witness depends on the
    numerators and not on their order, so it is computed once per sorted
    tuple of numerators and stored under that tuple and under the sorted
    tuple of -n; that memo and the unit tables of the orders met are local
    to the call.  A member with a zero entry raises ValueError.
    """
    target = 2 * d
    tables: dict[int, tuple[int, ...]] = {}
    memo: dict[tuple[int, ...], Optional[int]] = {}
    witnesses: list[Optional[int]] = []
    for numerators in members:
        if sum(numerators) != target:
            witnesses.append(1)
            continue
        key = tuple(sorted(numerators))
        if key not in memo:
            n1, n2, n3, n4 = key
            if not n1:
                raise ValueError(f"{_readable(key, d)} has a zero entry, so is not in L0")
            order = d // gcd(d, n1, n2, n3, n4)
            units = tables.get(order)
            if units is None:
                units = tables[order] = _units(order)
            witness = None
            for t in units:
                if (t * n1) % d + (t * n2) % d + (t * n3) % d + (t * n4) % d != target:
                    witness = t
                    break
            memo[key] = memo[(d - n4, d - n3, d - n2, d - n1)] = witness
        witnesses.append(memo[key])
    return witnesses


def _sieved_units(order: int) -> tuple[int, ...]:
    """The t in [1, order] prime to ``order``, ascending, by a sieve.

    Each prime factor of ``order`` strikes out its multiples in a bytearray,
    and the survivors are read back with ``compress``.  This is not
    ``_units``'s gcd filter on purpose: the exhaustive scan lists its units
    by its own algorithm, so a fault in one unit table cannot hide in both
    scans of the pair.
    """
    keep = bytearray(b"\x01") * (order + 1)
    keep[0] = 0
    rest, prime = order, 2
    while prime * prime <= rest:
        if rest % prime == 0:
            keep[prime::prime] = bytes(order // prime)
            while rest % prime == 0:
                rest //= prime
        prime += 1
    if rest > 1:  # the one prime factor above the square root of what is left
        keep[rest::rest] = bytes(order // rest)
    return tuple(compress(range(order + 1), keep))


class _UnitLanes(dict):
    """The units of one order N in packed lanes, one lane per unit t of
    ``_sieved_units(N)``: ``self[m]`` is one int that holds (t*m) mod N in
    every lane, and ``full`` holds 2N in every lane.

    A sum of four rows is at most 4(N - 1) in every lane, which sets the
    lane width (``_Lanes``).  A row is built on first use by doubling: with
    low = m & -m, row(m) is row(m - low) + row(low), a power of two is its
    half doubled and row(1) packs the units, and one reduction brings every
    lane back below N.  So only the rows asked for, their binary prefixes
    and the powers of two are built, O(log N) rows per row asked for.
    """

    def __init__(self, order: int) -> None:
        super().__init__()
        self.units = _sieved_units(order)
        self.lanes = _Lanes(len(self.units), order, 4 * order - 4)
        self.full = 2 * order * self.lanes.ones
        self[0] = 0

    def __missing__(self, m: int) -> int:
        low = m & -m
        if m != low:
            row = self[m - low] + self[low]
        elif m > 1:
            row = self[m >> 1] << 1
        else:
            row = self.lanes.pack(self.units)
        row = self[m] = self.lanes.reduce(row)
        return row


def exhaustive_scan(
    members: Iterable[Numerators], d: int
) -> tuple[_UnitLanes, Iterator[int]]:
    """``(rows, sums)``: the exhaustive scan of ``members``, characters
    over ``d``.  ``rows = _UnitLanes(d)`` is the scan's one table, and
    ``sums`` yields, one member at a time as it is consumed, the sum of the
    four rows of the member's numerators: one lane per unit t of d holds
    the sum of (t*n) mod d over its entries.  No lane is skipped and
    nothing stops early.  A member is outside Lambda exactly when its sum
    is ``rows.full``.

    The units of d cover those of every member's order N: (t*n) mod d is
    d/N times ((t mod N)*(n*N/d)) mod N, and reduction mod N maps the units
    of d onto the units of N, each phi(d)/phi(N) times.  So every lane
    reads 2d exactly when every unit of N keeps the sum at 2N, and no
    member needs its order, its reduced numerators or a table of its own.
    """
    rows = _UnitLanes(d)
    return rows, (rows[a] + rows[b] + rows[c] + rows[e] for a, b, c, e in members)


def lefschetz_number(adjugate: Adjugate) -> int:
    """#(L0 ∩ Lambda) for the exponent matrix A with ``(det A, adj A)``:
    every member at entry sum d or 3d, where t = 1 is a witness, and the
    level-2 members with an early-exit witness."""
    d, generators = shioda_vectors(adjugate)
    characters = enumerate_L0(d, generators)
    h20, _, h02 = characters.counts
    witnesses = lambda_witnesses(characters.members(2), d)
    return h20 + h02 + sum(w is not None for w in witnesses)


# ---------------------------------------------------------------------------
# The double-cover family
# ---------------------------------------------------------------------------


def family_L0_count(params: FamilyParams) -> int:
    return (params.p - 1) * (params.weight - 2)


def excluded_fractions(params: FamilyParams) -> set[Fraction]:
    """The j-fractions of the slice i = 1 outside Lambda, by a sieve over
    the units t of d = 2ap (see the module docstring): the candidates are
    the level-2 j, from ap - 2a + 1 to 2ap - 1, and each unit from 3 to d/2
    keeps those whose scaled entry sum stays at 2d, the j with
    tj mod d < r when s + r = 2d and those with tj mod d > r when it is d,
    where c = ap + 2a, r = -tc mod d and s = (t ap mod d) + (t 2a mod d)."""
    a, p, d = params.a, params.p, params.weight
    c = a * p + 2 * a
    keep: Sequence[int] = range(d - c + 1, d)
    for t in range(3, d // 2, 2):  # every unit of the even d is odd
        if gcd(t, d) != 1:
            continue
        r = -t * c % d
        level = t * a * p % d + t * 2 * a % d + r
        if level == 2 * d:
            keep = [j for j in keep if t * j % d < r]
        elif level == d:
            keep = [j for j in keep if t * j % d > r]
        else:  # raised, not asserted: the claim must hold under -O too
            raise AssertionError(f"scaled sum {level} at t = {t} is not {d} or {2 * d}")
        if not keep:
            break
    return {Fraction(j, d) for j in keep}


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


def check_recount_budget(params: FamilyParams) -> None:
    """Raise ValidationError when the recount of ``verify_family`` would
    take more than MAX_RECOUNT scaling steps, |L0| * 2ap."""
    steps = family_L0_count(params) * params.weight
    if steps > MAX_RECOUNT:
        raise ValidationError(
            f"the L0 recount needs {steps} scaling steps, more than {MAX_RECOUNT}"
        )


class FamilyReport(NamedTuple):
    """Every quantity ``picard`` prints for one family member: ``excluded``
    is the sorted j-fractions of the slice outside Lambda; ``hodge``
    (h20, h11prim, h02) and ``vectors_checked`` are None unless asked for."""

    L0_count: int
    lefschetz: int  # #(L0 ∩ Lambda)
    rho_tilde: int  # rho of the desingularization
    rho: int
    hodge: Optional[tuple[int, int, int]]
    excluded: tuple[Fraction, ...]
    vectors_checked: Optional[int]


def family_report(
    params: FamilyParams, *, hodge=False, verify=False
) -> FamilyReport:
    """The ``picard`` record of ``params`` from one sieve of the slice i = 1:
    rho_tilde is 2 plus p - 1 times its j-fractions outside Lambda (see the
    module docstring), and lambda is the rest of L0.  ``verify`` checks
    ``check_recount_budget`` before any scan, then recounts all of L0 with
    ``verify_family``, which raises VerificationError on a disagreement."""
    if verify:
        check_recount_budget(params)
    fractions = excluded_fractions(params)
    count = family_L0_count(params)
    rho_tilde = 2 + (params.p - 1) * len(fractions)
    lam = count - (rho_tilde - 2)
    levels = gs_hodge_counts(params) if hodge else None
    return FamilyReport(
        count, lam, rho_tilde, rho_tilde - 1, levels,
        tuple(sorted(fractions)),
        verify_family(params, count, lam, levels) if verify else None,
    )


def verify_family(
    params: FamilyParams, L0_count: int, lam: int, hodge: Optional[tuple] = None
) -> int:
    """Recount a family member from the matrix route with the exhaustive
    scan; returns the number of characters checked, and raises
    VerificationError on the first disagreement.

    This enumerates all of L0 (``enumerate_L0``), so it checks
    ``L0_count``, and that the three level counts of the packed entry sums
    add up to it.  Every member at entry sum d or 3d is in Lambda by its
    t = 1 lane, read off those sums once for all members.  Both scans of
    the pair run on the level-2 members: one list of verdicts comes from
    one pass of the exhaustive scan, one from the early-exit scan, and the
    first member where they differ is named, then the first with early-exit
    witness 1, which no member of entry sum 2d can have.  Then it checks
    the Lefschetz number ``lam`` of the slice count and h20 == h02, since
    n -> -n maps entry sum d to 3d; with ``hodge``, the levels of
    ``gs_hodge_counts``, it checks those against the level counts.
    ``family_report`` checks ``check_recount_budget`` before it calls this.
    """
    from .exact import adjugate  # only the matrix route needs it

    d, generators = shioda_vectors(adjugate(params.matrix))
    characters = enumerate_L0(d, generators)
    size, levels = len(characters), characters.counts
    if size != L0_count:
        raise VerificationError(f"L0 size {size} != direct count {L0_count}")
    if sum(levels) != size:
        raise VerificationError(f"level counts {levels} do not add up to L0 size {size}")
    members = characters.members(2)
    rows, sums = exhaustive_scan(members, d)
    slow = [s != rows.full for s in sums]
    witnesses = lambda_witnesses(members, d)
    fast = [w is not None for w in witnesses]
    if slow != fast:
        n = next(n for n, s, f in zip(members, slow, fast) if s != f)
        raise VerificationError(f"scan disagreement at {_readable(n, d)}")
    if 1 in witnesses:
        n = members[witnesses.index(1)]
        raise VerificationError(f"level-2 member {_readable(n, d)} has early-exit witness 1")
    h20, _, h02 = levels
    slow_lam = h20 + h02 + sum(slow)
    if slow_lam != lam:
        raise VerificationError(f"lambda {slow_lam} != {lam}")
    if h20 != h02:
        raise VerificationError(f"h20 {h20} != h02 {h02}, though n -> -n swaps them")
    if hodge is not None:
        for name, recount, count in zip(HODGE_LEVELS.values(), levels, hodge):
            if recount != count:
                raise VerificationError(f"{name} {recount} != {count}")
    return size
