"""Character-lattice enumeration: generators, L0, Lambda, Picard numbers.

The early-exit kernel ``shioda.lambda_witnesses`` is validated witness for
witness against the one-member scan of ``shioda_oracle.py``, and on whole
small lattices against the exhaustive scan, the kernel
``shioda.exhaustive_scan`` that ``picard --verify`` runs, read lane by
lane, and both against a ``Fraction`` reference; the slice sieve and the
one-slice family count against scans over every j of the slice and over
every member of L0, the closed-form Hodge levels against a walk over L0,
and the coset closure of L against the loop over every combination of the
generators' multiples (``shioda_oracle.py``).  A character is a tuple of
integer numerators over a denominator d, as the package holds it.
"""

import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings

from corpus import nondegenerate_surfaces
from delsarte import shioda
from delsarte.errors import ValidationError
from delsarte.exact import adjugate
from delsarte.shioda import (
    FamilyParams,
    enumerate_L0,
    excluded_fractions,
    exhaustive_scan,
    family_L0_count,
    family_report,
    gs_hodge_counts,
    is_prime,
    lambda_witnesses,
    lefschetz_number,
    prefix_orders,
    shioda_vectors,
)
from shioda_oracle import (
    character,
    entries,
    enumerate_L0_product,
    excluded_fractions_all_j,
    exhaustive_sums,
    frac_part,
    fraction_exhaustive_sums,
    group_product,
    hodge_counts_all_vectors,
    integer_exhaustive_sums,
    lambda_membership,
    lefschetz_by_fractions,
    order,
    picard_family_all_vectors,
    unit_row,
)


def family_slice_vector(p: int, a: int, j: int, i: int = 1):
    """``(numerators, d)`` of the member (1/2, i/p, j/2ap, k/2ap) of L0."""
    d = 2 * a * p
    k = -(a * p + 2 * a * i + j) % d
    assert k != 0
    return (a * p, 2 * a * i, j, k), d


def scaled(vector, t: int):
    """``t`` times the character ``vector`` = (numerators, d)."""
    numerators, d = vector
    return tuple(t * n % d for n in numerators), d


def witness(numerators, d: int):
    """The early-exit kernel's verdict on the one character
    ``numerators``/``d``: its least witness t, or None outside Lambda."""
    (found,) = lambda_witnesses([numerators], d)
    return found


def lemexcl_set(p: int) -> set:
    return {
        Fraction(p - 1, 2 * p), Fraction(1, 2), Fraction(p + 2, 2 * p),
        Fraction(2 * p - 4, 2 * p), Fraction(2 * p - 2, 2 * p),
        Fraction(2 * p - 1, 2 * p),
    }


# ---------------------------------------------------------------------------
# vectors and the lattice
# ---------------------------------------------------------------------------


def test_a_character_over_a_multiple_of_its_denominator():
    # k n / k d is the character n / d: the scans work over its order, so
    # they give the same witness and the same sums
    for j in (3, 11):  # in Lambda with witness 1, and outside Lambda
        numerators, d = family_slice_vector(11, 1, j)
        least = witness(numerators, d)
        sums = exhaustive_sums(numerators, d)
        for k in (2, 3, 7):
            scaled_up = tuple(k * n for n in numerators)
            assert witness(scaled_up, k * d) == least, (j, k)
            assert exhaustive_sums(scaled_up, k * d) == sums, (j, k)
    assert character([Fraction(-1, 3), Fraction(4, 3), 0, 1]) == ((2, 1, 0, 0), 3)


def test_generators_need_an_integer_entry_sum():
    # a forged (det, adj) whose first generator is (1/3, 0, 0, 0)
    det = 3
    adj = ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(AssertionError, match=r"entry sum of \(1/3, 0, 0, 0\)"):
        shioda_vectors((det, adj))


def test_family_generators():
    p, a = 3, 2
    d, (g1, g2, g3) = shioda_vectors(adjugate(FamilyParams(p, a).matrix))
    assert d == 2 * a * p
    assert entries(g1, d) == (0, Fraction(1, p), 0, Fraction(p - 1, p))
    assert entries(g2, d) == (Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert entries(g3, d) == (0, 0, Fraction(1, d), Fraction(d - 1, d))


def test_diagonal_generators():
    n = 5
    fermat = [[n, 0, 0, 0], [0, n, 0, 0], [0, 0, n, 0], [0, 0, 0, n]]
    d, (g1, g2, g3) = shioda_vectors(adjugate(fermat))
    assert d == n
    assert entries(g1, d) == (Fraction(1, n), 0, 0, Fraction(n - 1, n))
    assert entries(g2, d) == (0, Fraction(1, n), 0, Fraction(n - 1, n))
    assert entries(g3, d) == (0, 0, Fraction(1, n), Fraction(n - 1, n))


@given(nondegenerate_surfaces())
@settings(max_examples=40, deadline=None)
def test_generators_invert_the_matrix(surface):
    if surface.determinant() == 0:
        return
    targets = ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))
    d, generators = shioda_vectors(surface.adjugate)
    for g, target in zip(generators, targets):
        product = [
            sum(e * row[j] for e, row in zip(entries(g, d), surface.rows))
            for j in range(4)
        ]
        for got, want in zip(product, target):
            assert frac_part(got - want) == 0


def test_generators_need_a_nonsingular_matrix():
    singular = [[3, 0, 0, 0], [2, 1, 0, 0], [1, 2, 0, 0], [0, 3, 0, 0]]
    with pytest.raises(ValidationError, match="matrix is singular"):
        shioda_vectors(adjugate(singular))


def test_L0_counts():
    for p, a in [(3, 2), (11, 1)]:
        params = FamilyParams(p, a)
        members = enumerate_L0(*shioda_vectors(adjugate(params.matrix)))
        assert len(members) == family_L0_count(params) == (p - 1) * (2 * a * p - 2)


def test_L0_of_trivial_generators():
    zero = (0, 0, 0, 0)
    assert enumerate_L0(1, (zero, zero, zero)) == frozenset()


def test_L0_closure_stops_past_its_bound(monkeypatch):
    # |L| = 7^3 for the Fermat septic: refused under a bound of 300, and
    # closed in full under a bound of exactly 7^3
    monkeypatch.setattr(shioda, "MAX_L", 300)
    fermat = [[7 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValidationError, match="more than 300 members"):
        enumerate_L0(*shioda_vectors(adjugate(fermat)))
    monkeypatch.setattr(shioda, "MAX_L", 7**3)
    d, generators = shioda_vectors(adjugate(fermat))
    assert enumerate_L0(d, generators) == enumerate_L0_product(d, generators)


def test_L0_refuses_past_the_bound_before_any_coset():
    # the Fermat surface of degree 160 has |L| = 160**3 = 4,096,000; counted
    # first, it is refused before the closure adds a coset, where closing up
    # to the bound held a million members
    fermat = [[160 if i == j else 0 for j in range(4)] for i in range(4)]
    d, generators = shioda_vectors(adjugate(fermat))
    assert prefix_orders(d, generators)[-1] == 160**3
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="more than 1000000 members"):
            enumerate_L0(d, generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_L0_closure_across_the_lane_width_switch():
    # hand-built generators around the switch of the closure's lanes from 16
    # bits (a coset's sum, at most 2d - 2, fits in 16) to 64: at d = 32,771 a
    # 16-bit lane would carry into its neighbour.  Each group has members
    # with zero entries: 187 multiples of (7, 31, 151, -189) at 32,767 =
    # 7 * 31 * 151, three members at 32,768, and at the prime 32,771 the
    # identity, or every member when a generator entry is 0.  The product
    # loop takes every combination of the generators' multiples, so the
    # other generators are 0.
    zero = (0, 0, 0, 0)
    cases = [
        (32767, ((7, 31, 151, 32767 - 189), zero, zero)),
        (32768, ((1, 3, 5, 32768 - 9), (16384, 16384, 0, 0), zero)),
        (32771, (zero, (1, 2, 3, 32771 - 6), zero)),
        (32771, ((1, 2, 0, 32771 - 3), zero, zero)),
    ]
    sizes = []
    for d, generators in cases:
        closure = enumerate_L0(d, generators)
        assert closure == enumerate_L0_product(d, generators), d
        sizes.append((len(group_product(d, generators)), len(closure)))
    assert sizes == [(32767, 32580), (65536, 65533), (32771, 32770), (32771, 0)]


def random_matrices() -> list:
    """60 seeded random exponent matrices of degree 3-9 with |det A| >= 30
    and an order product small enough for the product loop."""
    rng = random.Random(9091)
    matrices = []
    while len(matrices) < 60:
        degree = rng.randint(3, 9)
        rows = []
        for _ in range(4):
            cuts = sorted(rng.randint(0, degree) for _ in range(3))
            rows.append([b - a for a, b in zip([0] + cuts, cuts + [degree])])
        adj = adjugate(rows)
        if abs(adj[0]) < 30:
            continue
        d, generators = shioda_vectors(adj)
        orders = [order(g, d) for g in generators]
        if orders[0] * orders[1] * orders[2] <= 200_000:
            matrices.append(rows)
    return matrices


def test_L0_closure_matches_the_product_loop():
    # Seeded differential test of the coset closure against the loop over
    # every combination of the generators' multiples, on the random matrices
    # and then family matrices.
    families = [FamilyParams(p, a).matrix for p, a in [(3, 1), (5, 2), (7, 3), (11, 1)]]
    sizes = set()
    for rows in random_matrices() + families:
        d, generators = shioda_vectors(adjugate(rows))
        members = group_product(d, generators)
        closure = enumerate_L0(d, generators)
        assert closure == frozenset(n for n in members if 0 not in n), rows
        # the Hermite count of each prefix group, whose quotients set the
        # closure's coset counts, is the size of the group its generators
        # span, the last one L
        zero = (0, 0, 0, 0)
        prefixes = [
            len(group_product(d, [*generators[:i], *[zero] * (3 - i)]))
            for i in range(3)
        ]
        assert prefix_orders(d, generators) == [*prefixes, len(members)], rows
        sizes.add(len(closure))
    assert len(sizes) > 15  # the draws are not all one small lattice


def test_lefschetz_number_matches_the_fraction_count():
    # Seeded differential test of the whole matrix route, closure and
    # integer early-exit scan, against the product loop and a Fraction scan,
    # on the random matrices of the closure test.
    for rows in random_matrices():
        adj = adjugate(rows)
        assert lefschetz_number(adj) == lefschetz_by_fractions(*shioda_vectors(adj)), rows


# ---------------------------------------------------------------------------
# Lambda membership
# ---------------------------------------------------------------------------


def test_membership_witness_example():
    v = family_slice_vector(11, 1, 3)
    assert v[1] == order(*v) == 22
    assert witness(*v) == 1
    assert exhaustive_sums(*v)[1] == 1


def test_membership_half_pair_excluded():
    # j/2ap = 1/2 puts two entries at 1/2; every odd t then forces sum 2
    v = family_slice_vector(11, 1, 11)
    assert witness(*v) is None
    assert all(s == 2 for s in exhaustive_sums(*v).values())


def test_membership_invariant_under_unit_scaling():
    v = family_slice_vector(11, 1, 3)
    for t in (3, 5, 21):
        assert gcd(t, order(*v)) == 1
        assert (witness(*scaled(v, t)) is None) == (witness(*v) is None)
    w = family_slice_vector(11, 1, 11)
    assert witness(*scaled(w, 7)) is None


# the draws of the p <= 43, a <= 10 grid small enough for the benchmark's
# picard --verify ops, |L0| <= 1500
VERIFY_DRAWS = [
    (p, a)
    for p in range(3, 44)
    if is_prime(p)
    for a in range(1, 11)
    if (p - 1) * (2 * a * p - 2) <= 1500
]


def test_lambda_witnesses_match_the_one_member_scan():
    # witness for witness, the kernel against the reference's scan of one
    # member at a time, on every member of L0 of the grid's verify draws and
    # of the seeded random matrices
    families = [FamilyParams(p, a).matrix for p, a in VERIFY_DRAWS]
    assert len(families) == 45
    for rows in families + random_matrices():
        d, generators = shioda_vectors(adjugate(rows))
        members = list(enumerate_L0(d, generators))
        reference = [lambda_membership(n, d) for n in members]
        assert lambda_witnesses(members, d) == reference, rows


def test_lambda_witnesses_memo_is_exact():
    # the kernel computes one witness per sorted tuple of numerators: shuffle
    # the members and add a copy of each with its entries permuted, so that
    # most witnesses come from the memo, and every one must still be the
    # reference's
    rng = random.Random(3407)
    families = [FamilyParams(13, 4).matrix, FamilyParams(5, 6).matrix]
    for rows in families + random_matrices()[:8]:
        d, generators = shioda_vectors(adjugate(rows))
        members = list(enumerate_L0(d, generators))
        permuted = [tuple(rng.sample(n, 4)) for n in members]
        mixed = members + permuted
        rng.shuffle(mixed)
        reference = [lambda_membership(n, d) for n in mixed]
        assert lambda_witnesses(mixed, d) == reference, rows


def test_lambda_witnesses_decide_t_1_by_the_entry_sum():
    # entry sums d and 3d have fractional parts summing to 1 and 3, so t = 1
    # is the witness, by hand and on every such member of L0 at (7, 3)
    d = 22
    level_1 = (11, 2, 3, 6)
    level_3 = tuple(d - n for n in level_1)  # (11, 20, 19, 16)
    assert (sum(level_1), sum(level_3)) == (d, 3 * d)
    assert lambda_witnesses([level_1, level_3], d) == [1, 1]
    assert [lambda_membership(n, d) for n in (level_1, level_3)] == [1, 1]
    d, generators = shioda_vectors(adjugate(FamilyParams(7, 3).matrix))
    members = list(enumerate_L0(d, generators))
    witnesses = lambda_witnesses(members, d)
    sums = Counter(sum(n) for n in members)
    assert sums[d] > 0 and sums[3 * d] > 0
    assert all(w == 1 for n, w in zip(members, witnesses) if sum(n) != 2 * d)


def test_early_exit_agrees_with_exhaustive_scan():
    for p, a in [(3, 1), (3, 2), (5, 1)]:
        d, generators = shioda_vectors(adjugate(FamilyParams(p, a).matrix))
        members = list(enumerate_L0(d, generators))
        for n, least in zip(members, lambda_witnesses(members, d)):
            sums = exhaustive_sums(n, d)
            assert (least is not None) == any(s != 2 for s in sums.values())
            if least is not None:
                assert least == min(t for t, s in sums.items() if s != 2)
            # entry sums always land in {1, 2, 3} on L0
            assert set(sums.values()) <= {1, 2, 3}


def test_dual_routes_agree_on_seeded_draws():
    # Seeded differential fuzz of the family count: the one-slice count, the
    # matrix route (integer scans, early-exit and exhaustive) and the
    # Fraction reference scan must give the same lambda.  Twelve draws of a
    # prime p <= 23, then of a with |L0| = (p - 1)(2ap - 2) <= 1500, run
    # cheapest first; no draw starts after 1.5 s unless fewer than three
    # have run, so the test takes about two seconds.
    rng = random.Random(20260)
    draws = []
    for _ in range(12):
        p = rng.choice((3, 5, 7, 11, 13, 17, 19, 23))
        draws.append(FamilyParams(p, rng.randint(1, (1500 // (p - 1) + 2) // (2 * p))))
    draws.sort(key=lambda params: family_L0_count(params) * params.weight)
    deadline = time.perf_counter() + 1.5
    checked = 0
    for params in draws:
        if checked >= 3 and time.perf_counter() > deadline:
            break
        count = family_L0_count(params)
        d, generators = shioda_vectors(adjugate(params.matrix))
        members = enumerate_L0(d, generators)
        assert len(members) == count
        lam = lam_fraction = 0
        rows, packed_sums = exhaustive_scan(members, d)  # verify_family's one pass
        witnesses = lambda_witnesses(members, d)  # and its early-exit pass
        for n, packed, least in zip(members, packed_sums, witnesses):
            sums = exhaustive_sums(n, d)
            reference = fraction_exhaustive_sums(entries(n, d))
            assert sums == reference, (params, n)
            slow = any(s != 2 for s in sums.values())
            assert (least is not None) == slow, (params, n)
            assert (packed != rows.full) == slow, (params, n)  # its verdict
            lam += slow
            lam_fraction += any(s != 2 for s in reference.values())
        report = family_report(params)
        assert lam == lam_fraction == count - (report.rho_tilde - 2), params
        assert report.lefschetz == lam, params
        checked += 1


def divisors(n: int) -> list:
    return [k for k in range(1, n + 1) if n % k == 0]


def test_sieved_units_match_the_gcd_filter():
    # the exhaustive scan's own unit set, by sieve, against the gcd filter on
    # every order up to 2,000 and the divisors of the largest weights
    sieve = shioda._sieved_units
    assert sieve(1) == (1,)
    for n in sorted(set(range(1, 2001)) | set(divisors(9998)) | set(divisors(10000))):
        assert list(sieve(n)) == [t for t in range(1, n + 1) if gcd(t, n) == 1], n


def test_units_of_d_reduce_onto_the_units_of_each_divisor():
    # the fact the exhaustive kernel rests on: reduction mod N maps the units
    # of d onto the units of every divisor N of d, each one phi(d)/phi(N)
    # times, so the lanes of one table over the units of d take every unit
    # of a member's order N; on every d up to 500 and the largest weights
    sieve = shioda._sieved_units
    for d in [*range(1, 501), 9998, 10000]:
        units = sieve(d)
        for N in divisors(d):
            units_N = [u for u in range(N) if gcd(u, N) == 1]
            times = len(units) // len(units_N)  # phi(d) / phi(N)
            assert Counter(t % N for t in units) == dict.fromkeys(units_N, times), (d, N)


def test_exhaustive_sums_match_the_fraction_scan_off_L0():
    # Seeded characters with zero entries, so outside L0, over d up to 10**4
    # with an integer entry sum: the integer scan equals the Fraction scan.
    rng = random.Random(4241)
    draws = [(0, 0, 0, 0, 1), (0, 0, 0, 0, 10**4), (0, 1, 0, 9997, 9998)]
    while len(draws) < 30:
        d = rng.choice((rng.randint(2, 60), rng.randint(61, 10**4)))
        zeros = rng.randint(1, 3)
        numerators = [0] * zeros + [rng.randrange(1, d) for _ in range(3 - zeros)]
        numerators.append(-sum(numerators) % d)
        rng.shuffle(numerators)
        draws.append((*numerators, d))
    for *numerators, d in draws:
        sums = exhaustive_sums(tuple(numerators), d)
        assert sums == fraction_exhaustive_sums(entries(numerators, d)), (numerators, d)


def test_exhaustive_sums_across_the_lane_width_switch():
    # Seeded characters of order d with an integer entry sum, around the
    # switch from 16-bit lanes (4(d - 1) <= 0xFFFF) to 64-bit ones and past
    # MAX_WEIGHT.  A lane holds sums up to 3d, so a 16-bit lane at d = 32749
    # would carry into its neighbour and show as a wrong sum, not a crash.
    # The integer reference checks every draw; the Fraction one, which ties
    # both references together, checks the first.
    rng = random.Random(6553)
    for d in (16383, 16384, 16385, 20000, 32749, 65537):
        numerators = [0]
        while 0 in numerators or gcd(d, *numerators) != 1:
            numerators = [rng.randrange(1, d) for _ in range(3)]
            numerators.append(-sum(numerators) % d)
        sums = exhaustive_sums(tuple(numerators), d)
        assert sums == integer_exhaustive_sums(numerators, d), (numerators, d)
        if d == 16383:
            assert sums == fraction_exhaustive_sums(entries(numerators, d))
        assert set(sums.values()) <= {1, 2, 3}


def test_unit_rows_by_doubling_match_the_direct_rows():
    # every row of three orders, then seeded rows at 4,974, the largest order
    # of (3, 829), and at 16,385, where the 64-bit lanes start; only the rows
    # asked for, their binary prefixes and the powers of two are built
    rng = random.Random(1657)
    for order in (26, 52, 860, 4974, 16385):
        rows = shioda._UnitLanes(order)
        assert rows.lanes.width == (64 if order == 16385 else 16), order
        asked = range(order) if order <= 860 else rng.sample(range(order), 12)
        for m in asked:
            assert list(rows.lanes.unpack(rows[m])) == unit_row(order, m), (order, m)
        if order > 860:
            assert len(rows) <= 1 + (len(asked) + 1) * order.bit_length(), order


def test_exhaustive_scan_keeps_its_own_unit_set(monkeypatch):
    # a wrong unit table for the early-exit scan leaves the exhaustive scan
    # as it was: the two scans of the pair list their units independently
    d, generators = shioda_vectors(adjugate(FamilyParams(11, 1).matrix))
    members = sorted(enumerate_L0(d, generators))
    sums = [exhaustive_sums(n, d) for n in members]
    witnesses = lambda_witnesses(members, d)
    monkeypatch.setattr(shioda, "_units", lambda modulus: (1,))
    assert [exhaustive_sums(n, d) for n in members] == sums
    assert lambda_witnesses(members, d) != witnesses


def test_recount_budget_admits_the_grid():
    # by arithmetic, without a run: every (p, a) with p <= 43 and a <= 10 is
    # recounted, and (47, 106) is refused
    def steps(p: int, a: int) -> int:
        params = FamilyParams(p, a)
        return family_L0_count(params) * params.weight

    grid = [(p, a) for p in range(3, 44) if is_prime(p) for a in range(1, 11)]
    assert len(grid) == 130
    assert max(steps(p, a) for p, a in grid) == steps(43, 10) == 30_990_960
    assert steps(43, 10) <= shioda.MAX_RECOUNT < steps(47, 106) == 4_566_022_928


def test_recount_refuses_past_its_budget_before_L0(monkeypatch):
    monkeypatch.setattr(shioda, "MAX_RECOUNT", 8 * 6 - 1)  # (3, 1): 8 members, 2ap = 6
    # neither scan is reached: not the slice's, and not the recount's
    monkeypatch.setattr(shioda, "excluded_fractions", None)
    monkeypatch.setattr(shioda, "enumerate_L0", None)
    params = FamilyParams(3, 1)
    with pytest.raises(ValidationError, match="48 scaling steps, more than 47"):
        family_report(params, verify=True)


# ---------------------------------------------------------------------------
# Picard numbers
# ---------------------------------------------------------------------------


def test_lefschetz_number_family():
    assert lefschetz_number(adjugate(FamilyParams(11, 1).matrix)) == 140


def test_bookkeeping_identity():
    for p, a in [(3, 2), (5, 1)]:
        params = FamilyParams(p, a)
        rho = family_report(params).rho_tilde
        lam = lefschetz_number(adjugate(params.matrix))
        assert rho - 2 + lam == family_L0_count(params)


def test_picard_headline_values():
    assert family_report(FamilyParams(11, 1)).rho_tilde == 62
    assert family_report(FamilyParams(11, 3)).rho_tilde == 62
    assert family_report(FamilyParams(13, 1)).rho_tilde == 74
    assert family_report(FamilyParams(7, 3)).rho_tilde == 86
    assert family_report(FamilyParams(5, 6)).rho_tilde == 74


def test_picard_small_prime_stabilization():
    # p = 7 and p = 5 are constant on their divisibility classes
    assert family_report(FamilyParams(7, 6)).rho_tilde == 86
    assert family_report(FamilyParams(5, 12)).rho_tilde == 74


def test_picard_p3_depends_on_gcd_with_60():
    # the value 2 + 30(p-1) = 62 is attained exactly at gcd(a, 60) = 30;
    # full multiples of 60 pick up four more character pairs and reach 70
    assert family_report(FamilyParams(3, 30)).rho_tilde == 62
    assert family_report(FamilyParams(3, 90)).rho_tilde == 62
    assert family_report(FamilyParams(3, 60)).rho_tilde == 70
    assert family_report(FamilyParams(3, 1)).rho_tilde == 10


def test_picard_large_member():
    assert family_report(FamilyParams(101, 30)).rho_tilde == 602


# a spread of the p <= 43, a <= 10 grid: every a for the small primes, whose
# values depend on a, and two values of a (plus the grid's corner) beyond
SLICE_SPREAD = (
    [(p, a) for p in (3, 5, 7) for a in range(1, 11)]
    + [(p, a) for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43) for a in (1, 6)]
    + [(43, 10)]
)


def test_slice_count_matches_the_count_over_all_of_L0():
    for p, a in SLICE_SPREAD:
        rho = family_report(FamilyParams(p, a)).rho_tilde
        assert rho == picard_family_all_vectors(p, a), (p, a)


def test_family_params_validation():
    with pytest.raises(ValidationError):
        FamilyParams(4, 1)
    with pytest.raises(ValidationError):
        FamilyParams(2, 1)
    with pytest.raises(ValidationError):
        FamilyParams(5, 0)
    for p in (1, 9, -3, 2**61 - 1):
        with pytest.raises(ValidationError):
            FamilyParams(p, 1)


def test_family_params_take_only_integers():
    # a float, or a bool, which is an int to isinstance, is refused before
    # any arithmetic: 1.5 would reach family_report and True would print
    # "a": true in the record
    for p, a in [(3, 1.5), (3.0, 1), (3, True), (True, 1), (3, Fraction(1)), ("3", 1)]:
        with pytest.raises(ValidationError, match="must be an integer"):
            FamilyParams(p, a)
    assert (FamilyParams(3, 1).p, FamilyParams(3, 1).a) == (3, 1)


def test_is_prime_agrees_with_sympy():
    for n in range(-10, 10**4 + 1):
        assert is_prime(n) == sympy.isprime(n), n


# ---------------------------------------------------------------------------
# excluded fractions
# ---------------------------------------------------------------------------


def test_excluded_fractions_p11():
    assert excluded_fractions(FamilyParams(11, 1)) == lemexcl_set(11)


def test_excluded_fractions_independent_of_a():
    assert excluded_fractions(FamilyParams(13, 2)) == lemexcl_set(13)
    assert excluded_fractions(FamilyParams(11, 4)) == lemexcl_set(11)


def test_excluded_fractions_small_prime_is_larger():
    # at a = 1 even p = 5 happens to match the six-fraction set; the
    # small-prime deviation shows up once a has the divisors 2 or 3
    assert excluded_fractions(FamilyParams(5, 1)) == lemexcl_set(5)
    assert excluded_fractions(FamilyParams(5, 2)) > lemexcl_set(5)
    assert excluded_fractions(FamilyParams(5, 6)) > lemexcl_set(5)
    assert excluded_fractions(FamilyParams(7, 3)) > lemexcl_set(7)


def test_slice_scan_skips_only_members_in_Lambda_at_t_1():
    # the slice scan starts at j = ap - 2a + 1: every j below it with k != 0
    # is a level-1 member, so t = 1 puts it in Lambda, and the scan finds the
    # same fractions as the early-exit scan over every j of the slice
    grid = [(p, a) for p in range(3, 44) if is_prime(p) for a in range(1, 11)]
    for p, a in grid:
        d = 2 * a * p
        for j in range(1, a * p - 2 * a + 1):
            k = -(a * p + 2 * a + j) % d
            assert k == 0 or lambda_membership((a * p, 2 * a, j, k), d) == 1, (p, a, j)
        assert excluded_fractions(FamilyParams(p, a)) == excluded_fractions_all_j(p, a)


def test_slice_sieve_matches_the_scan_over_every_j():
    # the sieve over the units of 2ap against the reference's early-exit scan
    # of every j of the slice over its own order's units, on every admitted
    # (p, a) with 2ap <= 400
    primes = [p for p in range(3, 201) if is_prime(p)]
    pairs = [(p, a) for p in primes for a in range(1, 200 // p + 1)]
    assert len(pairs) == 269
    for p, a in pairs:
        sieve = excluded_fractions(FamilyParams(p, a))
        assert sieve == excluded_fractions_all_j(p, a), (p, a)


def test_slice_sieve_at_the_largest_weights():
    # the largest prime weight 2ap = 9,998, and 2ap = 9,996 and 10,000 with
    # many small factors, so many orders among the members of the slice
    for p, a in [(4999, 1), (3, 1666), (5, 1000)]:
        sieve = excluded_fractions(FamilyParams(p, a))
        assert sieve == excluded_fractions_all_j(p, a), (p, a)


def test_out_of_lambda_spread_evenly_over_slices():
    # each i-slice contributes the same six excluded columns for p > 7
    p, a, d = 11, 1, 22
    per_slice = []
    for i in range(1, p):
        count = 0
        for j in range(1, d):
            k = -(a * p + 2 * a * i + j) % d
            if k == 0:
                continue
            if witness(*family_slice_vector(p, a, j, i)) is None:
                count += 1
        per_slice.append(count)
    assert per_slice == [6] * (p - 1)


# ---------------------------------------------------------------------------
# Hodge counts
# ---------------------------------------------------------------------------


def test_hodge_counts_k3_case():
    assert gs_hodge_counts(FamilyParams(3, 2)) == (1, 18, 1)


def test_hodge_counts_rational_case():
    assert gs_hodge_counts(FamilyParams(3, 1)) == (0, 8, 0)


# the benchmark's grid (odd primes p <= 43, a <= 10), two larger primes with
# a <= 12, and the large member of the acceptance criteria
HODGE_GRID = (
    [
        (p, a)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
        for a in range(1, 11)
    ]
    + [(p, a) for p in (47, 101) for a in range(1, 13)]
    + [(101, 30)]
)


def test_hodge_totals_and_symmetry():
    for p, a in HODGE_GRID:
        params = FamilyParams(p, a)
        h20, h11, h02 = gs_hodge_counts(params)
        assert h20 + h11 + h02 == family_L0_count(params), (p, a)
        assert h20 == h02, (p, a)


def test_hodge_closed_form_matches_the_walk_over_L0():
    for p, a in HODGE_GRID:
        assert gs_hodge_counts(FamilyParams(p, a)) == hodge_counts_all_vectors(p, a), (p, a)


# ---------------------------------------------------------------------------
# published t-values, spot-checked at desk scale
# ---------------------------------------------------------------------------

WITNESS_ROWS = [
    # (p, a, j, t): j chosen inside the row's interval with its congruence
    (11, 4, 13, 1),
    (11, 4, 51, 45),
    (11, 4, 29, 67),
    (13, 2, 21, 15),
    (11, 9, 83, 67),
    (19, 3, 43, 77),
    (23, 3, 97, 47),
]


@pytest.mark.parametrize("p,a,j,t", WITNESS_ROWS)
def test_published_witnesses(p, a, j, t):
    vec = family_slice_vector(p, a, j)
    assert gcd(t, order(*vec)) == 1
    total = sum((frac_part(t * e) for e in entries(*vec)), Fraction(0))
    assert total == 1
    assert witness(*vec) is not None
