"""The benchmark's generators are seeded and keep their stated properties.

Every property is checked with the generators' own integer arithmetic, never
by calling ``delsarte``.  Run with ``python3 -m pytest bench``.
"""

import json
import random
from itertools import islice, permutations

import pytest

from calibrate import REFERENCE_S, WINDOW, Calibration, kernel_seconds
from checks import check_picard
from compare import mismatches
from generators import (
    MAX_AFFINE_EXPONENT,
    ODD_PRIMES_TO_43,
    balanced,
    determinant,
    family_L0_size,
    genus_one_surface,
    is_nondegenerate_surface,
    picard_cost,
    picard_draws,
    random_surface,
)
from tracing import self_times
from workloads import (
    COLD_PICARD_MAX_L0,
    PICARD_STRATA,
    PICARD_STRATUM,
    PICARD_VERIFY_MAX_L0,
    WORKLOADS,
)


def leibniz_determinant(m):
    """Reference determinant as a signed sum over permutations."""
    total = 0
    for perm in permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def take(name, seed, n):
    return list(islice(WORKLOADS[name].ops(random.Random(seed)), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert take(name, 7, 40) == take(name, 7, 40)
    assert take(name, 7, 40) != take(name, 8, 40)


def test_determinant_matches_leibniz_expansion():
    rng = random.Random(3)
    for _ in range(200):
        m = [[rng.randint(-3, 5) for _ in range(4)] for _ in range(4)]
        assert determinant(m) == leibniz_determinant(m)


def test_acceptance_test_rejects_each_defect():
    good = [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 2]]
    assert is_nondegenerate_surface(good)
    unequal = [[0, 2, 0, 1], [3, 0, 0, 0], [2, 0, 0, 1], [0, 0, 1, 1]]
    repeated = [good[0], good[1], good[2], good[0]]
    common = [[1, 1, 0, 1], [1, 0, 1, 1], [1, 2, 0, 0], [1, 0, 0, 2]]
    singular = [[2, 0, 0, 0], [0, 2, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
    for rows in (unequal, repeated, common, singular):
        assert not is_nondegenerate_surface(rows)


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_random_surfaces_have_the_stated_properties(degree):
    rng = random.Random(degree)
    for _ in range(50):
        rows = random_surface(rng, degree)
        assert all(sum(r) == degree and min(r) >= 0 for r in rows)
        assert all(max(r[:3]) <= MAX_AFFINE_EXPONENT for r in rows)
        assert len({tuple(r) for r in rows}) == 4
        assert not any(all(r[j] > 0 for r in rows) for j in range(4))
        assert leibniz_determinant(rows) != 0


def test_genus_one_surfaces_have_the_stated_shape():
    rng = random.Random(5)
    for _ in range(200):
        rows = genus_one_surface(rng)
        degree = sum(rows[0])
        assert rows[0] == [0, 2, 0, degree - 2]
        es = [r[0] for r in rows[1:]]
        assert all(r[1] == 0 and 0 <= r[2] <= 3 for r in rows[1:])
        assert len(set(es)) == 3 and max(es) >= 3 and min(es) >= 0 and max(es) <= 4
        assert all(sum(r) == degree for r in rows)
        assert leibniz_determinant(rows) != 0


def test_balanced_visits_every_stratum_once_per_block():
    stream = balanced(random.Random(1), "abcde")
    for _ in range(20):
        assert sorted(islice(stream, 5)) == list("abcde")


def test_picard_ops_draw_odd_primes_and_verify_only_small_draws():
    ops = take("picard", 2, 400)
    for op in ops:
        assert op.p in ODD_PRIMES_TO_43 and 1 <= op.a <= 10
        assert "--threads" not in op.argv
        if "--verify" in op.argv:
            assert family_L0_size(op.p, op.a) <= PICARD_VERIFY_MAX_L0
    verified = {(op.p, op.a) for op in ops if "--verify" in op.argv}
    small = {
        (op.p, op.a)
        for op in ops
        if family_L0_size(op.p, op.a) <= PICARD_VERIFY_MAX_L0
    }
    assert verified == small


def test_cold_ops_alternate_analyze_and_small_picard():
    ops = take("cold_cli", 4, 60)
    assert [op.command for op in ops] == ["analyze", "picard"] * 30
    for op in ops[1::2]:
        assert family_L0_size(op.p, op.a) <= COLD_PICARD_MAX_L0


def test_verify_oracle_ops_all_verify_degree_four_to_seven():
    ops = take("verify_oracle", 6, 40)
    assert all(op.argv[-1] == "--verify" for op in ops)
    rows = [json.loads(op.argv[1])["monomials"] for op in ops]
    assert sorted({sum(r[0]) for r in rows}) == [4, 5, 6, 7]
    assert all(is_nondegenerate_surface(r) for r in rows)


def test_picard_identities_are_checked():
    record = {
        "p": 11, "a": 1, "L0_count": 200, "lambda": 140, "rho": 61,
        "rho_tilde": 62, "h20": 50, "h11prim": 100, "h02": 50,
    }
    assert check_picard(record, 11, 1) is None
    assert check_picard(dict(record, rho=62), 11, 1) is not None
    assert check_picard(dict(record, h02=49), 11, 1) is not None
    assert check_picard(dict(record, L0_count=201), 11, 1) is not None


def test_self_time_subtracts_direct_children():
    spans = [
        ["op", 0, 100, None, 0],
        ["a", 10, 60, 0, 0],
        ["b", 20, 30, 1, 0],
        ["b", 70, 90, 0, 0],
    ]
    totals = self_times(spans)
    assert totals == {"op": (1, 30, 1), "a": (1, 40, 1), "b": (2, 30, 1)}


def test_picard_draws_deal_the_whole_grid_once_per_round():
    stream = picard_draws(random.Random(3), PICARD_VERIFY_MAX_L0, PICARD_STRATUM)
    draws = list(islice(stream, 260))
    grid = {(p, a) for p in ODD_PRIMES_TO_43 for a in range(1, 11)}
    assert len(grid) == PICARD_STRATA * PICARD_STRATUM
    assert sorted(draws[:130]) == sorted(grid)
    assert sorted(draws[130:]) == sorted(grid)
    costs = sorted(picard_cost(p, a, PICARD_VERIFY_MAX_L0) for p, a in grid)
    top = costs[-PICARD_STRATUM]  # the cheapest draw of the costliest stratum
    for start in range(0, 260, PICARD_STRATA):
        block = draws[start : start + PICARD_STRATA]
        assert sum(picard_cost(*pa, PICARD_VERIFY_MAX_L0) >= top for pa in block) == 1


def test_compare_refuses_records_from_other_environments():
    base = {"commit": "a", "source_sha256": "x", "seed": 1, "python": "3.11.7"}
    assert mismatches(base, dict(base, commit="b", source_sha256="y")) == []
    assert mismatches(base, dict(base, seed=2)) == ["seed: 1 != 2"]
    assert mismatches(base, dict(base, python="3.12.0"))


def test_kernel_is_timed_and_each_op_scaled_by_its_nearest_runs():
    assert kernel_seconds() > 0
    calibration = Calibration()
    calibration.kernel_s = [REFERENCE_S * k for k in (1, 2, 4, 8, 16, 32)]
    assert WINDOW == 2
    assert calibration.factor(0) == pytest.approx(1 / ((1 + 2 + 4) / 3))
    assert calibration.factor(2) == pytest.approx(1 / ((2 + 4 + 8 + 16) / 4))
    assert calibration.factor(5) == pytest.approx(1 / ((16 + 32) / 2))
