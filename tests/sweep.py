"""Every surface of one degree through ``analyze``: the exhaustive gate.

``row_sets(n)`` lists every set of four distinct exponent rows of degree n,
``itertools.combinations`` over the sorted rows, with no reduction by the
symmetries of P^3.  ``sweep`` runs ``analyze(surface, verify=True,
shioda=True)`` on each set, tallies the outcomes by branch and counts the
Lefschetz numbers lambda of the reports that reach the character count.  On every
minimal form it also checks that the relation vector annihilates the plane
exponents and that ``base_change`` confirms the base-change record; an
``analyze --verify`` mismatch raises ``VerificationError``, and any other
error propagates too.

The tier-1 test runs every row set of degree <= 3.  Higher degrees run from
the command line, once with coefficients 1 and once with seeded rational
coefficients:

    PYTHONPATH=src python tests/sweep.py --degree 4
"""

from __future__ import annotations

import argparse
import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Optional

from base_change import apply_base_change, scale_t_exponents, term_set
from delsarte.analysis import analyze
from delsarte.errors import ValidationError
from delsarte.model import affine_equation, validate_surface


def row_sets(degree: int):
    """Every set of four distinct exponent rows of ``degree``, in order."""
    rows = [
        (a, b, c, degree - a - b - c)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    ]
    return combinations(sorted(rows), 4)


def random_coefficients(rng: random.Random) -> list[Fraction]:
    """Four nonzero rationals with numerators and denominators up to 9."""
    return [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(4)
    ]


def outcome(rows, coefficients=None) -> tuple[str, Optional[int]]:
    """The branch that ``analyze`` gives the surface, after the checks of
    the module docstring, with its Lefschetz number: None when ``analyze``
    stops before the character count."""
    try:
        surface = validate_surface(rows, coefficients)
    except ValidationError:
        return "invalid", None
    try:
        report = analyze(surface, verify=True, shioda=True)
    except ValidationError as exc:
        if "cyclic-cover genus 0" not in str(exc):
            raise
        return "genus_zero_cover", None
    if report.degeneracy is not None:
        return report.degeneracy.kind, None
    check_minimal(surface, report)
    branch = report.trichotomy.branch
    if branch == "superelliptic":
        branch = "genus_one_section" if report.genus_one else "superelliptic"
    return branch, report.lefschetz


def check_minimal(surface, report) -> None:
    plane, record = report.plane, report.minimal.base_change
    for j in range(3):
        column = [row[j] for row in plane.exponents]
        assert sum(k * e for k, e in zip(plane.kernel, column)) == 0, surface
    a, b = record.twist
    moved = apply_base_change(
        affine_equation(surface), a, b, record.inner_degree, record.cleared_power
    )
    reduced = scale_t_exponents(report.minimal.equation, record.degree)
    assert term_set(moved) == term_set(reduced), surface


def sweep(sets, seed=None) -> tuple[Counter, Counter]:
    """``(tally, lambdas)``: the branches of ``outcome`` over the row sets
    ``sets`` and the Lefschetz numbers it reached, each counted by value,
    with coefficients 1, or, given a ``seed``, with rational coefficients
    drawn from one ``random.Random(seed)`` in the order of the sets."""
    rng = None if seed is None else random.Random(seed)
    tally: Counter = Counter()
    lambdas: Counter = Counter()
    for rows in sets:
        branch, lam = outcome(rows, None if rng is None else random_coefficients(rng))
        tally[branch] += 1
        if lam is not None:
            lambdas[lam] += 1
    return tally, lambdas


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--degree", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for seed in (None, args.seed):
        start = time.perf_counter()
        tally, lambdas = sweep(row_sets(args.degree), seed)
        record = {
            "degree": args.degree,
            "coefficients": "ones" if seed is None else f"seed {seed}",
            "row_sets": sum(tally.values()),
            "seconds": round(time.perf_counter() - start, 1),
            "tally": dict(sorted(tally.items())),
            "lambda_total": sum(lam * n for lam, n in lambdas.items()),
            "lambdas": dict(sorted(lambdas.items())),
        }
        print(json.dumps(record))


if __name__ == "__main__":
    main()
