"""The four benchmark workloads as seeded streams of command-line blocks.

Each workload is a closed loop with one client: the next op is sent only
after the previous one returns.  No op passes ``--threads``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator

from generators import (
    ODD_PRIMES_TO_43,
    balanced,
    family_L0_size,
    genus_one_surface,
    picard_draws,
    surfaces,
)

# picard draws at or below this |L0| also run the matrix-route --verify.
PICARD_VERIFY_MAX_L0 = 1500
# picard draws in the cold workload stay at or below this |L0|.
COLD_PICARD_MAX_L0 = 2000
# The picard grid of 130 draws is cut into this many strata of this size.
PICARD_STRATA, PICARD_STRATUM = 13, 10
ORACLE_DEGREES = (4, 5, 6, 7)
GENUS_ONE_BLOCK = 8


@dataclass(frozen=True)
class Op:
    command: str  # "analyze" or "picard"
    argv: tuple[str, ...]
    p: int = 0
    a: int = 0

    @property
    def route(self) -> str:
        """Which code path the op exercises, for busy-time shares."""
        if self.command == "picard":
            return "matrix" if "--verify" in self.argv else "family"
        return "oracle" if "--verify" in self.argv else "analyze"


def analyze_op(rows, verify: bool = False) -> Op:
    argv = ("analyze", json.dumps({"monomials": rows}))
    return Op("analyze", argv + (("--verify",) if verify else ()))


def picard_op(p: int, a: int, *flags: str) -> Op:
    return Op("picard", ("picard", "--p", str(p), "--a", str(a), *flags), p, a)


def cold_cli_blocks(rng: random.Random) -> Iterator[list[Op]]:
    """An analyze of degree 3-6, then a small picard draw."""
    shapes = surfaces(rng, (3, 4, 5, 6))
    small = [
        (p, a)
        for p in ODD_PRIMES_TO_43
        for a in range(1, 11)
        if family_L0_size(p, a) <= COLD_PICARD_MAX_L0
    ]
    pairs = balanced(rng, small)
    while True:
        yield [analyze_op(next(shapes)), picard_op(*next(pairs))]


def genus_one_blocks(rng: random.Random) -> Iterator[list[Op]]:
    while True:
        yield [analyze_op(genus_one_surface(rng)) for _ in range(GENUS_ONE_BLOCK)]


def verify_oracle_blocks(rng: random.Random) -> Iterator[list[Op]]:
    """One surface of each degree 4-7 per block."""
    shapes = surfaces(rng, ORACLE_DEGREES)
    while True:
        yield [analyze_op(next(shapes), verify=True) for _ in ORACLE_DEGREES]


def picard_blocks(rng: random.Random) -> Iterator[list[Op]]:
    """One draw from every cost stratum per block: picard --hodge --excluded,
    and for small draws also the matrix-route --verify."""
    draws = picard_draws(rng, PICARD_VERIFY_MAX_L0, PICARD_STRATUM)
    while True:
        block = []
        for p, a in islice(draws, PICARD_STRATA):
            block.append(picard_op(p, a, "--hodge", "--excluded"))
            if family_L0_size(p, a) <= PICARD_VERIFY_MAX_L0:
                block.append(picard_op(p, a, "--verify"))
        yield block


@dataclass(frozen=True)
class Workload:
    """A closed loop runs whole blocks until its time is up, so every run
    sees the same mix of inputs; ``tail`` is the percentile reported as
    op_ms_tail (the highest of 75/90/95/99 with at least ten samples beyond
    it at this workload's op count)."""

    name: str
    blocks: Callable[[random.Random], Iterator[list[Op]]]
    cold: bool  # each op a fresh process, else an in-process cli.main call
    tail: int
    check_ops: int  # default-seed ops whose stdout hash is pinned

    def ops(self, rng: random.Random) -> Iterator[Op]:
        return chain.from_iterable(self.blocks(rng))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_cli", cold_cli_blocks, cold=True, tail=75, check_ops=2),
        Workload("genus_one", genus_one_blocks, cold=False, tail=95, check_ops=8),
        Workload("verify_oracle", verify_oracle_blocks, cold=False, tail=95, check_ops=8),
        Workload("picard", picard_blocks, cold=False, tail=90, check_ops=8),
    )
}
