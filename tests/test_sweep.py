"""Every surface of degree <= 3 through ``analyze``, by ``tests/sweep.py``.

The tally of outcomes by branch is pinned, and so are the Lefschetz numbers
lambda of ``analyze(..., shioda=True)``, counted by value.  A change that moves it on
purpose (a new branch, a genus-0 cover that gets analyzed) restates it here
and says so in CHANGES.md.
"""

from __future__ import annotations

from itertools import chain

import pytest

from sweep import row_sets, sweep

TALLY_UP_TO_DEGREE_3 = {
    "invalid": 838,
    "rational_fibers": 420,
    "splits_after_base_change": 573,
    "genus_zero_cover": 668,  # exit 3: a cyclic cover of genus 0
    "isotrivial": 1285,
    "semistable_away": 1040,
    "genus_one_section": 152,  # superelliptic, with a genus-one section
    "superelliptic": 80,  # without one
}

# lambda is 0 on every surface of degree <= 3 that reaches the character
# count (as at p_g = 0); degree 4 gives the first nonzero values, up to 18
LAMBDAS_UP_TO_DEGREE_3 = {0: 2557}


@pytest.mark.parametrize("seed", [None, 1], ids=["ones", "rational"])
def test_every_surface_up_to_degree_3_keeps_its_branch_tally(seed):
    # 5,056 row sets; the coefficients move no surface to another branch
    tally, lambdas = sweep(chain(*map(row_sets, (1, 2, 3))), seed)
    assert tally == TALLY_UP_TO_DEGREE_3
    assert lambdas == LAMBDAS_UP_TO_DEGREE_3
