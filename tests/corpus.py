"""Shared generators for test surfaces.

Both the hypothesis strategy and the deterministic corpus build surfaces from
four distinct affine exponent triples (ex, ey, et) by homogenizing to the
maximal total degree; that construction automatically yields equal row sums
and distinct rows, so only the common-variable and degeneracy checks filter.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from hypothesis import assume
from hypothesis import strategies as st

from delsarte.errors import ValidationError
from delsarte.model import DelsarteSurface, validate_surface


def y_squared_triples(rng) -> list[tuple[int, int, int]]:
    """Affine triples of y^2 plus three monomials x^e t^f, drawn from ``rng``
    (a ``random.Random``): e distinct in 0..4, f in 0..3."""
    exponents = rng.sample(range(5), 3)
    return [(0, 2, 0)] + [(e, 0, rng.randrange(4)) for e in exponents]


def uniform_rows(rng, degree: int) -> list[list[int]]:
    """Four exponent rows of ``degree``, each uniform among the ways to write
    ``degree`` as four ordered nonnegative integers (stars and bars), drawn
    from ``rng`` (a ``random.Random``); they need not form a valid surface."""
    rows = []
    for _ in range(4):
        bars = sorted(rng.sample(range(degree + 3), 3))
        edges = [-1, *bars, degree + 3]
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(4)])
    return rows


def surface_from_affine_triples(triples) -> DelsarteSurface:
    """Homogenize four affine exponent triples into a surface (may raise)."""
    d = max(sum(tr) for tr in triples)
    rows = [[a, b, c, d - a - b - c] for (a, b, c) in triples]
    return validate_surface(rows)


triple = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@st.composite
def nondegenerate_surfaces(draw) -> DelsarteSurface:
    triples = draw(st.lists(triple, min_size=4, max_size=4, unique=True))
    # divide out any common variable instead of rejecting (keeps the filter
    # rate low); distinctness survives a uniform shift
    mins = [min(tr[j] for tr in triples) for j in range(3)]
    triples = [tuple(tr[j] - mins[j] for j in range(3)) for tr in triples]
    try:
        s = surface_from_affine_triples(triples)
    except ValidationError:
        assume(False)
    assume(not s.is_degenerate)
    return s


def deterministic_corpus(min_count: int = 50, max_total: int = 6, keep=None):
    """A reproducible list of nondegenerate surfaces of bounded degree.

    Scans combinations of small affine exponent triples in a fixed order and
    keeps the first ``min_count`` that validate (and satisfy ``keep``, when
    given); no randomness involved.  The scan takes seconds, so each corpus
    is built once per process; each call gets its own list of it.
    """
    return list(_scan(min_count, max_total, keep))


@lru_cache(maxsize=None)
def _scan(min_count: int, max_total: int, keep) -> tuple[DelsarteSurface, ...]:
    small = [
        (a, b, c)
        for a, b, c in product(range(4), range(4), range(3))
        if a + b + c <= max_total
    ]
    out = []
    seen = 0
    for triples in combinations(small, 4):
        if max(sum(tr) for tr in triples) > max_total:
            continue
        try:
            s = surface_from_affine_triples(triples)
        except ValidationError:
            continue
        if s.is_degenerate:
            continue
        # stride through the (lexicographic, hence heavily correlated) stream
        # so the kept surfaces differ in shape, not just in one monomial
        seen += 1
        if seen % 113 != 1:
            continue
        if keep is not None and not keep(s):
            continue
        out.append(s)
        if len(out) >= min_count:
            break
    assert len(out) >= min_count, "corpus scan exhausted too early"
    return tuple(out)
