"""Enumeration of minimum toll hull sets with polynomial delay.

The solver leaves pairwise disjoint t-concave interiors whose granularities
sum to the hull number.  By the paper's lemmas a hull set takes at least
the granularity from each interior (no interval of outside vertices enters
a t-concave set, a type-2 interior needs two vertices, a type-3 interior
is made of extreme vertices), so a minimum hull set takes exactly that
many from each interior and nothing from anywhere else.

A block's options are the granularity-subsets of its interior that close
to V in place of the block's pick in the solver's hull set S*; the stream
is their product.  That it holds every minimum hull set and nothing else
is not proven here, but ``check.compare_with_bruteforce`` was complete on
every connected graph with n <= 8 (``scripts/oracle_sweep.py``), and
every emitted set is verified (a failure is a hard error).  Prime graphs take
every non-adjacent pair, complete graphs all of V.

Options are checked when the product first reaches them and then kept, so
between two emissions each block's subsets are scanned at most once.  Only
type-3 blocks, which have one subset, exceed granularity 2, so that is
O(n^2) hull checks per emission.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .convexity import _mask_of, interval_kernel, toll_hull
from .graph import Graph, GraphError, _members
from .solver import CharacteristicBlock, HullResult, solve


class EnumerationError(RuntimeError):
    """A combined selection failed verification; signals a solver bug."""


def _candidates(g: Graph, result: HullResult) -> Iterator[frozenset[int]]:
    if result.complete:
        yield frozenset(range(g.n))
    elif result.prime:
        full = (1 << g.n) - 1
        for u, mask in enumerate(g.masks):
            for v in _members(full & ~mask & -(2 << u)):
                yield frozenset({u, v})
    else:
        s_star = _mask_of(result.hull_set)
        sources = [_options(g, s_star, b) for b in result.family]
        for combo in _lazy_product(sources):
            yield frozenset().union(*combo)


def _options(g: Graph, s_star: int, b: CharacteristicBlock) -> Iterator[frozenset[int]]:
    """The ``granularity``-subsets of b that close to V in place of b's
    pick in S*, in lexicographic order."""
    k = interval_kernel(g)
    rest = s_star & ~_mask_of(b.chosen)
    for option in combinations(sorted(b.vertices), b.granularity):
        if k.hull(rest | _mask_of(option)) == k.full:
            yield frozenset(option)


def _lazy_product(sources: list[Iterator]) -> Iterator[tuple]:
    """``itertools.product`` of the sources in the same order, drawing an
    item from a source only when the product first reaches it."""
    seen: list[list] = [[] for _ in sources]

    def reach(i: int, j: int) -> bool:
        while len(seen[i]) <= j:
            nxt = next(sources[i], None)
            if nxt is None:
                return False
            seen[i].append(nxt)
        return True

    index: list[int] = []
    while True:
        while len(index) < len(sources):
            if not reach(len(index), 0):
                return
            index.append(0)
        yield tuple(seen[i][j] for i, j in enumerate(index))
        while index and not reach(len(index) - 1, index[-1] + 1):
            index.pop()
        if not index:
            return
        index[-1] += 1


def enumerate_min_hull_sets(
    g: Graph, limit: int | None = None
) -> Iterator[frozenset[int]]:
    """Stream distinct minimum toll hull sets.

    Emission order is the lexicographic product order of the per-block
    options.  Every candidate is checked to have the right cardinality and a
    full hull before being emitted.  A limit of 0 emits nothing, and a
    negative limit raises ``GraphError``.
    """
    if not g.is_connected():
        raise GraphError("enumeration requires a connected graph")
    if limit is not None and limit < 0:
        raise GraphError(f"enumeration limit must not be negative, got {limit}")
    if limit == 0:
        return
    result = solve(g)
    emitted = 0
    V = frozenset(range(g.n))
    for candidate in _candidates(g, result):
        if len(candidate) != result.hull_number:
            raise EnumerationError(
                f"combined selection {sorted(candidate)} has the wrong size"
            )
        if toll_hull(g, candidate) != V:
            raise EnumerationError(
                f"combined selection {sorted(candidate)} is not a hull set"
            )
        yield candidate
        emitted += 1
        if limit is not None and emitted >= limit:
            return
    if not emitted:
        raise EnumerationError("no block selection closes to V")
