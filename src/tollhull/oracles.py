"""Brute-force reference implementations.

Everything here recomputes toll-convexity quantities from first principles:
intervals by reachability over the steps a tolled walk may take, hull
numbers by subset enumeration, atoms by testing vertex subsets, largest
first, against every clique.  All oracles on a graph read the one
interval table that ``bf_all_intervals`` keeps for the graph asked about
last.  The implementations deliberately share no machinery with the
production operators they certify: they read the graph's adjacency
(``Graph.adj`` or ``Graph.masks``) and nothing built on it.

All entry points carry hard size guards and raise instead of sampling.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, GraphError, SizeLimitError

MAX_INTERVAL_N = 12
MAX_ENUM_N = 9


def _guard(g: Graph, limit: int, what: str) -> None:
    if g.n > limit:
        raise SizeLimitError(f"{what} is guarded to n <= {limit}, got n={g.n}")


def _is_connected(g: Graph) -> bool:
    """By the oracles' own flood, not the kernel's that ``Graph.is_connected``
    runs."""
    return _connected(g.masks, (1 << g.n) - 1)


# -- tolled walks -----------------------------------------------------------


def is_tolled_walk(g: Graph, walk: tuple[int, ...], x: int, y: int) -> bool:
    """Literal check of the tolled-walk conditions between x and y.

    A walk w1..wk qualifies when w1 = x, wk = y, x != y, consecutive
    vertices are adjacent, every vertex adjacent to x appears only at
    position 2, and every vertex adjacent to y only at position k-1.
    """
    if len(walk) < 2 or walk[0] != x or walk[-1] != y or x == y:
        return False
    k, adj = len(walk), g.adj
    for i in range(k - 1):
        if walk[i + 1] not in adj[walk[i]]:
            return False
    for i, w in enumerate(walk, start=1):
        if w in adj[x] and i != 2:
            return False
        if w in adj[y] and i != k - 1:
            return False
    return True


@dataclass(frozen=True)
class WalkWitness:
    """A tolled (x,y)-walk certifying that v lies in the toll interval."""

    walk: tuple[int, ...]
    x: int
    y: int
    v: int


def _tolled_steps(g: Graph, x: int, y: int) -> dict[int, int | None]:
    """Parent links of a search from x along the steps of tolled
    (x,y)-walks.

    y stops; a neighbour of y steps only to y; x steps into N(x); any
    other vertex steps to a neighbour outside N[x].  Each rule checks one
    condition of the definition wherever the step falls in the walk, so
    the tolled (x,y)-walks are exactly the x-y walks along these steps (x
    never recurs, as its successor would be a neighbour of x past place
    2).  Reversed, they are the steps of the (y,x)-walks.
    """
    adj = g.adj
    closed_x = adj[x] | {x}
    parent: dict[int, int | None] = {x: None}
    queue = [x]
    for w in queue:
        if w == y:
            continue
        if w in adj[y]:
            steps = (y,)
        elif w == x:
            steps = adj[x]
        else:
            steps = adj[w] - closed_x
        for z in sorted(steps):
            if z not in parent:
                parent[z] = w
                queue.append(z)
    return parent


def _path(parent: dict[int, int | None], v: int) -> tuple[int, ...]:
    """v, then its parent links back to the search's start."""
    out = []
    while v is not None:
        out.append(v)
        v = parent[v]
    return tuple(out)


def bf_toll_interval(g: Graph, x: int, y: int, want_witnesses: bool = False):
    """Toll interval [x,y] by reachability over tolled steps.

    [x,y] holds the vertices reached both by ``_tolled_steps(g, x, y)``
    and by ``_tolled_steps(g, y, x)``, which walks the same steps
    backwards: a tolled walk joins each of them to both ends.  Adjacent
    ends give {x, y}.  With ``want_witnesses`` a dict of WalkWitness per
    member is returned alongside the set, each walk read off the two
    searches' parent links.
    """
    _guard(g, MAX_INTERVAL_N, "bf_toll_interval")
    if x == y:
        raise GraphError("toll interval endpoints must differ")
    g._check_vertex(x, y)
    if not _is_connected(g):
        raise GraphError("toll interval requires a connected graph")
    forward, backward = _tolled_steps(g, x, y), _tolled_steps(g, y, x)
    members = frozenset(forward.keys() & backward.keys())
    if not want_witnesses:
        return members
    witnesses = {}
    for v in sorted(members):
        walk = _path(forward, v)[::-1] + _path(backward, v)[1:]
        assert is_tolled_walk(g, walk, x, y) and v in walk
        witnesses[v] = WalkWitness(walk=walk, x=x, y=y, v=v)
    return members, witnesses


# (weakref to the graph asked about last, its interval table); weak, so that
# a sweep keeps none of the graphs it has checked alive
_TABLE: tuple = (None, None)


def bf_all_intervals(g: Graph) -> dict[tuple[int, int], frozenset[int]]:
    """Toll intervals of every pair, keyed by (min, max); read-only."""
    global _TABLE
    _guard(g, MAX_INTERVAL_N, "bf_all_intervals")
    ref, table = _TABLE
    if ref is None or ref() is not g:
        table = {(x, y): bf_toll_interval(g, x, y)
                 for x, y in combinations(range(g.n), 2)}
        _TABLE = (weakref.ref(g), table)
    return table


# -- hulls and hull numbers -------------------------------------------------


def _closure(s: frozenset[int], intervals) -> frozenset[int]:
    cur = set(s)
    done = set()
    while True:
        new = set()
        members = sorted(cur)
        for a, b in combinations(members, 2):
            if (a, b) in done:
                continue
            done.add((a, b))
            new |= intervals[(a, b)]
        if new <= cur:
            return frozenset(cur)
        cur |= new


def bf_hull(g: Graph, s) -> frozenset[int]:
    """Toll convex hull via iterated brute-force intervals."""
    _guard(g, MAX_INTERVAL_N, "bf_hull")
    s = frozenset(s)
    if not s:
        raise GraphError("hull of the empty set is undefined")
    if len(s) == 1:
        return s
    g._check_vertex(*s)
    return _closure(s, bf_all_intervals(g))


def _extreme(g: Graph) -> frozenset[int]:
    hit = set()
    for (x, y), interval in bf_all_intervals(g).items():
        hit |= interval - {x, y}
    return frozenset(range(g.n)) - hit


def bf_extreme_vertices(g: Graph) -> frozenset[int]:
    """Vertices appearing in no toll interval of two other vertices."""
    _guard(g, MAX_ENUM_N, "bf_extreme_vertices")
    return _extreme(g)


def bf_is_extreme(g: Graph, v: int) -> bool:
    return v in bf_extreme_vertices(g)


def _min_sets(g: Graph, *, all_sets: bool):
    """Smallest hull sets; every hull set must contain the extreme
    vertices, which prunes the subset enumeration."""
    n = g.n
    if n == 1:
        return 1, [frozenset({0})]
    intervals = bf_all_intervals(g)
    ext = _extreme(g)
    rest = sorted(set(range(n)) - ext)
    full = frozenset(range(n))
    for size in range(max(2, len(ext)), n + 1):
        found = []
        for extra in combinations(rest, size - len(ext)):
            s = ext | frozenset(extra)
            if _closure(s, intervals) == full:
                if not all_sets:
                    return size, [s]
                found.append(s)
        if found:
            return size, found
    raise AssertionError("some vertex set must qualify")  # V always does


def bf_hull_number(g: Graph) -> int:
    _guard(g, MAX_INTERVAL_N, "bf_hull_number")
    if not _is_connected(g):
        raise GraphError("hull number requires a connected graph")
    size, _ = _min_sets(g, all_sets=False)
    return size


def bf_all_min_hull_sets(g: Graph) -> list[frozenset[int]]:
    _guard(g, MAX_ENUM_N, "bf_all_min_hull_sets")
    if not _is_connected(g):
        raise GraphError("hull sets require a connected graph")
    _, sets = _min_sets(g, all_sets=True)
    return sorted(sets, key=sorted)


# -- decomposition ----------------------------------------------------------


def _cliques(g: Graph) -> list[int]:
    """All cliques of g (including the empty set), as vertex masks: each
    is its greatest vertex v added to a clique of v's lower neighbours."""
    out = [0]
    for v in range(g.n):
        lower = g.masks[v] & (1 << v) - 1
        out += [c | 1 << v for c in out if not c & ~lower]
    return out


def _connected(adj: tuple[int, ...], s: int) -> bool:
    """G[s] is connected (s non-empty), by a flood over adjacency masks."""
    reach = frontier = s & -s
    while frontier and reach != s:
        v = frontier.bit_length() - 1
        frontier ^= 1 << v
        new = adj[v] & s & ~reach
        reach |= new
        frontier |= new
    return reach == s


def _prime(adj: tuple[int, ...], s: int, cliques: list[int]) -> bool:
    """G[s] is prime: no clique of G strictly inside s, the empty one
    included, leaves G[s] in more than one piece."""
    return all(
        _connected(adj, s & ~c) for c in cliques if not c & ~s and c != s
    )


def bf_is_prime(g: Graph) -> bool:
    """No proper clique subset separates the graph (literal definition)."""
    _guard(g, MAX_INTERVAL_N, "bf_is_prime")
    if not _is_connected(g):
        raise GraphError("primality requires a connected graph")
    return _prime(g.masks, (1 << g.n) - 1, _cliques(g))


def bf_atoms(g: Graph) -> list[frozenset[int]]:
    """Maximal prime induced subgraphs, found largest first."""
    _guard(g, MAX_ENUM_N, "bf_atoms")
    if not _is_connected(g):
        raise GraphError("decomposition requires a connected graph")
    adj, cliques = g.masks, _cliques(g)
    found: list[int] = []
    for s in sorted(range(1, 1 << g.n), key=int.bit_count, reverse=True):
        if all(s & ~a for a in found) and _prime(adj, s, cliques):
            found.append(s)
    atoms = [frozenset(v for v in range(g.n) if a >> v & 1) for a in found]
    return sorted(atoms, key=sorted)
