"""Brute-force reference implementations.

Everything here recomputes toll-convexity quantities from first principles:
intervals by exhaustive search over the bounded walk space, hull numbers by
subset enumeration, atoms by testing vertex subsets, largest first, against
every clique.  All oracles on a graph read the one interval table that
``bf_all_intervals`` keeps for the graph asked about last.  The
implementations deliberately share no machinery with the production
operators they certify: they read the graph's adjacency (``Graph.adj`` or
``Graph.masks``) and nothing built on it.

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


def _walk_states(g: Graph, x: int, y: int, max_edges: int):
    """Forward/backward reachable (vertex, position) states of the walk space.

    Positions are 1-based; transitions encode the tolled conditions the
    moment they become decidable on a prefix: position 2 must neighbor x,
    later positions must avoid N(x), and any vertex adjacent to y may only
    step to y itself.
    """
    n, adj = g.n, g.adj
    npos = max_edges + 1  # number of vertex slots
    nx = adj[x]
    ny = adj[y]

    forward: list[set[int]] = [set() for _ in range(npos + 1)]
    forward[1].add(x)
    # x adjacent to y forces the two-vertex walk x,y and nothing else
    forward[2] = {y} if x in ny else set(nx)
    for i in range(2, npos):
        layer = forward[i]
        nxt = forward[i + 1]
        for w in layer:
            if w == y:
                continue
            if w in ny:
                if y in adj[w]:
                    nxt.add(y)
                continue
            for z in adj[w]:
                if z in nx:
                    continue
                nxt.add(z)

    # backward[i][w] = fewest steps from (w, i) to y along valid suffixes
    backward: list[dict[int, int]] = [dict() for _ in range(npos + 2)]
    for i in range(2, npos + 1):
        backward[i][y] = 0
    for i in range(npos - 1, 0, -1):
        nxt = backward[i + 1]
        here = backward[i]
        for w in range(n):
            if w == y:
                continue
            if w in ny:
                if y in nxt and y in adj[w]:
                    here[w] = 1
                continue
            best = None
            for z in adj[w]:
                if z in nx and i + 1 >= 3:
                    continue
                d = nxt.get(z)
                if d is not None and (best is None or d + 1 < best):
                    best = d + 1
            if best is not None:
                here[w] = best
    return forward, backward


def bf_toll_interval(
    g: Graph,
    x: int,
    y: int,
    max_edges: int | None = None,
    want_witnesses: bool = False,
):
    """Toll interval [x,y] by exhaustive bounded walk-space search.

    Walks of up to 2n+3 edges are explored; that bound is enough because a
    witnessing walk normalizes to x · a · P1 · v · P2 · b · y with P1 and P2
    simple paths.  With ``want_witnesses`` a dict of WalkWitness per interior
    member is returned alongside the set.
    """
    _guard(g, MAX_INTERVAL_N, "bf_toll_interval")
    if x == y:
        raise GraphError("toll interval endpoints must differ")
    g._check_vertex(x, y)
    if not _is_connected(g):
        raise GraphError("toll interval requires a connected graph")
    cap = (2 * g.n + 3) if max_edges is None else max_edges
    forward, backward = _walk_states(g, x, y, cap)
    npos = cap + 1
    members = set()
    first_pos: dict[int, int] = {}
    for i in range(1, npos + 1):
        for w in forward[i]:
            if w in backward[i] and w not in members:
                members.add(w)
                first_pos[w] = i
    if not want_witnesses:
        return frozenset(members)
    witnesses = {v: _reconstruct(g, x, y, v, first_pos[v], forward, backward, cap)
                 for v in sorted(members)}
    return frozenset(members), witnesses


def _reconstruct(g, x, y, v, pos, forward, backward, cap):
    adj = g.adj
    nx, ny = adj[x], adj[y]

    def step_ok(w, z, i):
        # one walk step from position i to i+1; a walk never leaves y
        if w == y or z not in adj[w]:
            return False
        if w in ny and z != y:
            return False
        if i + 1 >= 3 and z in nx:
            return False
        return True

    prefix = [v]
    i = pos
    while i > 1:
        w = prefix[-1]
        prev = next(p for p in sorted(forward[i - 1]) if step_ok(p, w, i - 1))
        prefix.append(prev)
        i -= 1
    prefix.reverse()
    suffix = [v]
    i = pos
    while suffix[-1] != y:
        w = suffix[-1]
        candidates = [
            z for z in adj[w]
            if step_ok(w, z, i) and z in backward[i + 1]
        ]
        # shortest remaining suffix, smallest vertex as tie-break
        nxt = min(candidates, key=lambda z: (backward[i + 1][z], z))
        suffix.append(nxt)
        i += 1
    walk = tuple(prefix + suffix[1:])
    assert is_tolled_walk(g, walk, x, y) and v in walk
    return WalkWitness(walk=walk, x=x, y=y, v=v)


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
