"""Toll-convexity operators.

A tolled walk between distinct vertices x and y is a walk in which every
vertex adjacent to x appears only at the second position and every vertex
adjacent to y only at the second-to-last.  The toll interval [x,y] collects
the vertices lying on such walks; iterating the interval operator over a
set yields its toll convex hull.

Membership of v in [x,y] for non-adjacent x, y is decided without touching
walks at all: v qualifies exactly when deleting N[x] - {v} leaves v and y
connected and deleting N[y] - {v} leaves v and x connected.  Put another
way, v lies in, or has a neighbour in, the component of G - N[x] holding
y, and likewise with x and y swapped.

Every operator below runs on one ``IntervalKernel`` per graph.  It keeps
vertex sets as int masks, bit v standing for vertex v, and builds the
components of G - N[u] for a vertex u only when an interval first needs
them, so a closure that reaches V after a few pairs touches a few
vertices.  The kernel lives in a slot of the ``Graph`` it belongs to and
is freed with it.  The public functions take and return frozensets.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress

from .graph import Graph, GraphError


@dataclass(frozen=True)
class Block:
    """A vertex set F split into its border (members with a neighbor
    outside F) and interior (the rest)."""

    vertices: frozenset[int]
    border: frozenset[int]
    interior: frozenset[int]

    def validate(self, g: Graph) -> None:
        assert self.border | self.interior == self.vertices
        assert not (self.border & self.interior)
        for v in self.border:
            assert g.adj[v] - self.vertices
        for v in self.interior:
            assert not (g.adj[v] - self.vertices)


class IntervalKernel:
    """Toll intervals of one graph on int masks (bit v stands for vertex v).

    ``adj[v]`` is the mask of N(v) and ``full`` the mask of V.  The side of
    u, built on first use, maps each vertex v outside N[u] to the re-entry
    mask of the component C of G - N[u] holding v: C together with the
    neighbours of u adjacent to C.  Vertices of N[u] map to 0.  Then for
    non-adjacent x and y

        [x,y] = {x, y} | side(x)[y] & side(y)[x].

    Sides never change once built, so concurrent readers at worst build
    the same side twice.
    """

    __slots__ = ("adj", "full", "_sides")

    def __init__(self, g: Graph):
        self.adj = tuple(_mask_of(nb) for nb in g.adj)
        self.full = (1 << g.n) - 1
        self._sides: list[list[int] | None] = [None] * g.n

    def side(self, u: int) -> list[int]:
        got = self._sides[u]
        if got is None:
            got = self._sides[u] = self._build_side(u)
        return got

    def _build_side(self, u: int) -> list[int]:
        adj = self.adj
        side = [0] * len(adj)
        rest = self.full & ~(adj[u] | 1 << u)
        while rest:
            comp = frontier = rest & -rest
            # comp is a whole component of G - N[u], so its neighbours lie
            # in comp and N(u)
            touched = 0
            while frontier:
                rest ^= frontier
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                touched |= reach
                frontier = reach & rest
                comp |= frontier
            reentry = comp | touched
            for v in _members(comp):
                side[v] = reentry
        return side

    def flood(
        self, inside: int, frontier: int, until: int = 0
    ) -> tuple[int, int]:
        """Grow ``frontier``, a mask within ``inside``, to the union of its
        components in G[inside].  Returns that union and the union of its
        members' neighbourhoods.  A non-zero ``until`` stops the growth as
        soon as those neighbourhoods cover it, leaving the union partial."""
        adj = self.adj
        comp = touched = 0
        while frontier:
            comp |= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            touched |= reach
            if until and not until & ~touched:
                break
            frontier = reach & inside & ~comp
        return comp, touched

    def clique(self, mask: int) -> bool:
        """Every two vertices of the mask are adjacent."""
        adj = self.adj
        return all(mask & ~adj[v] == 1 << v for v in _members(mask))

    def connected(self, mask: int) -> bool:
        """The non-empty mask induces a connected subgraph."""
        return self.flood(mask, mask & -mask)[0] == mask

    def interval(self, x: int, y: int) -> int:
        """[x,y] as a mask; x and y must differ."""
        ends = 1 << x | 1 << y
        if self.adj[x] & 1 << y:
            return ends
        return ends | self.side(x)[y] & self.side(y)[x]

    def hull(self, mask: int) -> int:
        """The toll hull of a non-empty mask.  A worklist expands each pair
        of the growing set once, taking the new vertex against every vertex
        already expanded, and stops as soon as the set is ``full``."""
        queue = _members(mask)
        done = []
        for v in queue:
            before = mask
            for u in done:
                mask |= self.interval(u, v)
                if mask == self.full:
                    return mask
            queue.extend(_members(mask & ~before))
            done.append(v)
        return mask

    def concavity_witness(self, block: int, v0: int) -> int:
        """The first non-adjacent pair u < z outside the block whose
        interval holds v0, as ``1 << u | 1 << z``, or 0 when there is none.

        v0 must be an interior vertex of the block: it has no neighbour
        outside, so for outside u the side of u maps v0 to the component of
        G - N[u] holding it.  Pairs are tried by u, then by z, so the scan
        stops at the first pair that holds v0.  When the block's border is a
        clique and its interior connected, a pair exists exactly when the
        interior is not t-concave (see ``fast_concavity_test``).
        """
        outside = self.full & ~block
        for u in _members(outside):
            later = self.side(u)[v0] & outside & ~self.adj[u] & -(2 << u)
            while later:
                low = later & -later
                if self.side(low.bit_length() - 1)[v0] >> u & 1:
                    return 1 << u | low
                later ^= low
        return 0


def interval_kernel(g: Graph) -> IntervalKernel:
    """The kernel of g, kept on the graph so that it dies with it."""
    k = g._kernel
    if k is None:
        k = g._kernel = IntervalKernel(g)
    return k


def _mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _checked_mask(g: Graph, vertices) -> int:
    for v in vertices:
        g._check_vertex(v)
    return _mask_of(vertices)


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int) -> list[int]:
    """The vertices of a mask, ascending.  A mask that fits in a machine
    word gives up its bits one at a time; a wider one is read off its
    binary digits, which costs one pass in C instead of one big-int step
    per member."""
    if mask.bit_length() <= 64:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    digits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(range(len(digits)), digits))


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise GraphError("operation requires a connected graph")


def toll_interval(g: Graph, x: int, y: int) -> frozenset[int]:
    """All vertices on some tolled (x,y)-walk.

    Adjacent endpoints admit only the edge walk, so the interval is {x,y}.
    """
    g._check_vertex(x)
    g._check_vertex(y)
    if x == y:
        raise GraphError("toll interval endpoints must differ")
    _require_connected(g)
    if y in g.adj[x]:
        return frozenset({x, y})
    return frozenset(_members(interval_kernel(g).interval(x, y)))


def interval_of_set(g: Graph, s) -> frozenset[int]:
    """Union of toll intervals over all pairs of s; singletons map to
    themselves."""
    s = frozenset(s)
    if not s:
        raise GraphError("interval of the empty set is undefined")
    if len(s) == 1:
        return s
    _require_connected(g)
    out = _checked_mask(g, s)
    k = interval_kernel(g)
    for a, b in combinations(sorted(s), 2):
        out |= k.interval(a, b)
    return frozenset(_members(out))


def toll_hull(g: Graph, s) -> frozenset[int]:
    """Least t-convex superset of s: the fixpoint of the interval operator,
    computed by ``IntervalKernel.hull``."""
    s = frozenset(s)
    if not s:
        raise GraphError("hull of the empty set is undefined")
    _require_connected(g)
    k = interval_kernel(g)
    mask = k.hull(_checked_mask(g, s))
    return frozenset(range(g.n)) if mask == k.full else frozenset(_members(mask))


def is_t_convex(g: Graph, s) -> bool:
    """s is closed under toll intervals of its pairs.  The empty set and
    V are convex by convention."""
    _require_connected(g)
    s = frozenset(s)
    if len(s) <= 1 or len(s) == g.n:
        return True
    inside = _checked_mask(g, s)
    k = interval_kernel(g)
    return not any(
        k.interval(a, b) & ~inside for a, b in combinations(sorted(s), 2)
    )


def is_t_concave(g: Graph, s) -> bool:
    """The complement of s is t-convex."""
    return is_t_convex(g, frozenset(range(g.n)) - frozenset(s))


def _simplicial_mask(k: IntervalKernel) -> int:
    """Vertices whose neighbourhood is a clique.  Every other vertex v has
    non-adjacent neighbours a and b, and the walk a v b puts v in [a,b]."""
    return _mask_of(v for v, nb in enumerate(k.adj) if k.clique(nb))


def is_toll_extreme(g: Graph, v: int) -> bool:
    """{v} is t-concave: v lies in no toll interval of two other vertices."""
    g._check_vertex(v)
    return v in extreme_vertices(g)


def extreme_vertices(g: Graph) -> frozenset[int]:
    """All toll extreme vertices.

    Collected as the complement of the union of interval interiors over the
    non-adjacent pairs, starting from the non-simplicial vertices and
    stopping once every vertex is hit.
    """
    _require_connected(g)
    k = interval_kernel(g)
    hit = k.full & ~_simplicial_mask(k)
    for x in range(g.n):
        if hit == k.full:
            break
        sx = k.side(x)
        for y in _members(k.full & ~k.adj[x] & -(2 << x)):
            hit |= sx[y] & k.side(y)[x]
    return frozenset(_members(k.full & ~hit))


def make_block(g: Graph, f) -> Block:
    f = frozenset(f)
    border = frozenset(v for v in f if g.adj[v] - f)
    return Block(vertices=f, border=border, interior=f - border)


def fast_concavity_test(g: Graph, b: Block) -> bool:
    """Concavity of a block interior, for blocks whose border is a clique
    and whose interior induces a connected graph.

    Under those preconditions any tolled walk entering the interior has
    both endpoints outside the block and sweeps the whole interior, so a
    single interior vertex v0 decides for all: the interior fails to be
    t-concave exactly when v0 lies in the interval of some non-adjacent
    u, z outside the block.  The answer is a bool view of
    ``IntervalKernel.concavity_witness``, which looks for such a pair: at
    most O(n^2) mask tests, plus O(n) mask operations to build the kernel
    side of each outside vertex not built before.

    A block outside that scope raises ``GraphError``: the border is checked
    with ``Graph.is_clique``, and the interior's connectivity with one mask
    flood on the kernel (``IntervalKernel.connected``).
    """
    _require_connected(g)
    if not b.interior:
        raise GraphError("fast concavity test needs a non-empty interior")
    if not g.is_clique(b.border):
        raise GraphError("fast concavity test needs a clique border")
    k = interval_kernel(g)
    if not k.connected(_mask_of(b.interior)):
        raise GraphError("fast concavity test needs a connected interior")
    return not k.concavity_witness(_mask_of(b.vertices), min(b.interior))
