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
vertex sets as int masks, bit v standing for vertex v, takes the graph's
own adjacency masks as they are (nothing here builds the derived
frozensets of ``Graph.adj``), and builds the components of G - N[u] for
a vertex u only when an interval first needs them, so a closure that
reaches V after a few pairs touches a few vertices.  The kernel lives in a slot of the ``Graph`` it belongs to and
is freed with it.  It also splits a vertex set into its border (the
vertices with a neighbour outside the set) and interior, the split the
solver and the fast concavity test share.  The public functions take and
return frozensets.
"""
from __future__ import annotations

from .graph import Graph, GraphError, _members


class IntervalKernel:
    """Toll intervals of one graph on int masks (bit v stands for vertex v).

    ``adj`` is the graph's own ``masks``, so ``adj[v]`` is the mask of
    N(v), and ``full`` is the mask of V.  ``flood`` is the package's one
    connected-components routine: ``Graph.is_connected`` and ``check``'s
    separation test run it too.  The side of u, built on first use, maps
    each vertex v outside N[u] to the re-entry mask of the component C of
    G - N[u] holding v: C together with the neighbours of u adjacent to C.
    Vertices of N[u] map to 0.  Then for non-adjacent x and y

        [x,y] = {x, y} | side(x)[y] & side(y)[x].

    Sides never change once built, so concurrent readers at worst build
    the same side twice.
    """

    __slots__ = ("adj", "full", "_sides")

    def __init__(self, g: Graph):
        self.adj = g.masks
        self.full = (1 << g.n) - 1
        self._sides: list[list[int] | None] = [None] * g.n

    def side(self, u: int) -> list[int]:
        got = self._sides[u]
        if got is None:
            got = self._sides[u] = self._build_side(u)
        return got

    def _build_side(self, u: int) -> list[int]:
        side = [0] * len(self.adj)
        rest = self.full & ~(self.adj[u] | 1 << u)
        while rest:
            # comp is a whole component of G - N[u], so its neighbours lie
            # in comp and N(u)
            comp, touched = self.flood(rest, rest & -rest)
            reentry = comp | touched
            for v in _members(comp):
                side[v] = reentry
            rest &= ~comp
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
        """Every two vertices of the mask are adjacent.  Each vertex is
        checked against the later ones, so the walk stops at the first
        vertex with a non-neighbour among them."""
        adj = self.adj
        while mask:
            low = mask & -mask
            mask ^= low
            if mask & ~adj[low.bit_length() - 1]:
                return False
        return True

    def border(self, mask: int) -> int:
        """The vertices of the mask with a neighbour outside it; the rest of
        the mask is its interior."""
        adj, outside = self.adj, ~mask
        out, rest = 0, mask
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & outside:
                out |= low
            rest ^= low
        return out

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
        """The toll hull of a mask, 0 for 0.  A worklist expands each pair
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
        stops at the first pair that holds v0.  Once it has tried as many
        pairs as there are outside vertices without a hit, ``_pair_exists``
        decides in one pass whether any pair is left to find; if none is,
        the answer is 0, and otherwise the scan goes on to the first one.
        When the block's border is a clique and its interior connected, a
        pair exists exactly when the interior is not t-concave (see
        ``fast_concavity_test``).
        """
        outside = self.full & ~block
        budget = outside.bit_count()
        for u in _members(outside):
            later = self.side(u)[v0] & outside & ~self.adj[u] & -(2 << u)
            while later:
                low = later & -later
                if self.side(low.bit_length() - 1)[v0] >> u & 1:
                    return 1 << u | low
                later ^= low
                budget -= 1
                if not budget and not self._pair_exists(outside, v0):
                    return 0
        return 0

    def _pair_exists(self, outside: int, v0: int) -> bool:
        """Some non-adjacent pair of the ``outside`` mask has an interval
        holding v0, which must have no neighbour in ``outside``.

        For outside x let F(x) be the component of G - N[x] holding v0.
        Take non-adjacent outside u and z.

        1. v0 lies in [u,z] exactly when z is in F(u) and u in F(z), since
           v0 is in neither N[u] nor N[z].
        2. If z is not in F(u), then F(u) is within F(z).  Were some w of
           F(u) outside F(z), a path from w to v0 within F(u) would meet
           N[z], at some q other than z; then z, q and the rest of the
           path reach v0 avoiding N[u], so z would be in F(u).
        3. So {u,z} is a pair exactly when F(u) and F(z) are incomparable.
           A pair cannot nest, since x is never in F(x).

        The pass takes the outside vertices by |F(x)|, largest first, and
        reports a pair as soon as some F(x) holds a vertex y taken before
        x.  Then y is not adjacent to x; F(x) is not within F(y), which
        misses y; and F(y) is not within F(x), being at least as large and
        different.  So {x,y} is a pair.  Conversely every pair is caught
        when its later member is taken.  The cost is one sort and
        O(|outside|) mask operations, besides the sides not built yet.
        """
        reach = sorted(
            ((self.side(x)[v0] & ~self.adj[x], x) for x in _members(outside)),
            key=lambda fx: fx[0].bit_count(),
            reverse=True,
        )
        taken = 0
        for f, x in reach:
            if f & taken:
                return True
            taken |= 1 << x
        return False


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
    g._check_vertex(*vertices)
    return _mask_of(vertices)


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise GraphError("operation requires a connected graph")


def toll_interval(g: Graph, x: int, y: int) -> frozenset[int]:
    """All vertices on some tolled (x,y)-walk.

    Adjacent endpoints admit only the edge walk, so the interval is {x,y}.
    """
    g._check_vertex(x, y)
    if x == y:
        raise GraphError("toll interval endpoints must differ")
    _require_connected(g)
    return frozenset(_members(interval_kernel(g).interval(x, y)))


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
    """s is closed under toll intervals of its pairs: it is its own hull.
    The empty set and V are convex by convention."""
    _require_connected(g)
    mask = _checked_mask(g, frozenset(s))
    return interval_kernel(g).hull(mask) == mask


def is_t_concave(g: Graph, s) -> bool:
    """The complement of s is t-convex."""
    _require_connected(g)
    k = interval_kernel(g)
    rest = k.full & ~_checked_mask(g, frozenset(s))
    return k.hull(rest) == rest


def is_toll_extreme(g: Graph, v: int) -> bool:
    """{v} is t-concave: v lies in no toll interval of two other vertices.

    The rule, which ``extreme_vertices`` applies to every vertex: v is
    simplicial and no pair outside N[v] holds v.  A non-simplicial v has
    non-adjacent neighbours a and b, and the walk a v b puts v in [a,b].
    For a simplicial v no end x in N(v) can reach v, since N(v) lies in
    N[x] and so deleting N[x] - {v} isolates v.  Every pair whose interval
    holds v therefore lies outside N[v], in which v is an interior vertex,
    and ``IntervalKernel.concavity_witness`` on the block N[v] looks for
    exactly those pairs.
    """
    g._check_vertex(v)
    _require_connected(g)
    return _extreme(interval_kernel(g), v)


def extreme_vertices(g: Graph) -> frozenset[int]:
    """All toll extreme vertices: the rule of ``is_toll_extreme``, asked
    once per vertex."""
    _require_connected(g)
    k = interval_kernel(g)
    return frozenset(v for v in range(g.n) if _extreme(k, v))


def _extreme(k: IntervalKernel, v: int) -> bool:
    """The rule of ``is_toll_extreme`` on the kernel."""
    nb = k.adj[v]
    return k.clique(nb) and not k.concavity_witness(nb | 1 << v, v)


def fast_concavity_test(g: Graph, vertices) -> bool:
    """Concavity of the interior of a block, the given vertex set, for
    blocks whose border is a clique and whose interior induces a connected
    graph.  The border is the set of block vertices with a neighbour
    outside the block (``IntervalKernel.border``), the interior the rest.

    Under those preconditions any tolled walk entering the interior has
    both endpoints outside the block and sweeps the whole interior, so a
    single interior vertex v0 decides for all: the interior fails to be
    t-concave exactly when v0 lies in the interval of some non-adjacent
    u, z outside the block.  The answer is a bool view of
    ``IntervalKernel.concavity_witness``, which looks for such a pair.  A
    concave verdict costs at most as many pair tests as there are outside
    vertices and one sort with O(n) mask operations; a refuted one stops at
    its first pair, after O(n^2) pair tests at worst.  Either adds O(n)
    mask operations to build the kernel side of each outside vertex not
    built before.

    A block outside that scope raises ``GraphError``, as does a vertex out
    of range.  The preconditions are checked on masks: the border with
    ``IntervalKernel.clique``, the interior with one flood
    (``IntervalKernel.connected``).
    """
    _require_connected(g)
    block = _checked_mask(g, frozenset(vertices))
    k = interval_kernel(g)
    border = k.border(block)
    interior = block & ~border
    if not interior:
        raise GraphError("fast concavity test needs a non-empty interior")
    if not k.clique(border):
        raise GraphError("fast concavity test needs a clique border")
    if not k.connected(interior):
        raise GraphError("fast concavity test needs a connected interior")
    return not k.concavity_witness(block, (interior & -interior).bit_length() - 1)
