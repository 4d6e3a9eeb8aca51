"""Clique-separator decomposition into maximal prime subgraphs.

A connected graph either has no clique separator (it is prime) or splits
along clique minimal separators into a unique family of maximal prime
induced subgraphs, the atoms of the decomposition.  Atoms cover every
vertex and every edge, and two atoms meet in a clique.

The decomposition is the clique-minimal-separator scan of Berry,
Pogorelcnik & Simonet ("An introduction to clique minimal separator
decomposition", Algorithms 3, 2010).  A minimal elimination ordering
defines a minimal triangulation H of G, in which madj(x) is the set of
later-numbered neighbours of x.  The scan visits the vertices in
elimination order; whenever madj(x), cut down to the part not yet
removed, is a clique of G and a minimal separator of that part, the
component of x is cut off together with the separator.  The clique
minimal separators of G are exactly the minimal separators of H that are
cliques of G, whichever minimal triangulation H is, and the atoms they
cut out are unique; so any minimal elimination ordering gives the same
atoms.

The ordering here is MCS-M (Berry, Blair, Heggernes & Peyton, "Maximum
cardinality search for computing minimal triangulations of graphs",
Algorithmica 39, 2004).  It numbers the vertices from n down to 1, each
time taking an unnumbered vertex v of largest weight, and raises by one
the weight of every unnumbered u that v reaches along a path whose inner
vertices are unnumbered and lighter than u; each such u gains v in
madj(u).  Vertex sets are int masks on the graph's ``IntervalKernel``,
and the reach search floods the unnumbered vertices one weight level at a
time, lightest first, skipping the weights no unnumbered vertex has.
"""
from __future__ import annotations

from dataclasses import dataclass
from .convexity import Block, IntervalKernel, _members, interval_kernel, make_block
from .graph import Graph, GraphError


@dataclass(frozen=True)
class AtomDecomposition:
    """Atoms in deterministic order (smallest member, then size), with a
    per-atom extremal flag."""

    atoms: tuple[frozenset[int], ...]
    extremal_flags: tuple[bool, ...]

    def extremal(self) -> list[frozenset[int]]:
        return [a for a, f in zip(self.atoms, self.extremal_flags) if f]


def _mcs_m(k: IntervalKernel) -> tuple[list[int], list[int]]:
    """Minimal elimination ordering and the fill neighbourhoods it induces.

    Returns (order, madj): order[i] is the vertex numbered i (elimination
    runs from 1 to n), and madj[v] the mask of the higher-numbered
    neighbours of v in the triangulated graph.
    """
    adj = k.adj
    n = len(adj)
    level = [0] * (n + 1)  # level[w]: the unnumbered vertices of weight w
    level[0] = unnumbered = k.full
    occupied = 1  # bit w set when level[w] is not empty
    order = [0] * (n + 1)
    madj = [0] * n
    for i in range(n, 0, -1):
        top = occupied.bit_length() - 1
        low = level[top] & -level[top]
        level[top] ^= low
        if not level[top]:
            occupied ^= 1 << top
        unnumbered ^= low
        v = order[i] = low.bit_length() - 1

        # at weight w, the reached vertices of weight w are those next to v
        # or to the flood of lighter vertices; the flood then spreads
        # through every unnumbered vertex of weight at most w
        seen = adj[v]
        flooded = lighter = 0
        reached = []
        for w in _members(occupied):
            lighter |= level[w]
            hit = seen & level[w]
            if hit:
                reached.append((w, hit))
                comp, touched = k.flood(lighter & ~flooded, hit)
                flooded |= comp
                seen |= touched
            if not seen & unnumbered & ~lighter:
                break
        updated = 0
        for w, hit in reversed(reached):
            level[w] ^= hit
            if not level[w]:
                occupied ^= 1 << w
            level[w + 1] |= hit
            occupied |= 2 << w
            updated |= hit
        for u in _members(updated):
            madj[u] |= low
    return order, madj


def atoms(g: Graph) -> AtomDecomposition:
    """The unique family of maximal prime induced subgraphs."""
    if g.n == 0:
        raise GraphError("decomposition of the empty graph is undefined")
    if not g.is_connected():
        raise GraphError("decomposition requires a connected graph")
    k = interval_kernel(g)
    order, madj = _mcs_m(k)
    alive = k.full
    found: list[int] = []
    for x in order[1:]:
        if not alive >> x & 1:
            continue
        sep = madj[x] & alive
        if not sep or not k.clique(sep):
            continue
        comp = _cut(k, alive, sep, x)
        if comp:
            found.append(comp | sep)
            alive ^= comp
    found.append(alive)
    ordered = sorted((_members(a), a) for a in found)
    flags = _extremal_flags(g.n, ordered)
    return AtomDecomposition(
        atoms=tuple(frozenset(vs) for vs, _ in ordered), extremal_flags=flags
    )


def _cut(k: IntervalKernel, alive: int, sep: int, x: int) -> int:
    """The component of x in alive - sep when sep is a minimal separator of
    g[alive], that is, when at least two components of alive - sep see
    every separator vertex; otherwise 0."""
    rest = alive & ~sep
    own, touched = k.flood(rest, 1 << x)
    full = not sep & ~touched
    rest ^= own
    # a full component holds a neighbour of every separator vertex, so only
    # the components next to one of them are grown; once one full
    # component is known, the next flood stops as soon as it proves full
    anchor = k.adj[(sep & -sep).bit_length() - 1]
    while full < 2 and anchor & rest:
        seed = anchor & rest
        comp, touched = k.flood(rest, seed & -seed, sep if full else 0)
        full += not sep & ~touched
        rest ^= comp
    return own if full >= 2 else 0


def _extremal_flags(n: int, ordered: list[tuple[list[int], int]]) -> tuple[bool, ...]:
    """An atom F is extremal when a single other atom F' swallows the union
    of F's intersections with everything else.

    That union is the part of F lying in two or more atoms, and every atom
    swallowing it holds its least vertex, so only the atoms through that
    vertex are tried.  In a connected graph with two or more atoms each
    atom meets another, so the union is never empty.
    """
    if len(ordered) < 2:
        return tuple(False for _ in ordered)
    once = twice = 0
    through: list[list[int]] = [[] for _ in range(n)]
    for vs, a in ordered:
        twice |= once & a
        once |= a
        for v in vs:
            through[v].append(a)
    flags = []
    for vs, a in ordered:
        shared = a & twice
        least = (shared & -shared).bit_length() - 1
        flags.append(any(b != a and not shared & ~b for b in through[least]))
    return tuple(flags)


def is_prime(g: Graph) -> bool:
    """True when no clique separates the graph."""
    return len(atoms(g).atoms) == 1


def extremal_atoms(d: AtomDecomposition) -> list[frozenset[int]]:
    if len(d.atoms) < 2:
        raise GraphError("extremal atoms are defined only for reducible graphs")
    return d.extremal()


def block_of(g: Graph, f) -> Block:
    """Border/interior split of an arbitrary vertex set."""
    f = frozenset(f)
    for v in f:
        g._check_vertex(v)
    return make_block(g, f)
