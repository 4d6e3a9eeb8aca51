"""Clique-separator decomposition into maximal prime subgraphs.

A connected graph either has no clique separator (it is prime) or splits
along clique minimal separators into a unique family of maximal prime
induced subgraphs, the atoms of the decomposition.  Atoms cover every
vertex and every edge, and two atoms meet in a clique.

The decomposition is the algorithm Atoms of Berry, Pogorelcnik & Simonet
("An introduction to clique minimal separator decomposition", Algorithms
3, 2010).  A minimal elimination ordering defines a minimal
triangulation H of G, in which madj(x) is the set of later-numbered
neighbours of x.  The clique minimal separators of G are exactly the
minimal separators of H that are cliques of G, whichever minimal
triangulation H is, and the atoms they cut out are unique; so any minimal
elimination ordering gives the same atoms.  The paper's MCS-M+ marks as a
generator each vertex x numbered with a weight no larger than that of the
vertex numbered just before it, and the minimal separators of H are the
sets madj(x) of the generators.  The Atoms step then visits the vertices
in elimination order with G' = G at the start: for a generator x whose
S = madj(x) is a clique of G, let C be the component of G' - S holding x;
G'(S + C) is an atom, and G' becomes G' - C.  What stays of G' at the end
is the last atom.

A vertex weighs |madj(x)| when it is numbered: MCS-M adds v to madj(u)
exactly when it raises u by one, and never raises a numbered vertex.
The step needs no test of what is left of G'.  C lies at or before x in
the ordering, since a path from x to a later vertex that avoids madj(x)
shortens at its earliest inner vertex, whose madj is a clique of H, to
an edge of H from x to a later vertex, which madj(x) holds.  And madj(x)
lies after x, so no cut reaches a later generator or its separator.

The ordering here is MCS-M (Berry, Blair, Heggernes & Peyton, "Maximum
cardinality search for computing minimal triangulations of graphs",
Algorithmica 39, 2004).  It numbers the vertices from n down to 1, each
time taking an unnumbered vertex v of largest weight, and raises by one
the weight of every unnumbered u that v reaches along a path whose inner
vertices are unnumbered and lighter than u; each such u gains v in
madj(u).  Vertex sets are int masks on the graph's ``IntervalKernel``,
and the reach search floods the unnumbered vertices one weight level at a
time, lightest first, skipping the weights no unnumbered vertex has.

The flood at level w decides nothing at w itself: it only grows the set
seen from v, the vertices next to v or to a flooded vertex, which decides
the hits at the heavier levels.  A heavier vertex once seen is next to v
or to a flooded vertex lighter than itself, so it is hit whatever the
walk floods later.  The walk therefore floods only while some unnumbered
vertex heavier than w is not yet seen, each flood stops as soon as all
of them are, and from then on each heavier level is reached whole.  At
the heaviest level nothing is heavier, so its flood is skipped.  Both
stops give the hits of the full walk.

MCS-M stops as soon as no unnumbered vertex can still cut.  It only ever
adds to the madj of an unnumbered vertex u, so once madj(u) holds two
vertices that are not adjacent in G, madj(u) is never a clique of G and
u cuts nothing, whatever number it takes.  Such a u is dead: it dies when
the v joining madj(u) misses a vertex already there, and MCS-M stops when
every unnumbered vertex is dead.  The vertices it leaves unnumbered would
take the lowest numbers, so the Atoms step visits them first; as they cut
nothing, G' is still G when the step reaches the numbered vertices, whose
numbers, madj and generator tests are those of the full run.  Every cut,
and so every atom, stays the same.  On sparse prime graphs the stop comes
early: on the benchmark's connected G(n, 0.1) inputs of n = 200-400
(seeds 1, 2, 3 and 7) it numbers 54 to 87 vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from .convexity import IntervalKernel, interval_kernel
from .graph import Graph, GraphError, _members


@dataclass(frozen=True)
class AtomDecomposition:
    """Atoms in deterministic order (smallest member, then size), with a
    per-atom extremal flag."""

    atoms: tuple[frozenset[int], ...]
    extremal_flags: tuple[bool, ...]


def _mcs_m(k: IntervalKernel) -> tuple[list[int], list[int]]:
    """Minimal elimination ordering and the fill neighbourhoods it induces,
    up to the stop.

    Returns (order, madj): order lists the numbered vertices in elimination
    order, lowest number first, and madj[v] is the mask of the
    higher-numbered neighbours of a numbered v in the triangulated graph.
    The vertices left unnumbered would take the numbers below order[0], and
    each one's madj already holds two vertices that are not adjacent in G.
    """
    adj = k.adj
    n = len(adj)
    level = [0] * (n + 1)  # level[w]: the unnumbered vertices of weight w
    level[0] = unnumbered = k.full
    occupied = 1  # bit w set when level[w] is not empty
    dead = 0  # the vertices whose madj is not a clique of G
    order = []
    madj = [0] * n
    while unnumbered & ~dead:
        top = occupied.bit_length() - 1
        low = level[top] & -level[top]
        level[top] ^= low
        if not level[top]:
            occupied ^= 1 << top
        unnumbered ^= low
        v = low.bit_length() - 1
        order.append(v)

        # at weight w, the reached vertices of weight w are those next to v
        # or to the flood of lighter vertices; the flood then spreads
        # through the unnumbered vertices of weight at most w until it
        # sees the heavier vertices missed so far, the only ones it can
        # still turn into hits
        seen = adj[v]
        flooded = lighter = 0
        reached = []
        for w in _members(occupied):
            lighter |= level[w]
            heavier = unnumbered & ~lighter
            hit = seen & level[w]
            if hit:
                reached.append((w, hit))
                if heavier & ~seen:
                    comp, touched = k.flood(lighter & ~flooded, hit, heavier & ~seen)
                    flooded |= comp
                    seen |= touched
            if not heavier & ~seen:
                # every heavier vertex is seen, so each heavier level is
                # reached whole, and the partial flood is never read again
                reached += [(u, level[u]) for u in _members(occupied & -(2 << w))]
                break
            if not heavier & seen:
                break
        updated = 0
        for w, hit in reversed(reached):
            level[w] ^= hit
            if not level[w]:
                occupied ^= 1 << w
            level[w + 1] |= hit
            occupied |= 2 << w
            updated |= hit
        apart = ~adj[v]
        for u in _members(updated):
            if madj[u] & apart:
                dead |= 1 << u
            madj[u] |= low
    order.reverse()
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
    # x is a generator when it weighs no more than y, numbered just before
    for x, y in zip(order, order[1:]):
        sep = madj[x]
        if sep.bit_count() <= madj[y].bit_count() and k.clique(sep):
            comp, _ = k.flood(alive & ~sep, 1 << x)
            found.append(comp | sep)
            alive ^= comp
    found.append(alive)
    ordered = sorted((_members(a), a) for a in found)
    flags = _extremal_flags(g.n, ordered)
    return AtomDecomposition(
        atoms=tuple(frozenset(vs) for vs, _ in ordered), extremal_flags=flags
    )


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
