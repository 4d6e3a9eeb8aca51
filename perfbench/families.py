"""Seeded generators for the benchmark's graph families.

Each generator takes a vertex count and a ``random.Random`` and returns the
edges of a connected graph on exactly that many vertices, with vertices
0..n-1.  ``edge_text`` then hides the construction order behind a random
relabelling, so the program sees only the text of a graph.
"""
from __future__ import annotations

import random

from tollhull.graph import generate

Edges = list[tuple[int, int]]


def random_tree(n: int, rng: random.Random) -> Edges:
    """Uniform labelled tree, drawn by ``tollhull.graph.generate``."""
    return generate("random-tree", n, seed=rng.randrange(2**32)).edges()


def caterpillar(n: int, rng: random.Random) -> Edges:
    """A spine path of n/4 to n/2 vertices; each remaining vertex is a leaf
    hung on a random spine vertex."""
    spine = rng.randint(max(2, n // 4), max(2, n // 2))
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(v, rng.randrange(spine)) for v in range(spine, n)]
    return edges


def cactus(n: int, rng: random.Random) -> Edges:
    """Cycles of length 3 to 8, and now and then a bridge, each hung on a
    random vertex already placed: every block is a cycle or an edge."""
    edges: Edges = []
    count = 1
    while count < n:
        at = rng.randrange(count)
        left = n - count
        length = rng.randint(3, 8) if rng.random() < 0.85 else 2
        length = min(length, left + 1)
        if length == 2:
            edges.append((at, count))
        else:
            ring = [at] + list(range(count, count + length - 1))
            edges += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
        count += length - 1
    return edges


def two_tree(n: int, rng: random.Random) -> Edges:
    """From one edge, each new vertex joins both ends of a random edge."""
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = edges[rng.randrange(len(edges))]
        edges += [(a, v), (b, v)]
    return edges


def _prime_block(vs: list[int], rng: random.Random) -> Edges:
    """A cycle, a wheel or a complete bipartite graph K_{a,b} with
    a, b >= 2 on the vertices ``vs`` (at least four): none of them has a
    clique separator."""
    k = len(vs)
    kind = rng.choice(("cycle", "wheel", "bipartite") if k >= 5 else ("cycle", "bipartite"))
    if kind == "cycle":
        return [(vs[i], vs[(i + 1) % k]) for i in range(k)]
    if kind == "wheel":
        hub, rim = vs[0], vs[1:]
        return [(hub, r) for r in rim] + [(rim[i], rim[(i + 1) % (k - 1)]) for i in range(k - 1)]
    a = rng.randint(2, k - 2)
    return [(x, y) for x in vs[:a] for y in vs[a:]]


def prime_chain(n: int, rng: random.Random) -> Edges:
    """Prime blocks of 4 to 12 vertices in a chain: each block is glued at
    one vertex of the block before it, never at that block's own glue
    vertex, so every block holds at most two cut vertices."""
    if n < 4:
        raise ValueError("a chain of prime blocks needs n >= 4")
    edges: Edges = []
    glue, prev_glue, count = 0, None, 1
    while count < n:
        left = n - count
        sizes = [k for k in range(4, 13) if left - (k - 1) == 0 or left - (k - 1) >= 3]
        k = rng.choice(sizes)
        block = [glue] + list(range(count, count + k - 1))
        rng.shuffle(block)
        edges += _prime_block(block, rng)
        count += k - 1
        prev_glue = glue
        glue = rng.choice([v for v in block if v != prev_glue])
    return edges


def connected_gnp(n: int, p: float, rng: random.Random) -> Edges:
    """A connected G(n, p) graph from ``tollhull.graph.generate``; seeds are
    drawn until one gives a connected graph."""
    while True:
        g = generate("gnp", n, p, seed=rng.randrange(2**32))
        if g.is_connected():
            return g.edges()


FAMILIES = {
    "tree": random_tree,
    "caterpillar": caterpillar,
    "cactus": cactus,
    "2-tree": two_tree,
    "prime-chain": prime_chain,
}


def edge_text(n: int, edges: Edges, rng: random.Random) -> str:
    """Edge-list text under a random relabelling and a random edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [f"{perm[u]} {perm[v]}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"
