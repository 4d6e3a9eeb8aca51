"""Immutable simple-graph core.

Vertices are dense 0-based integers; external labels are kept only for
I/O.  A graph is one adjacency mask per vertex, ``masks[v]`` with bit w
set when w is a neighbour of v, built straight from the edges or the
parsed text; everything else is derived from the masks.  Graphs are
frozen after construction, so every operation here is a pure read and
safe to call concurrently.  Two slots are filled on first use: ``adj``,
the neighbourhoods as frozensets, for the oracles and the public
accessors, and ``_kernel``, the toll-interval kernel that ``convexity``
builds on the masks.  Both are caches of values derived from the masks.
"""
from __future__ import annotations

import random
from itertools import combinations, compress
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph input or operation argument."""


class ParseError(GraphError):
    """Malformed graph text."""


class SizeLimitError(GraphError):
    """A brute-force guard was exceeded."""


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


class Graph:
    """Finite simple undirected graph, one adjacency mask per vertex.

    Invariants: adjacency is symmetric, there are no self-loops, and vertex
    identifiers are exactly 0..n-1.  ``masks`` is the one representation;
    ``adj``, the neighbourhoods as frozensets, is built from it on first
    read.
    """

    __slots__ = ("n", "masks", "labels", "m", "_adj", "_connected", "_kernel", "__weakref__")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.m = sum(map(int.bit_count, masks)) // 2
        self.masks: tuple[int, ...] = tuple(masks)
        if labels is None:
            self.labels: tuple[str, ...] = tuple(map(str, range(n)))
        else:
            if len(labels) != n:
                raise GraphError("label table size mismatch")
            self.labels = tuple(map(str, labels))
        self._adj: tuple[frozenset[int], ...] | None = None
        self._connected: bool | None = None
        self._kernel = None

    # -- basic accessors ------------------------------------------------

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        """N(v) for every v, as frozensets, built from the masks on first
        read."""
        if self._adj is None:
            self._adj = tuple(frozenset(_members(m)) for m in self.masks)
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v)."""
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        return [
            (u, v) for u, mask in enumerate(self.masks) for v in _members(mask & -(2 << u))
        ]

    def id_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise GraphError(f"unknown vertex label {label!r}") from None

    def _check_vertex(self, *vs: int) -> None:
        for v in vs:
            if not (0 <= v < self.n):
                raise GraphError(f"vertex {v} out of range for n={self.n}")

    def is_connected(self) -> bool:
        """One flood of the graph's toll-interval kernel from vertex 0."""
        if self._connected is None:
            from .convexity import interval_kernel  # convexity imports graph

            k = interval_kernel(self)
            self._connected = k.connected(k.full)
        return self._connected

    # -- local structure -------------------------------------------------

    def is_clique(self, s: Iterable[int]) -> bool:
        """Every two members adjacent; the empty set and singletons qualify."""
        vs = sorted(set(s))
        self._check_vertex(*vs)
        adj = self.adj
        return all(b in adj[a] for a, b in combinations(vs, 2))

    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the new-id -> old-id table."""
        old = sorted(set(vertices))
        self._check_vertex(*old)
        index = {o: i for i, o in enumerate(old)}
        adj = self.adj
        edges = [(index[u], index[v]) for u in old for v in adj[u] if u < v and v in index]
        return Graph(len(old), edges, [self.labels[o] for o in old]), old

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- parsing and serialization -------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines; '#' starts a comment line.

    Labels are arbitrary non-whitespace tokens, mapped to dense ids in
    first-appearance order.  Duplicate edges merge silently; self-loops are
    errors.
    """
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pair = raw.split()
        # an edge first; any other line is blank, a comment or an error
        if len(pair) == 2 and pair[0] != pair[1] and pair[0][0] != "#":
            tokens += pair
        elif pair and pair[0][0] != "#":
            if len(pair) != 2:
                raise ParseError(f"line {lineno}: expected two vertex tokens, got {len(pair)}")
            raise ParseError(f"line {lineno}: self-loop on {pair[0]!r}")
    if not tokens:
        raise ParseError("empty edge list")
    ids = {label: i for i, label in enumerate(dict.fromkeys(tokens))}
    ends = map(ids.__getitem__, tokens)  # zipped with itself: the edges
    return Graph(len(ids), zip(ends, ends), list(ids))


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


_G6_HEADER = ">>graph6<<"
_G6_BITS = {chr(v + 63): format(v, "06b") for v in range(64)}


def _g6_bits(chars: str) -> str:
    """The six bits of each graph6 byte, most significant first."""
    try:
        return "".join([_G6_BITS[c] for c in chars])
    except KeyError:
        raise ParseError("invalid graph6 byte") from None


def _g6_decode_n(data: str) -> tuple[int, int]:
    """Return (n, chars consumed) from the size prefix: one byte, or "~"
    and three, or "~~" and six."""
    if not data:
        raise ParseError("empty graph6 string")
    tildes = 0 if data[0] != "~" else 1 if data[1:2] != "~" else 2
    used = tildes + (1, 3, 6)[tildes]
    if len(data) < used:
        raise ParseError("truncated graph6 size")
    return int(_g6_bits(data[tildes:used]), 2), used


def parse_graph6(line: str) -> Graph:
    """Parse one graph in standard graph6 encoding (optional header allowed)."""
    data = line.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise ParseError("empty graph6 line")
    n, used = _g6_decode_n(data)
    body = data[used:]
    nbytes = (n * (n - 1) // 2 + 5) // 6
    if len(body) != nbytes:
        raise ParseError(f"graph6 body length {len(body)}, expected {nbytes} for n={n}")
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return Graph(n, [pair for pair, bit in zip(pairs, _g6_bits(body)) if bit == "1"])


def to_graph6(g: Graph) -> str:
    """Standard graph6 encoding (no header), bit-exact."""
    n = g.n
    prefix, width = ("", 6) if n <= 62 else ("~", 18) if n <= 258047 else ("~~", 36)
    # the pairs (i, j), i < j, by j and then i: the low j bits of each
    # mask j, least significant first
    bits = format(n, f"0{width}b") + "".join(
        format(g.masks[j] & (1 << j) - 1, f"0{j}b")[::-1] for j in range(1, n)
    )
    bits += "0" * (-len(bits) % 6)
    return prefix + "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))


def parse_graph6_file(text: str) -> list[Graph]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line:
            out.append(parse_graph6(line))
    return out


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    """Parse a single graph in the declared format.  A graph6 text holding
    more than one graph is an error; ``parse_graph6_file`` (and the
    ``verify`` command) read one graph per line."""
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "graph6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty graph6 input")
        if len(lines) > 1:
            raise ParseError(
                f"graph6 input holds {len(lines)} graphs, expected one; "
                "use `tollhull verify` to sweep several"
            )
        return parse_graph6(lines[0])
    raise GraphError(f"unknown format {fmt!r}")


# -- generators ------------------------------------------------------------


def generate(model: str, n: int, parameter: float | None = None, seed: int = 0) -> Graph:
    """Deterministic test-graph generator.

    Models: "gnp" (each pair an edge with probability p), "random-tree"
    (uniform labeled tree via a random code sequence; "tree" is accepted as
    an alias), "complete", "cycle".
    """
    if n < 0:
        raise GraphError("n must be non-negative")
    rng = random.Random(seed)
    if model == "gnp":
        if parameter is None or not (0.0 <= parameter <= 1.0):
            raise GraphError("gnp needs a probability parameter in [0,1]")
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < parameter
        ]
        return Graph(n, edges)
    if model in ("random-tree", "tree"):
        return _random_tree(n, rng)
    if model == "complete":
        return Graph(n, combinations(range(n), 2))
    if model == "cycle":
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    raise GraphError(f"unknown model {model!r}")


def _random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree from a random sequence (classic code decoding)."""
    if n == 0:
        return Graph(0)
    if n == 1:
        return Graph(1)
    if n == 2:
        return Graph(2, [(0, 1)])
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def is_tree(g: Graph) -> bool:
    return g.is_connected() and g.m == g.n - 1


def is_caterpillar(g: Graph) -> bool:
    """Tree test: does removing every leaf leave a (possibly empty) path?"""
    if not is_tree(g):
        raise GraphError("caterpillar test requires a tree")
    spine = [v for v in range(g.n) if g.degree(v) > 1]
    if not spine:
        return True
    spine_mask = sum(1 << v for v in spine)
    # The leaf-stripped subtree is a path iff no spine vertex keeps degree > 2.
    return all((g.masks[v] & spine_mask).bit_count() <= 2 for v in spine)


# -- named fixtures ---------------------------------------------------------

_G12_EDGES = (
    "v1 v2", "v1 v3", "v2 v3", "v4 v1", "v4 v2", "v4 v3",
    "v5 v1", "v5 v2", "v5 v3", "v5 v4",
    "v6 v4", "v6 v5", "v7 v4", "v7 v5", "v7 v6",
    "v8 v6", "v8 v7", "v9 v6", "v9 v7", "v9 v8",
    "v10 v8", "v10 v9", "v10 v11", "v11 v12", "v12 v8", "v12 v9",
)

_THETA7_EDGES = (
    "s t", "s z1", "z1 z2", "z2 t", "s p", "p r", "r q", "q t",
)


def g12() -> Graph:
    """Twelve-vertex chain of two K5-ish end blocks and two K4 middles."""
    return parse_edge_list("\n".join(_G12_EDGES))


def theta7() -> Graph:
    """Two chordless (s,t)-paths of inner lengths 2 and 3 plus the edge st."""
    return parse_edge_list("\n".join(_THETA7_EDGES))


def k4() -> Graph:
    g = generate("complete", 4)
    return Graph(4, g.edges(), [f"v{i + 1}" for i in range(4)])


def c5() -> Graph:
    return Graph(5, [(i, (i + 1) % 5) for i in range(5)], list("abcde"))


def star3() -> Graph:
    """K_{1,3}: center c with leaves x, y, z."""
    return Graph(4, [(0, 1), (0, 2), (0, 3)], ["c", "x", "y", "z"])


_FIXTURES = {"G12": g12, "THETA7": theta7, "K4": k4, "C5": c5, "STAR3": star3}


def fixture(name: str) -> Graph:
    try:
        return _FIXTURES[name]()
    except KeyError:
        raise GraphError(f"unknown fixture {name!r}") from None
