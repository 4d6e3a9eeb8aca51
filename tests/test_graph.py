import random

import pytest
from hypothesis import given, strategies as st

from conftest import DATA_DIR, components, connected_graphs, is_simplicial, random_trees, vids
from tollhull.convexity import _mask_of, _members, interval_kernel
from tollhull.graph import (
    Graph,
    GraphError,
    ParseError,
    _g6_decode_n,
    c5,
    fixture,
    g12,
    generate,
    is_caterpillar,
    is_tree,
    k4,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    star3,
    theta7,
    to_edge_list,
    to_graph6,
)


def test_parse_simple_edge_list():
    g = parse_edge_list("a b\nb c")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.labels == ("a", "b", "c")


def test_parse_comments_and_duplicates():
    g = parse_edge_list("# header\na b\n\nb a\na c\n")
    assert g.n == 3
    assert g.m == 2  # duplicate a-b merged silently


def test_parse_rejects_self_loop():
    with pytest.raises(ParseError):
        parse_edge_list("a a")


def test_parse_rejects_empty():
    with pytest.raises(ParseError):
        parse_edge_list("# only a comment\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ParseError):
        parse_edge_list("a b c")


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph(2, [(1, 1)])


def test_fig_fixture_shape():
    g = g12()
    assert g.n == 12 and g.m == 26
    assert g.labels[0] == "v1"


def test_fig_neighborhoods():
    g = g12()
    assert g.neighbors(g.id_of("v11")) == vids(g, "v10 v12")
    assert g.neighbors(g.id_of("v5")) == vids(g, "v1 v2 v3 v4 v6 v7")
    assert g.degree(g.id_of("v11")) == 2


def test_isolated_vertex_neighborhoods():
    g = Graph(1)
    assert g.neighbors(0) == frozenset()
    assert g.degree(0) == 0 and g.masks == (0,)


def test_neighbors_out_of_range():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    cycle = c5()
    # a negative vertex must not be read through Python's negative indexing
    for call in (
        lambda: Graph(3).neighbors(3),
        lambda: star.degree(-1),
        lambda: star.degree(99),
        lambda: star.is_clique({-1, 0}),
        lambda: cycle.subgraph({-1, 0}),
        lambda: cycle.subgraph({99}),
    ):
        with pytest.raises(GraphError):
            call()


def flood_components(g, removed=()) -> list[frozenset]:
    """The components of G minus ``removed`` by the kernel's flood, the
    package's one components routine, ascending by least member."""
    k = interval_kernel(g)
    rest, out = k.full & ~_mask_of(removed), []
    while rest:
        comp, _ = k.flood(rest, rest & -rest)
        out.append(frozenset(_members(comp)))
        rest &= ~comp
    return out


def separates(g, s, u, v) -> bool:
    """A (u,v)-path exists in G but none survives deleting s, by kernel
    floods from u."""
    k = interval_kernel(g)

    def joined(inside):
        return k.flood(inside, 1 << u)[0] >> v & 1

    return bool(joined(k.full)) and not joined(k.full & ~_mask_of(s))


def test_separates_on_fig_graph():
    g = g12()
    assert separates(g, vids(g, "v4 v5"), g.id_of("v1"), g.id_of("v6"))
    assert not separates(g, vids(g, "v8"), g.id_of("v7"), g.id_of("v10"))
    assert not separates(g, frozenset(), g.id_of("v1"), g.id_of("v6"))


def test_components():
    g = g12()
    removed = vids(g, "v1 v2 v3 v4 v5")
    comps = flood_components(g, removed)
    assert comps == components(g, removed) == [vids(g, "v6 v7 v8 v9 v10 v11 v12")]

    path = parse_edge_list("a b\nb c")
    assert flood_components(path, {1}) == [frozenset({0}), frozenset({2})]
    assert flood_components(g) == [frozenset(range(12))]
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
    assert Graph(0).is_connected() and Graph(1).is_connected()


def test_cliques_and_simplicial():
    g = g12()
    assert g.is_clique(vids(g, "v1 v2 v3 v4 v5"))
    assert g.is_clique(frozenset())
    assert g.is_clique({0})
    assert is_simplicial(g, g.id_of("v1"))
    assert not is_simplicial(g, g.id_of("v10"))


def test_generate_complete_and_cycle():
    assert generate("complete", 4).m == 6
    cyc = generate("cycle", 5)
    assert cyc.m == 5 and all(cyc.degree(v) == 2 for v in range(5))
    with pytest.raises(GraphError):
        generate("cycle", 2)
    with pytest.raises(GraphError):
        generate("gnp", 5, None)


def test_generate_deterministic():
    a = generate("gnp", 12, 0.4, seed=99)
    b = generate("gnp", 12, 0.4, seed=99)
    assert a.edges() == b.edges()
    assert generate("random-tree", 9, seed=5).edges() == generate(
        "tree", 9, seed=5
    ).edges()


def test_caterpillar_cases():
    path6 = parse_edge_list("\n".join(f"{i} {i + 1}" for i in range(5)))
    assert is_caterpillar(path6)
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert not is_caterpillar(spider)
    assert is_caterpillar(star3())
    with pytest.raises(GraphError):
        is_caterpillar(k4())


@given(random_trees())
def test_random_trees_are_trees(t):
    assert t.m == t.n - 1
    assert t.is_connected()
    assert is_tree(t)


@given(connected_graphs())
def test_separation_matches_components(g):
    import itertools

    removed = frozenset(v for v in range(g.n) if v % 3 == 0)
    keep = [v for v in range(g.n) if v not in removed]
    comps = components(g, removed)
    assert flood_components(g, removed) == comps
    for u, v in itertools.combinations(keep, 2):
        same = any(u in c and v in c for c in comps)
        assert separates(g, removed, u, v) == (not same)


def test_graph6_known_encoding():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert g.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert to_graph6(g) == "D?{"


def test_graph6_header_and_errors():
    g = parse_graph6(">>graph6<<A_")
    assert g.n == 2 and g.m == 1
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("D?")  # truncated body


def test_graph6_corpus_roundtrip(corpus):
    text = (
        __import__("pathlib").Path(__file__).parent / "data" / "connected_le7.g6"
    ).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for line, g in zip(lines, corpus):
        assert to_graph6(g) == line


def test_corpus_counts(corpus):
    by_n = {}
    for g in corpus:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert all(g.is_connected() for g in corpus)


def test_corpus_8_counts():
    # every connected graph on 8 vertices, one sorted line per isomorphism
    # class (scripts/gen_corpus.py writes canonical forms; this test does
    # not recompute them)
    lines = (DATA_DIR / "connected_8.g6").read_text().splitlines()
    assert len(set(lines)) == len(lines) == 11117
    assert lines == sorted(lines)
    for line in lines:
        g = parse_graph6(line)
        assert g.n == 8 and g.is_connected()


@given(connected_graphs(max_n=9))
def test_graph6_roundtrip_random(g):
    again = parse_graph6(to_graph6(g))
    assert again.n == g.n and again.edges() == g.edges()


def test_graph6_long_size_prefix():
    # above n = 62 the size takes "~" and three bytes, 18 bits of n
    for n, prefix in ((62, "}"), (63, "~??~"), (64, "~?@?"), (100, "~?@c"), (300, "~?Ck")):
        seed = 0
        while not (g := generate("gnp", n, 0.1, seed=seed)).is_connected():
            seed += 1
        line = to_graph6(g)
        assert line.startswith(prefix) and len(line) == len(prefix) + (n * (n - 1) // 2 + 5) // 6
        again = parse_graph6(line)
        assert again.n == n and again.edges() == g.edges()
    # above n = 258047 it takes "~~" and six bytes, 36 bits of n
    assert _g6_decode_n("~~??A???") == (524288, 8)


def test_graph6_size_prefix_rejects_bytes_outside_range():
    for line in ("~!!!", "~~!!!!!!", "~?\x80?"):
        with pytest.raises(ParseError, match="invalid graph6 byte"):
            parse_graph6(line)


@given(connected_graphs(max_n=9))
def test_edge_list_roundtrip(g):
    again = parse_edge_list(to_edge_list(g))
    # labels may renumber, compare canonical label-pair sets
    orig = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
    back = {
        frozenset((again.labels[u], again.labels[v])) for u, v in again.edges()
    }
    assert orig == back


def test_parse_graph_dispatch():
    assert parse_graph("a b", "edge-list").n == 2
    assert parse_graph("D?{\n", "graph6").n == 5
    with pytest.raises(GraphError):
        parse_graph("a b", "dot")


def test_parse_graph_rejects_several_graph6_graphs():
    # one graph per call: a sweep file is an error, not its first line
    assert parse_graph("\nD?{\n\n", "graph6").n == 5
    with pytest.raises(ParseError, match="holds 2 graphs.*verify"):
        parse_graph("D?{\nBw\n", "graph6")


def test_named_fixtures():
    assert fixture("G12").n == 12
    assert fixture("THETA7").n == 7
    assert fixture("K4").m == 6
    assert fixture("C5").m == 5
    assert fixture("STAR3").degree(0) == 3
    with pytest.raises(GraphError):
        fixture("nope")
    t = theta7()
    assert t.neighbors(t.id_of("s")) == vids(t, "t z1 p")
    assert c5().is_connected()


# -- masks against a set-based reference ------------------------------------


def reference_edge_list(text):
    """Labels and adjacency sets of an edge-list text, read line by line."""
    ids, adj = {}, []
    for raw in text.splitlines():
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        a, b = tokens
        for label in (a, b):
            if label not in ids:
                ids[label] = len(ids)
                adj.append(set())
        adj[ids[a]].add(ids[b])
        adj[ids[b]].add(ids[a])
    return list(ids), adj


def reference_graph6(line):
    """Adjacency sets of a graph6 line with a one-byte size."""
    n = ord(line[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in line[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    adj = [set() for _ in range(n)]
    for (i, j), bit in zip(pairs, bits):
        if bit == "1":
            adj[i].add(j)
            adj[j].add(i)
    return adj


def assert_matches_reference(g, labels, adj):
    n = len(adj)
    edges = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    size = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    bits = "".join("1" if i in adj[j] else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    size += [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    assert (g.n, g.labels) == (n, tuple(labels))
    assert g.masks == tuple(sum(1 << w for w in nb) for nb in adj)
    assert g.adj == tuple(map(frozenset, adj))
    assert g.m == len(edges) == sum(map(len, adj)) // 2
    assert g.edges() == edges
    assert to_edge_list(g) == "".join(f"{labels[u]} {labels[v]}\n" for u, v in edges)
    assert to_graph6(g) == "".join(chr(x + 63) for x in size)


def test_masks_match_reference_on_corpus():
    lines = (DATA_DIR / "connected_le7.g6").read_text().split()
    assert len(lines) == 996
    for line in lines:
        g = parse_graph6(line)
        assert_matches_reference(g, [str(v) for v in range(g.n)], reference_graph6(line))
        assert to_graph6(g) == line


@pytest.mark.parametrize("n, p", [(2, 1.0), (30, 0.1), (80, 0.3), (150, 0.05)])
def test_masks_match_reference_on_messy_edge_lists(n, p):
    rng = random.Random(n)
    edges = generate("gnp", n, p, seed=n).edges()
    lines = ["# gnp", ""]
    for u, v in edges:
        lines.append(f"  x{v}\t x{u} " if rng.random() < 0.5 else f"x{u} x{v}")
        if rng.random() < 0.2:
            lines += [f"x{v} x{u}", "", "# again"]
    rng.shuffle(lines)
    text = "\n".join(lines)
    labels, adj = reference_edge_list(text)
    assert_matches_reference(parse_edge_list(text), labels, adj)
    # the same edges, each given twice and once reversed, straight to Graph
    ids = {label: i for i, label in enumerate(labels)}
    pairs = [(ids[f"x{u}"], ids[f"x{v}"]) for u, v in edges]
    again = Graph(len(labels), pairs + [(v, u) for u, v in pairs], labels)
    assert_matches_reference(again, labels, adj)
