import pytest
from hypothesis import given, strategies as st

from conftest import DATA_DIR, connected_graphs, random_trees, vids
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
    assert g.closed_neighbors(g.id_of("v11")) == vids(g, "v10 v11 v12")


def test_isolated_vertex_neighborhoods():
    g = Graph(1)
    assert g.neighbors(0) == frozenset()
    assert g.closed_neighbors(0) == {0}


def test_neighbors_out_of_range():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    cycle = c5()
    # a negative vertex must not be read through Python's negative indexing
    for call in (
        lambda: Graph(3).neighbors(3),
        lambda: star.is_simplicial(-1),
        lambda: star.is_simplicial(99),
        lambda: cycle.subgraph({-1, 0}),
        lambda: cycle.subgraph({99}),
        lambda: cycle.components([99]),
        lambda: cycle.separates([99, 1], 0, 2),
    ):
        with pytest.raises(GraphError):
            call()


def test_separates_on_fig_graph():
    g = g12()
    assert g.separates(vids(g, "v4 v5"), g.id_of("v1"), g.id_of("v6"))
    assert not g.separates(vids(g, "v8"), g.id_of("v7"), g.id_of("v10"))
    assert not g.separates(frozenset(), g.id_of("v1"), g.id_of("v6"))


def test_separates_rejects_endpoint_in_set():
    g = g12()
    with pytest.raises(GraphError):
        g.separates(vids(g, "v1"), g.id_of("v1"), g.id_of("v6"))


def test_components():
    g = g12()
    removed = vids(g, "v1 v2 v3 v4 v5")
    comps = g.components(removed)
    assert comps == [vids(g, "v6 v7 v8 v9 v10 v11 v12")]

    path = parse_edge_list("a b\nb c")
    assert path.components({1}) == [frozenset({0}), frozenset({2})]
    assert g.components() == [frozenset(range(12))]


def test_cliques_and_simplicial():
    g = g12()
    assert g.is_clique(vids(g, "v1 v2 v3 v4 v5"))
    assert g.is_clique(frozenset())
    assert g.is_clique({0})
    assert g.is_simplicial(g.id_of("v1"))
    assert not g.is_simplicial(g.id_of("v10"))


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
    comps = g.components(removed)
    for u, v in itertools.combinations(keep, 2):
        same = any(u in c and v in c for c in comps)
        assert g.separates(removed, u, v) == (not same)


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
