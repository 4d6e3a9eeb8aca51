import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import components, connected_graphs, family_graphs, is_simplicial, vid, vids
from tollhull import solver
from tollhull.convexity import (
    IntervalKernel,
    _mask_of,
    _members,
    extreme_vertices,
    fast_concavity_test,
    interval_kernel,
    is_t_concave,
    is_t_convex,
    is_toll_extreme,
    toll_hull,
    toll_interval,
)
from tollhull.graph import (
    Graph,
    GraphError,
    c5,
    g12,
    generate,
    k4,
    parse_graph6,
    star3,
    theta7,
)
from tollhull.oracles import bf_extreme_vertices, bf_hull, bf_is_extreme, bf_toll_interval
from tollhull.solver import solve


def test_interval_fig_long_pair():
    g = g12()
    interval = toll_interval(g, vid(g, "v1"), vid(g, "v11"))
    assert vids(g, "v5 v7 v9 v12") <= interval
    assert interval == frozenset(range(12)) - vids(g, "v2 v3")


def test_interval_adjacent_and_errors():
    g = g12()
    assert toll_interval(g, 0, 1) == {0, 1}
    with pytest.raises(GraphError):
        toll_interval(g, 3, 3)
    with pytest.raises(GraphError):
        toll_interval(g, 0, 99)
    disconnected = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        toll_interval(disconnected, 0, 2)


def test_interval_cycle():
    g = c5()
    assert toll_interval(g, 0, 2) == frozenset(range(5))


def interval_of_set(g, s):
    """The union of the toll intervals of the pairs of s, a singleton
    mapping to itself."""
    pairs = combinations(sorted(s), 2)
    return frozenset(s).union(*(toll_interval(g, a, b) for a, b in pairs))


def test_interval_of_set():
    g = g12()
    assert interval_of_set(g, vids(g, "v1 v2")) == vids(g, "v1 v2")
    assert interval_of_set(g, vids(g, "v1 v2 v3 v11")) == frozenset(range(12))
    assert interval_of_set(g, {vid(g, "v7")}) == {vid(g, "v7")}
    for bad in (99, -1):
        with pytest.raises(GraphError):
            interval_of_set(c5(), {0, bad})
    with pytest.raises(GraphError):
        interval_of_set(Graph(4, [(0, 1), (2, 3)]), {0, 1})


def test_hull_fixtures():
    g = g12()
    assert toll_hull(g, vids(g, "v1 v2 v3 v11")) == frozenset(range(12))
    assert toll_hull(g, frozenset(range(12))) == frozenset(range(12))
    s = star3()
    assert toll_hull(s, vids(s, "x y")) == vids(s, "x y c")


def test_convexity_predicates():
    g = g12()
    assert is_t_concave(g, vids(g, "v1 v2 v3"))
    assert is_t_concave(g, vids(g, "v10 v11 v12"))
    t = theta7()
    assert not is_t_concave(t, vids(t, "z1 z2"))
    assert is_t_convex(g, frozenset())
    assert is_t_convex(g, frozenset(range(12)))
    assert not is_t_convex(g, vids(g, "v1 v6"))
    # the short paths (at most one vertex, or as many as g.n) check too
    for bad in (99, -1):
        for s in ({bad}, {0, 1, 2, 3, bad}):
            with pytest.raises(GraphError):
                is_t_convex(c5(), s)
        with pytest.raises(GraphError):
            is_t_concave(c5(), {bad})


def test_extreme_vertices_fixtures():
    g = g12()
    assert extreme_vertices(g) == vids(g, "v1 v2 v3")
    assert extreme_vertices(k4()) == frozenset(range(4))
    assert extreme_vertices(c5()) == frozenset()
    assert is_toll_extreme(g, vid(g, "v1"))
    assert not is_toll_extreme(g, vid(g, "v10"))


def test_block_construction():
    g = g12()

    def split(vs):
        mem = solver._member(g, sum(1 << v for v in vs), 0)
        return frozenset(_members(mem.border)), frozenset(_members(mem.interior))

    assert split(vids(g, "v1 v2 v3 v4 v5")) == (vids(g, "v4 v5"), vids(g, "v1 v2 v3"))
    assert split(range(12)) == (frozenset(), frozenset(range(12)))


def test_fast_concavity_on_fixtures():
    g = g12()
    assert fast_concavity_test(g, vids(g, "v8 v9 v10 v11 v12"))
    assert fast_concavity_test(g, vids(g, "v1 v2 v3 v4 v5"))
    t = theta7()
    assert not fast_concavity_test(t, vids(t, "s t z1 z2"))


def test_fast_concavity_preconditions():
    g = g12()
    with pytest.raises(GraphError):
        fast_concavity_test(g, vids(g, "v4 v5"))  # empty interior
    with pytest.raises(GraphError):
        fast_concavity_test(g, vids(g, "v10 v11 v12"))  # border {v10, v12}
    with pytest.raises(GraphError):
        fast_concavity_test(g, vids(g, "v1 v2 v3 v4 v5 v6 v7 v8 v9 v11"))
    for bad in (99, -1):
        with pytest.raises(GraphError):
            fast_concavity_test(g, {0, bad})


@pytest.mark.parametrize("n, base", [(4, 0), (70, 66)])
def test_clique_mask(n, base):
    # K4 on base..base+3, missing the edge between its two highest vertices
    # in the second graph; base 66 puts the four above bit 64
    a, b, c, d = range(base, base + 4)
    k4_edges = [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
    path = [(v, v + 1) for v in range(base)]
    whole = interval_kernel(Graph(n, path + k4_edges))
    holed = interval_kernel(Graph(n, path + k4_edges[:-1]))
    four = _mask_of((a, b, c, d))
    for k in (whole, holed):
        assert k.clique(0)
        assert k.clique(1 << d)
        assert k.clique(_mask_of((a, b, c)))
    assert whole.clique(four)
    assert not holed.clique(four)
    assert holed.clique(_mask_of((a, b, d)))
    assert not holed.clique(_mask_of((c, d)))
    if base:
        # a non-edge far below the clique is still seen
        assert not whole.clique(four | 1)


@given(connected_graphs(max_n=7))
@settings(max_examples=60)
def test_interval_matches_bruteforce(g):
    for x, y in combinations(range(g.n), 2):
        assert toll_interval(g, x, y) == bf_toll_interval(g, x, y)


@given(connected_graphs(max_n=7), st.data())
@settings(max_examples=80)
def test_hull_matches_bruteforce(g, data):
    s = data.draw(st.frozensets(st.integers(0, g.n - 1), min_size=1))
    assert toll_hull(g, s) == bf_hull(g, s)


@given(connected_graphs(max_n=7))
@settings(max_examples=60)
def test_extreme_vertices_match_bruteforce(g):
    assert extreme_vertices(g) == bf_extreme_vertices(g)


@given(connected_graphs(max_n=7))
@settings(max_examples=60)
def test_is_toll_extreme_matches_bruteforce(g):
    for v in range(g.n):
        assert is_toll_extreme(g, v) == bf_is_extreme(g, v)


def test_is_toll_extreme_matches_extreme_vertices(corpus):
    # the single-vertex query against the whole-graph pass
    graphs = corpus + list(family_graphs((20, 60)))
    for g in graphs:
        extreme = extreme_vertices(g)
        assert {v for v in range(g.n) if is_toll_extreme(g, v)} == extreme


def _all_pairs_extreme(g):
    """The extreme vertices as the complement of the union of interval
    interiors over the non-adjacent pairs, starting from the non-simplicial
    vertices: the reference for the per-vertex rule."""
    k = interval_kernel(g)
    hit = _mask_of(v for v in range(g.n) if not is_simplicial(g, v))
    for x in range(g.n):
        sx = k.side(x)
        for y in _members(k.full & ~k.adj[x] & -(2 << x)):
            hit |= sx[y] & k.side(y)[x]
    return frozenset(_members(k.full & ~hit))


def test_extreme_vertices_match_all_pairs_pass(corpus):
    graphs = corpus + list(family_graphs((20, 60)))
    for g in graphs:
        assert extreme_vertices(g) == _all_pairs_extreme(g)


def test_interval_kernel_dies_with_its_graph():
    g = generate("random-tree", 60, seed=3)
    extreme_vertices(g)
    toll_hull(g, solve(g).hull_set)
    assert g._kernel is not None
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@given(connected_graphs(max_n=7))
@settings(max_examples=40)
def test_interval_monotone_and_extensive(g):
    verts = sorted(range(g.n))
    small = frozenset(verts[: max(1, g.n // 2)])
    big = frozenset(verts)
    assert interval_of_set(g, small) <= interval_of_set(g, big)
    assert small <= interval_of_set(g, small)
    hull = toll_hull(g, small)
    assert interval_of_set(g, small) <= hull
    assert toll_hull(g, hull) == hull  # idempotent
    assert is_t_convex(g, hull)


@given(connected_graphs(max_n=7))
@settings(max_examples=40)
def test_convex_iff_hull_fixed(g):
    rng = random.Random(g.n * 1000 + g.m)
    s = frozenset(v for v in range(g.n) if rng.random() < 0.5) or frozenset({0})
    assert is_t_convex(g, s) == (toll_hull(g, s) == s)


@given(connected_graphs(max_n=7))
@settings(max_examples=40)
def test_adjacent_pairs_have_trivial_interval(g):
    for u, v in g.edges():
        assert toll_interval(g, u, v) == {u, v}


@given(connected_graphs(max_n=7))
@settings(max_examples=30)
def test_extreme_vertices_are_simplicial(g):
    for v in extreme_vertices(g):
        assert is_simplicial(g, v)


def _qualifying_blocks(g):
    """(vertices, interior) of every vertex set whose interior, the
    vertices with no neighbour outside the set, is non-empty and connected
    while the rest of the set is a clique."""
    out = []
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            f = frozenset(sub)
            interior = frozenset(v for v in f if g.adj[v] <= f)
            if not interior or not g.is_clique(f - interior):
                continue
            inner, _ = g.subgraph(interior)
            if inner.is_connected():
                out.append((f, interior))
    return out


@given(connected_graphs(max_n=6))
@settings(max_examples=25)
def test_fast_concavity_matches_definition(g):
    for f, interior in _qualifying_blocks(g):
        assert fast_concavity_test(g, f) == is_t_concave(g, interior)


@given(connected_graphs(max_n=7))
@settings(max_examples=25)
def test_component_all_or_none(g):
    # any connected chunk of a clique-bordered interior is swallowed whole
    for f, interior in _qualifying_blocks(g):
        outside = sorted(set(range(g.n)) - f)
        inner, old = g.subgraph(interior)
        chunks = [frozenset(old[v] for v in comp) for comp in components(inner)]
        for x, y in combinations(outside, 2):
            interval = toll_interval(g, x, y)
            for chunk in chunks:
                hit = chunk & interval
                assert not hit or chunk <= interval


def _least_pair(k, block, v0):
    """The pair scan of ``concavity_witness`` without its ordered pass: the
    reference for the least non-adjacent outside pair whose interval holds
    v0."""
    outside = k.full & ~block
    for u in _members(outside):
        later = k.side(u)[v0] & outside & ~k.adj[u] & -(2 << u)
        while later:
            low = later & -later
            if k.side(low.bit_length() - 1)[v0] >> u & 1:
                return 1 << u | low
            later ^= low
    return 0


def _simplicial_blocks(g):
    """(N[v], v) for every simplicial vertex v."""
    for v in range(g.n):
        if is_simplicial(g, v):
            yield g.masks[v] | 1 << v, v


def test_concavity_witness_is_least_pair(small_corpus, corpus_8):
    cases = [
        (g, _mask_of(f), v0)
        for g in small_corpus
        for f, interior in _qualifying_blocks(g)
        for v0 in interior
    ]
    for g in corpus_8 + list(family_graphs((20, 60, 150))):
        cases += [(g, block, v) for block, v in _simplicial_blocks(g)]
    concave = 0
    for g, block, v0 in cases:
        k = interval_kernel(g)
        got = k.concavity_witness(block, v0)
        assert got == _least_pair(k, block, v0)
        concave += not got
    assert 0 < concave < len(cases)


@pytest.mark.parametrize("g6, outcome", [("F??~w", False), ("G??X^{", True)])
def test_ordered_pass_runs_with_both_outcomes(monkeypatch, g6, outcome):
    # on F??~w (n <= 7 corpus) the pass finds no pair; on G??X^{
    # (connected_8.g6) it finds one and the scan goes on to the least pair
    pass_once = IntervalKernel._pair_exists
    outcomes = []

    def counted(self, outside, v0):
        found = pass_once(self, outside, v0)
        outcomes.append(found)
        return found

    monkeypatch.setattr(IntervalKernel, "_pair_exists", counted)
    g = parse_graph6(g6)
    assert solve(g).extreme_vertices == extreme_vertices(g) == bf_extreme_vertices(g)
    assert outcome in outcomes
    if not outcome:
        assert not any(outcomes)


def test_concavity_pair_iff_components_do_not_nest(corpus):
    # for outside x, F(x) is the component of G - N[x] holding v0
    for g in corpus:
        for f, interior in _qualifying_blocks(g):
            v0 = min(interior)
            outside = sorted(set(range(g.n)) - f)
            reach = {
                x: next(c for c in components(g, g.adj[x] | {x}) if v0 in c)
                for x in outside
            }
            for u, z in combinations(outside, 2):
                if z in g.adj[u]:
                    continue
                nested = reach[u] <= reach[z] or reach[z] <= reach[u]
                assert (v0 in toll_interval(g, u, z)) != nested
