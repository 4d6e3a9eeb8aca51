import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import connected_graphs, vid, vids
from tollhull.atoms import block_of
from tollhull.convexity import (
    Block,
    extreme_vertices,
    fast_concavity_test,
    interval_of_set,
    is_t_concave,
    is_t_convex,
    is_toll_extreme,
    make_block,
    toll_hull,
    toll_interval,
)
from tollhull.graph import Graph, GraphError, c5, g12, generate, k4, star3, theta7
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


def test_interval_of_set():
    g = g12()
    assert interval_of_set(g, vids(g, "v1 v2")) == vids(g, "v1 v2")
    assert interval_of_set(g, vids(g, "v1 v2 v3 v11")) == frozenset(range(12))
    assert interval_of_set(g, {vid(g, "v7")}) == {vid(g, "v7")}
    with pytest.raises(GraphError):
        interval_of_set(g, frozenset())


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


def test_extreme_vertices_fixtures():
    g = g12()
    assert extreme_vertices(g) == vids(g, "v1 v2 v3")
    assert extreme_vertices(k4()) == frozenset(range(4))
    assert extreme_vertices(c5()) == frozenset()
    assert is_toll_extreme(g, vid(g, "v1"))
    assert not is_toll_extreme(g, vid(g, "v10"))


def test_block_construction():
    g = g12()
    b = block_of(g, vids(g, "v1 v2 v3 v4 v5"))
    assert b.border == vids(g, "v4 v5")
    assert b.interior == vids(g, "v1 v2 v3")
    b.validate(g)
    whole = block_of(g, frozenset(range(12)))
    assert whole.border == frozenset()
    assert whole.interior == frozenset(range(12))


def test_fast_concavity_on_fixtures():
    g = g12()
    m4 = block_of(g, vids(g, "v8 v9 v10 v11 v12"))
    assert fast_concavity_test(g, m4)
    m1 = block_of(g, vids(g, "v1 v2 v3 v4 v5"))
    assert fast_concavity_test(g, m1)
    t = theta7()
    zblock = block_of(t, vids(t, "s t z1 z2"))
    assert not fast_concavity_test(t, zblock)


def test_fast_concavity_preconditions():
    g = g12()
    with pytest.raises(GraphError):
        fast_concavity_test(g, make_block(g, vids(g, "v4 v5")))  # empty interior
    bad_border = Block(
        vertices=vids(g, "v1 v10 v11"),
        border=vids(g, "v1 v10"),
        interior=vids(g, "v11"),
    )
    with pytest.raises(GraphError):
        fast_concavity_test(g, bad_border)  # border not a clique
    disconnected_interior = make_block(g, vids(g, "v1 v2 v3 v4 v5 v6 v7 v8 v9 v11"))
    with pytest.raises(GraphError):
        fast_concavity_test(g, disconnected_interior)


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
        assert g.is_simplicial(v)


def _qualifying_blocks(g):
    out = []
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            b = make_block(g, frozenset(sub))
            if not b.interior:
                continue
            if not g.is_clique(b.border):
                continue
            inner, _ = g.subgraph(b.interior)
            if inner.is_connected():
                out.append(b)
    return out


@given(connected_graphs(max_n=6))
@settings(max_examples=25)
def test_fast_concavity_matches_definition(g):
    for b in _qualifying_blocks(g):
        assert fast_concavity_test(g, b) == is_t_concave(g, b.interior)


@given(connected_graphs(max_n=7))
@settings(max_examples=25)
def test_component_all_or_none(g):
    # any connected chunk of a clique-bordered interior is swallowed whole
    for b in _qualifying_blocks(g):
        outside = sorted(set(range(g.n)) - b.vertices)
        inner, old = g.subgraph(b.interior)
        chunks = [frozenset(old[v] for v in comp) for comp in inner.components()]
        for x, y in combinations(outside, 2):
            interval = toll_interval(g, x, y)
            for chunk in chunks:
                hit = chunk & interval
                assert not hit or chunk <= interval
