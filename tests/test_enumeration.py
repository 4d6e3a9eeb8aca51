import pytest
from hypothesis import given, settings

from conftest import connected_graphs, vids
from tollhull.check import compare_with_bruteforce
from tollhull.enumeration import enumerate_min_hull_sets
from tollhull.graph import Graph, GraphError, c5, g12, generate, k4, star3, theta7
from tollhull.oracles import bf_hull
from tollhull.solver import solve


def test_fig_menu_and_stream():
    g = g12()
    r = solve(g)
    sets = list(enumerate_min_hull_sets(g))
    assert sets == [vids(g, "v1 v2 v3 v11")]
    projections = {b.vertices: {s & b.vertices for s in sets} for b in r.family}
    assert projections[vids(g, "v10 v11 v12")] == {vids(g, "v11")}
    assert projections[vids(g, "v1 v2 v3")] == {vids(g, "v1 v2 v3")}
    # independent uniqueness check: no other fourth vertex completes
    base = vids(g, "v1 v2 v3")
    for w in range(12):
        if w in base:
            continue
        full = bf_hull(g, base | {w}) == frozenset(range(12))
        assert full == (w == g.id_of("v11"))


def test_complete_graph_single_set():
    g = k4()
    assert list(enumerate_min_hull_sets(g)) == [frozenset(range(4))]


def test_prime_graph_all_nonadjacent_pairs():
    g = c5()
    got = list(enumerate_min_hull_sets(g))
    want = [
        frozenset({u, v})
        for u in range(5)
        for v in range(u + 1, 5)
        if v not in g.adj[u]
    ]
    assert sorted(got, key=sorted) == sorted(want, key=sorted)
    rep = compare_with_bruteforce(g)
    assert rep.complete


def test_theta_menu_is_cartesian():
    # the one family block is all of THETA7; besides the pairs across the
    # two sides, the far pair {p, q} and four pairs with s or t close to V
    t = theta7()
    sets = set(enumerate_min_hull_sets(t))
    assert sets == {
        frozenset({a, b})
        for a in vids(t, "p r q")
        for b in vids(t, "z1 z2")
    } | {vids(t, pair) for pair in ("p q", "s r", "s q", "t p", "t r")}
    rep = compare_with_bruteforce(t)
    assert rep.complete and len(rep.emitted) == 11


def test_random_tree_emits_every_minimum_set():
    g = generate("random-tree", 9, seed=1)
    sets = list(enumerate_min_hull_sets(g))
    assert len(sets) == len(set(sets)) == 7
    assert set(sets) == set(compare_with_bruteforce(g).reference)


def test_limit_and_errors():
    g = star3()
    assert list(enumerate_min_hull_sets(g, limit=0)) == []
    assert len(list(enumerate_min_hull_sets(g, limit=1))) == 1
    with pytest.raises(GraphError):
        list(enumerate_min_hull_sets(Graph(4, [(0, 1), (2, 3)])))
    with pytest.raises(GraphError, match="negative"):
        list(enumerate_min_hull_sets(g, limit=-1))


def test_stream_has_no_duplicates_small(small_corpus):
    for g in small_corpus[::5]:
        sets = list(enumerate_min_hull_sets(g))
        assert len(sets) == len(set(sets))


@given(connected_graphs(max_n=7))
@settings(max_examples=60)
def test_emissions_are_valid_minimum_sets(g):
    from tollhull.convexity import toll_hull

    r = solve(g)
    for s in enumerate_min_hull_sets(g):
        assert len(s) == r.hull_number
        assert toll_hull(g, s) == frozenset(range(g.n))


@given(connected_graphs(min_n=2, max_n=6))
@settings(max_examples=60)
def test_report_against_bruteforce(g):
    rep = compare_with_bruteforce(g)
    assert set(rep.emitted) <= set(rep.reference)
    if rep.complete:
        assert set(rep.emitted) == set(rep.reference)
    else:
        assert rep.missing


def test_report_counts_reference_sets():
    g = generate("complete", 3)
    rep = compare_with_bruteforce(g)
    assert rep.hull_number == 3
    assert rep.reference == (frozenset({0, 1, 2}),)


def test_emission_delay_is_bounded():
    # a 20-cycle is prime, so every one of the 170 non-adjacent pairs is
    # emitted; the gap between consecutive emissions must stay far below
    # anything exponential
    import time

    g = generate("cycle", 20)
    gaps = []
    last = time.perf_counter()
    count = 0
    for _ in enumerate_min_hull_sets(g):
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
        count += 1
    assert count == (20 * 19) // 2 - 20
    assert max(gaps) < 0.5
