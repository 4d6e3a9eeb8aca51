import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import components, connected_graphs, vid, vids
from tollhull.graph import Graph, SizeLimitError, c5, g12, k4, star3, theta7
from tollhull.oracles import (
    WalkWitness,
    bf_all_intervals,
    bf_all_min_hull_sets,
    bf_atoms,
    bf_extreme_vertices,
    bf_hull,
    bf_hull_number,
    bf_is_extreme,
    bf_is_prime,
    bf_toll_interval,
    is_tolled_walk,
)


def test_tolled_walk_validator():
    g = g12()
    walk = tuple(vid(g, f"v{i}") for i in (3, 4, 6, 8, 10, 11))
    assert is_tolled_walk(g, walk, walk[0], walk[-1])
    # v4 appears late although adjacent to v3: not tolled
    bad = tuple(vid(g, f"v{i}") for i in (3, 4, 6, 4, 6, 8, 10, 11))
    assert not is_tolled_walk(g, bad, bad[0], bad[-1])
    assert not is_tolled_walk(g, (0,), 0, 0)


def test_interval_fig_pair_with_witnesses():
    g = g12()
    interval, witnesses = bf_toll_interval(
        g, vid(g, "v3"), vid(g, "v11"), want_witnesses=True
    )
    assert vids(g, "v4 v6 v8 v10") <= interval
    assert interval == vids(g, "v3 v4 v5 v6 v7 v8 v9 v10 v11 v12")
    for v, wit in witnesses.items():
        assert isinstance(wit, WalkWitness)
        assert v in wit.walk
        assert is_tolled_walk(g, wit.walk, wit.x, wit.y)


def test_interval_adjacent_pair():
    g = g12()
    assert bf_toll_interval(g, 0, 1) == {0, 1}


def test_interval_star_leaves():
    g = star3()
    x, y, z, c = vid(g, "x"), vid(g, "y"), vid(g, "z"), vid(g, "c")
    assert bf_toll_interval(g, x, y) == {x, c, y}
    assert z not in bf_toll_interval(g, x, y)


def test_interval_rejects_bad_input():
    g = g12()
    with pytest.raises(Exception):
        bf_toll_interval(g, 0, 0)
    big = Graph(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(SizeLimitError):
        bf_toll_interval(big, 0, 12)


def test_cap_doubling_is_stable(small_corpus):
    from itertools import combinations

    for g in small_corpus[::7]:
        for x, y in combinations(range(g.n), 2):
            base = bf_toll_interval(g, x, y)
            doubled = bf_toll_interval(g, x, y, max_edges=2 * (2 * g.n + 3))
            assert base == doubled


def test_hull_numbers_on_fixtures():
    assert bf_hull_number(g12()) == 4
    assert bf_hull_number(k4()) == 4
    assert bf_hull_number(star3()) == 3
    assert bf_hull_number(theta7()) == 2
    assert bf_hull_number(Graph(1)) == 1


def test_hull_closure_on_fixtures():
    g = star3()
    got = bf_hull(g, {vid(g, "x"), vid(g, "y")})
    assert got == vids(g, "x y c")
    assert bf_hull(g12(), frozenset(range(12))) == frozenset(range(12))


def test_all_min_hull_sets_star():
    g = star3()
    assert bf_all_min_hull_sets(g) == [vids(g, "x y z")]


def test_min_sets_pruning_matches_full_enumeration():
    # the extreme-vertex pruning must not lose any minimum set
    from itertools import combinations

    import tollhull.oracles as oracles

    for edges, n in [
        ([(0, 1), (1, 2), (2, 3)], 4),
        ([(0, 1), (0, 2), (0, 3), (1, 2)], 4),
        ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], 5),
    ]:
        g = Graph(n, edges)
        fast = bf_all_min_hull_sets(g)
        verts = range(n)
        full = None
        for size in range(1, n + 1):
            found = [
                frozenset(sub)
                for sub in combinations(verts, size)
                if bf_hull(g, frozenset(sub)) == frozenset(verts)
            ]
            if found:
                full = sorted(found, key=sorted)
                break
        assert fast == full


def test_extreme_vertices_fig():
    g = g12()
    sub, _ = g.subgraph(range(9))
    # truncating after v9 turns the second K4 into an end block, so its
    # interior v8, v9 joins the K5 interior v1, v2, v3
    assert bf_extreme_vertices(sub) == {0, 1, 2, 7, 8}
    assert bf_is_extreme(star3(), vid(star3(), "x"))


def test_primality():
    assert bf_is_prime(c5())
    assert bf_is_prime(k4())
    assert not bf_is_prime(theta7())


def test_atoms_small_cases():
    path = Graph(3, [(0, 1), (1, 2)])
    assert bf_atoms(path) == [frozenset({0, 1}), frozenset({1, 2})]

    t = theta7()
    assert bf_atoms(t) == sorted(
        [vids(t, "s t z1 z2"), vids(t, "s t p r q")], key=sorted
    )

    g = g12()
    sub, old = g.subgraph(range(9))
    atoms = bf_atoms(sub)
    as_labels = [frozenset(sub.labels[v] for v in a) for a in atoms]
    assert frozenset("v1 v2 v3 v4 v5".split()) in as_labels
    assert frozenset("v4 v5 v6 v7".split()) in as_labels
    assert frozenset("v6 v7 v8 v9".split()) in as_labels
    assert len(atoms) == 3


def _atoms_subset_by_subset(g):
    """Maximal prime induced subgraphs by building every vertex subset's
    induced subgraph and testing each of its own cliques as a separator."""
    primes = []
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            h, _ = g.subgraph(sub)
            proper_cliques = (
                c for k in range(h.n) for c in combinations(range(h.n), k)
                if h.is_clique(c)
            )
            if h.is_connected() and all(
                len(components(h, c)) == 1 for c in proper_cliques
            ):
                primes.append(frozenset(sub))
    return sorted((a for a in primes if not any(a < b for b in primes)), key=sorted)


def _seeded_connected_graphs(count, sizes, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if g.is_connected():
            out.append(g)
    return out


def test_atoms_largest_first_match_subset_by_subset(small_corpus):
    for g in small_corpus + _seeded_connected_graphs(30, (8, 9), seed=21):
        assert bf_atoms(g) == _atoms_subset_by_subset(g), sorted(g.edges())


def test_check_computes_each_interval_once(monkeypatch):
    import tollhull.oracles as oracles
    from tollhull.check import check
    from tollhull.solver import solve

    g = _seeded_connected_graphs(1, (9,), seed=5)[0]
    calls = []
    real = oracles.bf_toll_interval

    def counted(g, x, y, *args, **kwargs):
        calls.append((x, y))
        return real(g, x, y, *args, **kwargs)

    monkeypatch.setattr(oracles, "bf_toll_interval", counted)
    assert check(g, solve(g))["agreement"]
    assert len(calls) == g.n * (g.n - 1) // 2 == len(set(calls))


def test_interval_table_follows_the_graph_asked_about():
    g1, g2 = star3(), c5()
    first = {
        (x, y): bf_toll_interval(g1, x, y) for x, y in combinations(range(g1.n), 2)
    }
    second = {
        (x, y): bf_toll_interval(g2, x, y) for x, y in combinations(range(g2.n), 2)
    }
    assert bf_all_intervals(g1) == first
    assert bf_all_intervals(g2) == second
    assert bf_all_intervals(g1) == first


def test_interval_table_keeps_no_graph_alive():
    g = c5()
    bf_all_intervals(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_guards():
    big = Graph(10, [(i, i + 1) for i in range(9)])
    with pytest.raises(SizeLimitError):
        bf_atoms(big)
    with pytest.raises(SizeLimitError):
        bf_all_min_hull_sets(big)


@given(connected_graphs(max_n=6))
@settings(max_examples=40)
# for x=3, y=4 the prefix rebuild once stepped out of y: walk 3,1,4,0,4
@example(Graph(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5)]))
def test_witnesses_always_validate(g):
    from itertools import combinations

    for x, y in combinations(range(g.n), 2):
        interval, witnesses = bf_toll_interval(g, x, y, want_witnesses=True)
        assert set(witnesses) == set(interval)
        for wit in witnesses.values():
            assert is_tolled_walk(g, wit.walk, x, y)
            assert wit.v in wit.walk
