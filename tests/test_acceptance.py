"""Acceptance suite: one test (or pair of tests) per shipped guarantee.

Each criterion prints a PASS/FAIL line so a plain ``pytest -s
tests/test_acceptance.py`` reads as a checklist.  Criterion 7 covers both
type-2 merge rules: on the THETA7 fixture the merge dispatches to rule 7
(pinned in ``test_solver.py``), and clause 7b reaches rule 5 on the two-path
graph whose sides both have inner length 3.
"""
import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from conftest import components, petersen, theta8, vids
from tollhull.cli import run as cli_run
from tollhull.convexity import (
    extreme_vertices,
    fast_concavity_test,
    is_t_concave,
    toll_hull,
    toll_interval,
)
from tollhull.graph import c5, g12, generate, is_caterpillar, theta7, to_edge_list
from tollhull.atoms import atoms
from tollhull.check import compare_with_bruteforce
from tollhull.oracles import bf_hull_number, bf_is_prime, bf_toll_interval
from tollhull.solver import TYPE1, TYPE2, TYPE3, solve


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {number}] FAIL - {description}", flush=True)
        raise
    elapsed = time.perf_counter() - started
    print(
        f"[acceptance {number}] PASS - {description} ({elapsed:.2f}s)",
        flush=True,
    )


# -- shared deterministic collections ----------------------------------------


@pytest.fixture(scope="session")
def prime_collection():
    """C5, the Petersen graph, and 23 seeded random graphs verified prime
    and non-complete by the brute-force primality test."""
    graphs = [c5(), petersen()]
    rng = random.Random(20240601)
    while len(graphs) < 25:
        n = rng.randint(5, 12)
        p = rng.choice([0.4, 0.5, 0.6])
        g = generate("gnp", n, p, seed=rng.randrange(2**32))
        if not g.is_connected():
            continue
        if g.m == n * (n - 1) // 2:
            continue
        if bf_is_prime(g):
            graphs.append(g)
    return graphs


@pytest.fixture(scope="session")
def tree_collection():
    """200 seeded random trees on up to 40 vertices, none a caterpillar."""
    rng = random.Random(987654)
    trees = []
    while len(trees) < 200:
        n = rng.randint(7, 40)
        t = generate("random-tree", n, seed=rng.randrange(2**32))
        if not is_caterpillar(t):
            trees.append(t)
    return trees


# -- criteria ------------------------------------------------------------------


def test_criterion_1_fig_graph_exact():
    with criterion(1, "reference 12-vertex graph: atoms, family, hull set"):
        started = time.perf_counter()
        g = g12()
        dec = atoms(g)
        atom_labels = [frozenset(g.labels[v] for v in a) for a in dec.atoms]
        assert atom_labels == [
            frozenset("v1 v2 v3 v4 v5".split()),
            frozenset("v4 v5 v6 v7".split()),
            frozenset("v6 v7 v8 v9".split()),
            frozenset("v8 v9 v10 v11 v12".split()),
        ]
        assert dec.extremal_flags == (True, False, False, True)

        r = solve(g)
        assert r.hull_number == 4
        assert r.hull_set == vids(g, "v1 v2 v3 v11")
        fam = {b.vertices: (b.ctype, b.granularity) for b in r.family}
        assert fam == {
            vids(g, "v1 v2 v3"): (TYPE3, 3),
            vids(g, "v10 v11 v12"): (TYPE1, 1),
        }
        assert r.extreme_vertices == vids(g, "v1 v2 v3")
        assert extreme_vertices(g) == vids(g, "v1 v2 v3")
        assert time.perf_counter() - started < 1.0


def test_criterion_2_prime_graphs(prime_collection):
    with criterion(2, "complete graphs and prime non-complete graphs"):
        started = time.perf_counter()
        for n in range(1, 9):
            r = solve(generate("complete", n))
            assert r.hull_number == n
            assert r.hull_set == frozenset(range(n))
        assert len(prime_collection) == 25
        for g in prime_collection:
            r = solve(g)
            assert r.prime
            assert r.hull_number == 2
            u, v = sorted(r.hull_set)
            assert v not in g.adj[u]
        assert time.perf_counter() - started < 5.0


def test_criterion_3_noncaterpillar_trees(tree_collection):
    with criterion(3, "200 non-caterpillar trees have hull number 2"):
        started = time.perf_counter()
        assert len(tree_collection) == 200
        for t in tree_collection:
            r = solve(t)
            assert r.hull_number == 2
            assert toll_hull(t, r.hull_set) == frozenset(range(t.n))
        assert time.perf_counter() - started < 30.0


def test_criterion_4_exhaustive_oracle_agreement(corpus):
    with criterion(4, "exhaustive n<=7: solver and intervals match brute force"):
        started = time.perf_counter()
        for g in corpus:
            V = frozenset(range(g.n))
            for x, y in combinations(range(g.n), 2):
                assert toll_interval(g, x, y) == bf_toll_interval(g, x, y)
            r = solve(g)
            assert r.hull_number == bf_hull_number(g)
            assert toll_hull(g, r.hull_set) == V
        assert time.perf_counter() - started < 600.0


def _interior(g, f):
    """The vertices of f with no neighbour outside f."""
    return frozenset(v for v in f if g.adj[v] <= f)


def test_criterion_5_fast_concavity_agreement(corpus):
    with criterion(5, "component-based concavity test matches the definition"):
        for g in corpus:
            for size in range(1, g.n + 1):
                for sub in combinations(range(g.n), size):
                    f = frozenset(sub)
                    interior = _interior(g, f)
                    if not interior or not g.is_clique(f - interior):
                        continue
                    inner, _ = g.subgraph(interior)
                    if not inner.is_connected():
                        continue
                    assert fast_concavity_test(g, f) == is_t_concave(g, interior)

        rng = random.Random(424242)
        graphs_checked = 0
        blocks_checked = 0
        while graphs_checked < 500:
            n = rng.randint(8, 30)
            g = generate("gnp", n, rng.choice([0.12, 0.18, 0.25]), seed=rng.randrange(2**32))
            if not g.is_connected():
                continue
            graphs_checked += 1
            kept = 0
            for _ in range(20):
                size = rng.randint(2, n - 2)
                start = rng.randrange(n)
                grown = {start}
                frontier = [start]
                while frontier and len(grown) < size:
                    w = frontier.pop(rng.randrange(len(frontier)))
                    for z in sorted(g.adj[w]):
                        if z not in grown and len(grown) < size:
                            grown.add(z)
                            frontier.append(z)
                f = frozenset(grown)
                interior = _interior(g, f)
                if not interior or not g.is_clique(f - interior):
                    continue
                inner, _ = g.subgraph(interior)
                if not inner.is_connected():
                    continue
                assert fast_concavity_test(g, f) == is_t_concave(g, interior)
                blocks_checked += 1
                kept += 1
                if kept >= 2:
                    break
        assert blocks_checked > 100  # the sampling actually exercised the test


def test_criterion_6_solver_invariants(corpus, prime_collection, tree_collection):
    """The solver aborts with SolverInvariantError whenever a family law,
    a feasibility guarantee, or a merge bound breaks; sweeping every
    criterion-1..4 graph without an abort certifies zero violations."""
    with criterion(6, "zero invariant violations across all solver runs"):
        for g in [g12(), theta7()] + list(prime_collection) + list(tree_collection):
            solve(g)
        for g in corpus:
            solve(g)
            dec = atoms(g)
            if len(dec.atoms) >= 2:
                for a, flag in zip(dec.atoms, dec.extremal_flags):
                    if not flag:
                        assert len(components(g, a)) >= 2


def test_criterion_7_theta_fixture_trace():
    with criterion(7, "two-path fixture: one merge, size 2, matches brute force"):
        t = theta7()
        r = solve(t)
        merges = [e for e in r.trace if e["phase"] == "merge"]
        assert len(merges) == 1
        assert r.hull_number == 2
        assert toll_hull(t, r.hull_set) == frozenset(range(7))
        assert bf_hull_number(t) == 2
        assert merges[0]["type"] == TYPE2


def test_criterion_7_choice5_clause():
    """Clause asserting that the first type-2 selection rule fires on a
    two-path graph.

    THETA7 cannot carry this clause: its five-vertex side has a t-concave
    type-1 interior, so its merge runs with k = 1 and dispatches to rule 7
    (pinned in ``test_solver.py``).  With two sides of inner length 3
    neither interior is t-concave on its own, so the single merge sees a
    type-2 interior with k = 0 and the pair rule picks the two ends of one
    side.
    """
    with criterion("7b", "two-path graph merge fires the k=0 pair rule"):
        g = theta8()
        r = solve(g)
        merges = [e for e in r.trace if e["phase"] == "merge"]
        assert len(merges) == 1
        assert merges[0]["type"] == TYPE2
        assert merges[0]["k"] == 0
        assert merges[0]["choice"] == "choice_5"
        assert frozenset(merges[0]["chosen"]) == vids(g, "a1 a3")
        assert r.hull_number == 2 == bf_hull_number(g)
        assert toll_hull(g, r.hull_set) == frozenset(range(g.n))


def test_criterion_8_enumeration_census(small_corpus):
    with criterion(8, "enumeration: every emission verified, none missing"):
        complete = 0
        incomplete = []
        for g in small_corpus:
            report = compare_with_bruteforce(g)  # raises on validity failure
            if report.complete:
                complete += 1
            else:
                incomplete.append((g, report))
        print(
            f"\n[enumeration census] n<=6: {complete} complete, "
            f"{len(incomplete)} incomplete of {len(small_corpus)} graphs"
        )
        for g, report in incomplete:
            print(
                f"  incomplete: n={g.n} edges={sorted(g.edges())} "
                f"emitted={len(report.emitted)} missing={len(report.missing)}"
            )
        assert complete + len(incomplete) == len(small_corpus)
        assert not incomplete


def test_criterion_9_scaling(tmp_path):
    with criterion(9, "hull completes fast at n=200 with sane growth"):
        def connected_gnp(n):
            seed = 0
            while True:
                g = generate("gnp", n, 0.1, seed=seed)
                if g.is_connected():
                    return g
                seed += 1

        def timed_hull(g):
            path = tmp_path / f"gnp{g.n}.txt"
            path.write_text(to_edge_list(g))
            best = None
            for _ in range(3):
                t0 = time.perf_counter()
                assert cli_run(["hull", str(path)]) == 0
                el = time.perf_counter() - t0
                best = el if best is None else min(best, el)
            return best

        t100 = timed_hull(connected_gnp(100))
        t200 = timed_hull(connected_gnp(200))
        assert t200 < 10.0
        ratio = t200 / max(t100, 1e-4)
        print(f"\n[scaling] t(100)={t100 * 1000:.1f}ms t(200)={t200 * 1000:.1f}ms ratio={ratio:.1f}")
        assert ratio <= 32.0
