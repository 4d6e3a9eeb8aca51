from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import connected_graphs, random_trees, vid, vids
from tollhull import solver
from tollhull.atoms import AtomDecomposition
from tollhull.convexity import extreme_vertices, is_t_concave, toll_hull, toll_interval
from tollhull.enumeration import enumerate_min_hull_sets
from tollhull.graph import (
    Graph,
    GraphError,
    c5,
    g12,
    generate,
    is_caterpillar,
    star3,
    theta7,
)
from tollhull.oracles import bf_hull_number
from tollhull.solver import (
    TYPE1,
    TYPE2,
    TYPE3,
    ChoiceContext,
    SolverInvariantError,
    choice_1,
    choice_4,
    choice_5,
    classify_type,
    solve,
)


def mask(g: Graph, labels: str) -> int:
    return sum(1 << v for v in vids(g, labels))


def member(g: Graph, labels: str):
    """The working-family member made of the labelled vertices."""
    return solver._member(g, mask(g, labels), 0)


def type3_union(r) -> frozenset:
    return frozenset().union(*(b.vertices for b in r.family if b.ctype == TYPE3))


def test_classify_types_on_fig_blocks():
    g = g12()
    m1 = member(g, "v1 v2 v3 v4 v5")
    assert m1.interior == mask(g, "v1 v2 v3")
    assert classify_type(g, m1.interior) == TYPE3
    m4 = member(g, "v8 v9 v10 v11 v12")
    assert classify_type(g, m4.interior) == TYPE1
    s = star3()
    leaf = member(s, "x c")
    assert classify_type(s, leaf.interior) == TYPE3


def test_classify_type2():
    # wheel on four rim vertices plus a pendant: the rim is completely
    # joined to the hub but is itself no clique
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3), (4, 5)])
    wheel = solver._member(g, 0b11111, 0)
    assert wheel.interior == 0b1111
    assert classify_type(g, wheel.interior) == TYPE2


def test_solve_fig_graph():
    g = g12()
    r = solve(g)
    assert r.hull_number == 4
    assert r.hull_set == vids(g, "v1 v2 v3 v11")
    fam = {b.vertices: b for b in r.family}
    s1 = fam[vids(g, "v1 v2 v3")]
    assert s1.ctype == TYPE3 and s1.granularity == 3
    s2 = fam[vids(g, "v10 v11 v12")]
    assert s2.ctype == TYPE1 and s2.granularity == 1
    assert {s & s2.vertices for s in enumerate_min_hull_sets(g)} == {vids(g, "v11")}
    assert r.extreme_vertices == vids(g, "v1 v2 v3")
    assert not r.prime and not r.complete
    assert toll_hull(g, r.hull_set) == frozenset(range(12))


def test_solve_complete_graphs():
    for n in range(1, 6):
        r = solve(generate("complete", n))
        assert r.hull_number == n
        assert r.hull_set == frozenset(range(n))
        assert r.complete
        assert r.extreme_vertices == frozenset(range(n))
        assert len(r.family) == 1 and r.family[0].ctype == TYPE3


def test_solve_prime_noncomplete():
    r = solve(c5())
    assert r.hull_number == 2
    assert r.hull_set == frozenset({0, 2})  # least non-adjacent pair
    assert r.prime and not r.complete
    assert r.family == ()
    assert r.extreme_vertices == frozenset()


def test_solve_star():
    s = star3()
    r = solve(s)
    assert r.hull_set == vids(s, "x y z")
    assert all(b.ctype == TYPE3 for b in r.family)


def test_solve_theta_trace():
    t = theta7()
    r = solve(t)
    assert r.hull_number == 2
    assert toll_hull(t, r.hull_set) == frozenset(range(7))
    merges = [e for e in r.trace if e["phase"] == "merge"]
    assert len(merges) == 1
    assert merges[0]["type"] == TYPE2
    assert merges[0]["k"] == 1
    assert merges[0]["choice"] == "choice_7"
    assert len(r.family) == 1
    block = r.family[0]
    assert block.ctype == TYPE2 and block.granularity == 2
    # the block is all of THETA7, so its projections are the emitted sets:
    # one pick from each side, the far pair {p, q}, and four with s or t
    assert {s & block.vertices for s in enumerate_min_hull_sets(t)} == {
        frozenset({a, b})
        for a in vids(t, "p r q")
        for b in vids(t, "z1 z2")
    } | {vids(t, pair) for pair in ("p q", "s r", "s q", "t p", "t r")}


def test_solve_rejects_bad_input():
    with pytest.raises(GraphError):
        solve(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(GraphError):
        solve(Graph(0))


def test_solve_single_vertex():
    r = solve(Graph(1))
    assert r.hull_set == frozenset({0})
    assert r.hull_number == 1


def test_solver_is_deterministic():
    g = generate("gnp", 9, 0.35, seed=1)
    assert g.is_connected()
    a, b = solve(g), solve(g)
    assert a.hull_set == b.hull_set
    assert a.trace == b.trace


def test_choice_1_on_fig_end_block():
    g = g12()
    m4 = member(g, "v8 v9 v10 v11 v12")
    ctx = ChoiceContext(f_circ=m4, f_bullet=m4, members=(m4,))
    assert tuple(choice_1(g, ctx)) == (mask(g, "v11"),)


def test_choice_4_menu():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3), (4, 5)])
    wheel = solver._member(g, 0b11111, 0)
    ctx = ChoiceContext(f_circ=wheel, f_bullet=wheel, members=(wheel,))
    assert tuple(choice_4(g, ctx)) == (0b101, 0b1010)


def test_choice_5_conditions_on_theta():
    # builds the merge context by hand: the choice-5 conditions single out
    # the far pair on the three-vertex side
    t = theta7()
    side_z = member(t, "s t z1 z2")
    side_p = member(t, "s t p r q")
    whole = solver._member(t, 0b1111111, 0)
    ctx = ChoiceContext(f_circ=side_z, f_bullet=whole, members=(side_z, side_p))
    assert tuple(choice_5(t, ctx)) == (mask(t, "p q"),)


def test_family_accessors():
    # the type-3 blocks of the family are the toll extreme vertices
    g = g12()
    r = solve(g)
    assert type3_union(r) == r.extreme_vertices == vids(g, "v1 v2 v3")


@given(connected_graphs(max_n=8))
@settings(max_examples=120)
def test_solver_matches_bruteforce(g):
    r = solve(g)
    assert r.hull_number == bf_hull_number(g)
    assert toll_hull(g, r.hull_set) == frozenset(range(g.n))
    if r.family:
        assert sum(b.granularity for b in r.family) == r.hull_number


@given(connected_graphs(max_n=8))
@settings(max_examples=60)
def test_family_extremes_match_operator(g):
    r = solve(g)
    assert type3_union(r) == r.extreme_vertices == extreme_vertices(g)


@given(random_trees(min_n=7, max_n=16))
@settings(max_examples=60)
def test_noncaterpillar_trees_have_hull_two(t):
    if is_caterpillar(t):
        return
    r = solve(t)
    assert r.hull_number == 2
    assert toll_hull(t, r.hull_set) == frozenset(range(t.n))


@given(connected_graphs(max_n=8))
@settings(max_examples=60)
def test_family_blocks_are_concave_with_clique_borders(g):
    from tollhull.convexity import is_t_concave

    r = solve(g)
    for b in r.family:
        assert is_t_concave(g, b.vertices)
        if not r.prime and not r.complete:
            # family members come from merged blocks: their neighborhood
            # is a clique and the block is connected
            nb = frozenset().union(*(g.adj[v] for v in b.vertices)) - b.vertices
            assert g.is_clique(nb)


def test_prime_path_results_have_size_two():
    from conftest import petersen

    for g in (c5(), petersen()):
        r = solve(g)
        assert r.prime
        assert r.hull_number == 2
        u, v = sorted(r.hull_set)
        assert not g.has_edge(u, v)


def test_granularity_lower_bound(small_corpus):
    # every minimum hull set found by brute force meets each block of the
    # characteristic family in at least the block's granularity
    from tollhull.oracles import bf_all_min_hull_sets

    for g in small_corpus:
        r = solve(g)
        if not r.family:
            continue
        for s in bf_all_min_hull_sets(g):
            for block in r.family:
                assert len(s & block.vertices) >= block.granularity


def test_mass_random_agreement():
    # ten thousand seeded random connected graphs against the oracle
    import itertools
    import random

    rng = random.Random(31337)
    checked = 0
    while checked < 10_000:
        n = rng.randint(2, 9)
        p = rng.choice([0.2, 0.3, 0.45, 0.6, 0.8])
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < p
        ]
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        checked += 1
        r = solve(g)
        assert r.hull_number == bf_hull_number(g), sorted(g.edges())
        assert toll_hull(g, r.hull_set) == frozenset(range(n))


def test_family_invariants_reject_overlapping_interiors():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    new = solver._member(g, 0b111, 1)
    other = solver._member(g, 0b11, 0)
    with pytest.raises(SolverInvariantError, match="interiors overlap"):
        solver._check_family_invariants(g, new, [other])


def test_family_invariants_reject_non_clique_overlap():
    g = generate("cycle", 6)
    new = solver._member(g, 0b1111, 1)
    other = solver._member(g, 0b111001, 0)
    with pytest.raises(SolverInvariantError, match="not a clique"):
        solver._check_family_invariants(g, new, [other])


def test_non_extremal_atom_must_disconnect(monkeypatch):
    # on the path 0-1-2-3 the end edge {0,1} leaves {2,3} connected
    fake = AtomDecomposition(
        atoms=(frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
        extremal_flags=(False, True, True),
    )
    monkeypatch.setattr(solver, "atoms", lambda g: fake)
    with pytest.raises(SolverInvariantError, match="fails to disconnect"):
        solve(Graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_rule_census_on_corpus(corpus):
    # how often each (phase, rule) fires over every connected graph with
    # n <= 7; a rule that yields its picks in another order, or a fallback
    # chain that stops at another rung, moves a count
    census = Counter()
    for g in corpus:
        for entry in solve(g).trace:
            census[entry["phase"], entry.get("choice")] += 1
    assert census == {
        ("initial", "type3"): 1294,
        ("initial", "choice_1"): 341,
        ("initial", "choice_4"): 9,
        ("initial", "choice_1-weak"): 2,
        ("merge", "choice_8"): 90,
        ("merge", "choice_3"): 56,
        ("merge", "carried"): 29,
        ("merge", "choice_7"): 7,
        ("merge", "choice_2"): 5,
        ("merge", "choice_1-fallback"): 1,
        ("merge", "choice_6"): 1,
        ("merge", None): 106,
        ("prime", None): 204,
        ("complete", None): 7,
    }


def test_concavity_verdicts_and_witnesses_on_corpus(corpus, monkeypatch):
    # every member solve classifies: the verdict is t-concavity of its
    # interior, and a refuted member's witness is a non-adjacent pair
    # outside the interior whose interval meets it; a merged member whose
    # absorbed members carry such a pair takes the first of them
    counts = Counter()
    classify = solver._classify

    def checked(g, mem, parts=()):
        inside = mem.interior
        inherited = [p.witness for p in parts if p.witness and not p.witness & inside]
        classify(g, mem, parts)
        interior = frozenset(solver._members(inside))
        assert mem.concave == is_t_concave(g, interior)
        if mem.concave:
            assert mem.witness == 0
            return
        counts["refuted"] += 1
        a, c = solver._members(mem.witness)
        assert c not in g.adj[a]
        assert not {a, c} & interior
        assert toll_interval(g, a, c) & interior
        if inherited:
            assert mem.witness == inherited[0]
            counts["by parts"] += 1

    monkeypatch.setattr(solver, "_classify", checked)
    for g in corpus:
        solve(g)
    assert counts["refuted"] > counts["by parts"] > 0
