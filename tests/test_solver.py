from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import connected_graphs, random_trees, shape_graph, vid, vids
from tollhull import solver
from tollhull.check import compare_with_bruteforce
from tollhull.convexity import (
    IntervalKernel,
    extreme_vertices,
    interval_kernel,
    is_t_concave,
    toll_hull,
    toll_interval,
)
from tollhull.enumeration import enumerate_min_hull_sets
from tollhull.graph import (
    Graph,
    GraphError,
    c5,
    g12,
    generate,
    is_caterpillar,
    parse_graph6,
    star3,
    theta7,
)
from tollhull.oracles import bf_hull_number
from tollhull.solver import (
    TYPE1,
    TYPE2,
    TYPE3,
    SolverInvariantError,
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
    strong, weak = solver._type1(interval_kernel(g), m4)
    assert strong == weak == mask(g, "v11")


def test_choice_4_menu():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3), (4, 5)])
    wheel = solver._member(g, 0b11111, 0)
    assert solver._interior_pair(interval_kernel(g), wheel.interior) == 0b101
    # a clique interior holds no pair
    assert solver._interior_pair(interval_kernel(g), 0b10001) == 0


def test_choice_5_conditions_on_theta():
    # builds the merge by hand, triggered by side_z: the choice-5
    # conditions single out the far pair on the three-vertex side
    t = theta7()
    side_z = member(t, "s t z1 z2")
    side_p = member(t, "s t p r q")
    pair = solver._witnessed_pair(interval_kernel(t), (side_z, side_p), side_z.border)
    assert pair == (mask(t, "p q"), "choice_5")


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
        assert v not in g.adj[u]


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
        solver._check_family_invariants(g, new, [other], set())


def test_family_invariants_reject_non_clique_overlap():
    g = generate("cycle", 6)
    new = solver._member(g, 0b1111, 1)
    other = solver._member(g, 0b111001, 0)
    with pytest.raises(SolverInvariantError, match="not a clique"):
        solver._check_family_invariants(g, new, [other], set())


def test_merged_member_of_type_3_is_an_invariant_violation(monkeypatch):
    # a merged interior is never of type 3 (see _apply_merge_choice); made
    # to read as one, THETA7's merge must raise rather than take it all
    classify = solver.classify_type

    def merged_as_type3(g, interior):
        return TYPE3 if interior == (1 << g.n) - 1 else classify(g, interior)

    monkeypatch.setattr(solver, "classify_type", merged_as_type3)
    with pytest.raises(SolverInvariantError, match="type 3"):
        solve(theta7())


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


@pytest.mark.parametrize(
    "text, merge, label",
    [
        # the carried type-1 pick has no strong replacement on the merged
        # member, so the weak form keeps it
        ("Hh{HPOJ", (TYPE1, 1), "carried-weak"),
        # the strong rungs and choice_2-weak find no candidate
        ("GN{Pa_", (TYPE1, 0), "choice_3-weak"),
        # choice_1 no longer yields the carried pick on the merged member,
        # so the pick is dropped and a new one taken
        ("G?Cn|s", (TYPE1, 1), "reselected"),
        # the strong rungs find no candidate and the weak choice_2 does
        ("H??^{fY", (TYPE1, 0), "choice_2-weak"),
    ],
)
def test_weak_merge_rungs_fire(text, merge, label):
    # graphs outside the n <= 7 corpus that reach these rungs; over every
    # one-vertex extension of the connected graphs on up to 8 vertices, no
    # graph with n <= 7 fires reselected and none with n <= 8 fires
    # choice_2-weak, so those two are of the least order; the hull and
    # every minimum hull set still match brute force
    g = parse_graph6(text)
    r = solve(g)
    fired = [
        (e["type"], e["k"]) for e in r.trace
        if e["phase"] == "merge" and e["choice"] == label
    ]
    assert fired == [merge]
    assert r.hull_number == bf_hull_number(g) == 3
    assert toll_hull(g, r.hull_set) == frozenset(range(g.n))
    assert compare_with_bruteforce(g).complete


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


def test_empty_interior_is_an_invariant_violation():
    # {1, 2} of the path 0-1-2-3 is all border; no family member may be,
    # so classifying it is a solver bug (exit 2), not a user error
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(SolverInvariantError, match="empty interior"):
        solver._classify(g, solver._member(g, 0b110, 0))


def test_spider_floods_stay_linear(monkeypatch):
    # a kernel floods a component of G - N[u] only when one of its vertices
    # is read, and the spider's reads touch few components per vertex;
    # flooding every component of each side read would take about 100 n
    g = shape_graph("spider", 400)
    flood = IntervalKernel.flood
    calls = 0

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return flood(self, *args)

    monkeypatch.setattr(IntervalKernel, "flood", counted)
    solve(g)
    assert calls <= 10 * g.n
