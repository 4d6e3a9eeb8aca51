import random

import pytest
from hypothesis import given, settings

from conftest import components, connected_graphs, family_graphs, vids
from tollhull.atoms import _mcs_m, atoms
from tollhull.convexity import interval_kernel
from tollhull.graph import Graph, GraphError, _members, c5, g12, generate, k4, theta7
from tollhull.oracles import bf_atoms, bf_is_prime


def is_prime(g: Graph) -> bool:
    return len(atoms(g).atoms) == 1


def extremal(dec) -> list[frozenset[int]]:
    return [a for a, flag in zip(dec.atoms, dec.extremal_flags) if flag]


def test_primality_fixtures():
    assert is_prime(c5())
    assert is_prime(k4())
    assert not is_prime(theta7())
    with pytest.raises(GraphError):
        is_prime(Graph(4, [(0, 1), (2, 3)]))


def test_fig_decomposition():
    g = g12()
    dec = atoms(g)
    got = [frozenset(g.labels[v] for v in a) for a in dec.atoms]
    assert got == [
        frozenset("v1 v2 v3 v4 v5".split()),
        frozenset("v4 v5 v6 v7".split()),
        frozenset("v6 v7 v8 v9".split()),
        frozenset("v8 v9 v10 v11 v12".split()),
    ]
    assert dec.extremal_flags == (True, False, False, True)
    ext = extremal(dec)
    assert ext == [vids(g, "v1 v2 v3 v4 v5"), vids(g, "v8 v9 v10 v11 v12")]


def test_complete_graph_single_atom():
    dec = atoms(generate("complete", 5))
    assert dec.atoms == (frozenset(range(5)),)
    assert dec.extremal_flags == (False,)


def test_path_atoms_and_ends():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    dec = atoms(g)
    assert dec.atoms == (
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({2, 3}),
    )
    assert extremal(dec) == [frozenset({0, 1}), frozenset({2, 3})]


def test_theta_both_extremal(theta_graph):
    dec = atoms(theta_graph)
    assert len(dec.atoms) == 2
    assert dec.extremal_flags == (True, True)


def test_atom_order_is_deterministic():
    g = Graph(8, [(0, 1), (0, 6), (1, 6), (1, 5), (2, 5), (2, 7), (3, 4), (3, 5)])
    dec = atoms(g)
    assert list(dec.atoms) == sorted(dec.atoms, key=sorted)


@given(connected_graphs(max_n=8))
@settings(max_examples=80)
def test_atoms_match_bruteforce(g):
    got = [set(a) for a in atoms(g).atoms]
    want = [set(a) for a in bf_atoms(g)]
    assert got == want


def test_atoms_match_bruteforce_on_corpus(corpus):
    for g in corpus:
        assert list(atoms(g).atoms) == bf_atoms(g), g.edges()


@pytest.mark.parametrize("seed", [1, 2])
def test_tree_atoms_are_its_edges(seed):
    g = generate("random-tree", 150, seed=seed)
    dec = atoms(g)
    assert set(dec.atoms) == {frozenset(e) for e in g.edges()}
    leaf_edges = {a for a in dec.atoms if any(len(g.adj[v]) == 1 for v in a)}
    assert set(extremal(dec)) == leaf_edges


def test_two_tree_atoms_are_its_triangles():
    # each new vertex is joined to both ends of an existing edge, which
    # makes exactly one new triangle
    rng = random.Random(5)
    edges = [(0, 1), (0, 2), (1, 2)]
    triangles = {frozenset({0, 1, 2})}
    for v in range(3, 150):
        a, b = rng.choice(edges)
        edges += [(a, v), (b, v)]
        triangles.add(frozenset({a, b, v}))
    dec = atoms(Graph(150, edges))
    assert len(dec.atoms) == 148
    assert set(dec.atoms) == triangles


@given(connected_graphs(max_n=8))
@settings(max_examples=50)
def test_decomposition_invariants(g):
    dec = atoms(g)
    union = frozenset().union(*dec.atoms)
    assert union == frozenset(range(g.n))
    for u, v in g.edges():
        assert any(u in a and v in a for a in dec.atoms)
    for i, a in enumerate(dec.atoms):
        for b in dec.atoms[i + 1:]:
            assert g.is_clique(a & b)
    if len(dec.atoms) >= 2:
        assert sum(dec.extremal_flags) >= 2


@given(connected_graphs(max_n=7))
@settings(max_examples=40)
def test_atoms_are_prime_and_maximal(g):
    dec = atoms(g)
    for a in dec.atoms:
        sub, _ = g.subgraph(a)
        assert bf_is_prime(sub)
        for extra in set(range(g.n)) - a:
            bigger, _ = g.subgraph(a | {extra})
            assert not (bigger.is_connected() and bf_is_prime(bigger))


def atoms_by_minimality(g: Graph) -> tuple[frozenset[int], ...]:
    """The atoms by the scan that tries every vertex, not only the
    generators: whenever madj(x), cut down to the part not yet removed, is
    a clique of G and a minimal separator of that part (two components of
    the part minus it see every one of its vertices), the component of x
    is cut off.  The ordering is the set-based MCS-M's full run, so the
    scan shares no code with ``_mcs_m`` and visits every vertex.  Sorted as
    ``atoms`` sorts them."""
    k = interval_kernel(g)
    order, madj = mcs_m_by_definition(g)
    alive = k.full
    found = []
    for x in order:
        if not alive >> x & 1:
            continue
        sep = madj[x] & alive
        if not sep or not k.clique(sep):
            continue
        rest = alive & ~sep
        own, touched = k.flood(rest, 1 << x)
        full = not sep & ~touched
        rest ^= own
        while full < 2 and rest:
            comp, touched = k.flood(rest, rest & -rest)
            full += not sep & ~touched
            rest ^= comp
        if full >= 2:
            found.append(own | sep)
            alive ^= own
    found.append(alive)
    return tuple(frozenset(vs) for vs in sorted(_members(a) for a in found))


def connected_gnp(n: int, p: float, seed: int) -> Graph:
    while not (g := generate("gnp", n, p, seed=seed)).is_connected():
        seed += 1000
    return g


def test_generator_cuts_match_minimality_scan_on_families():
    # bf_atoms stops at n = 9; these reach n = 150
    for g in family_graphs((20, 60, 150)):
        assert atoms(g).atoms == atoms_by_minimality(g), sorted(g.edges())


@pytest.mark.parametrize("p", [0.1, 0.15, 0.2, 0.3])
def test_generator_cuts_match_minimality_scan_on_gnp(p):
    for n in range(10, 41, 3):
        for seed in range(3):
            g = connected_gnp(n, p, seed)
            assert atoms(g).atoms == atoms_by_minimality(g), sorted(g.edges())


def non_extremal_components(g: Graph) -> list[int]:
    """For each non-extremal atom A of a reducible g, the number of
    components of G - A, counted by the test-local ``components``."""
    dec = atoms(g)
    if len(dec.atoms) < 2:
        return []
    return [
        len(components(g, atom))
        for atom, extremal in zip(dec.atoms, dec.extremal_flags)
        if not extremal
    ]


@given(connected_graphs(max_n=8))
@settings(max_examples=50)
def test_non_extremal_atoms_disconnect(g):
    assert all(c >= 2 for c in non_extremal_components(g))


def test_non_extremal_atoms_disconnect_on_corpora(corpus, corpus_8):
    # the solver proves this instead of checking it (see _solve_reducible);
    # 563 such atoms come from n <= 7, 6,286 from n = 8 and 1,966 from the
    # benchmark families at n = 8, 20, 60 and 150, seeds 0-4
    graphs = corpus + corpus_8 + list(family_graphs((8, 20, 60, 150)))
    counts = []
    for g in graphs:
        got = non_extremal_components(g)
        assert all(c >= 2 for c in got), sorted(g.edges())
        counts += got
    assert len(counts) == 8815


@given(connected_graphs(max_n=8))
@settings(max_examples=50)
def test_primality_matches_bruteforce(g):
    assert is_prime(g) == bf_is_prime(g)


def mcs_m_by_definition(g: Graph) -> tuple[list[int], list[int]]:
    """MCS-M as Berry, Blair, Heggernes & Peyton state it, on plain sets.

    Number the heaviest unnumbered vertex v, the least one on a tie; then
    raise the weight of each unnumbered u that a path from v reaches
    through unnumbered vertices lighter than u only, and add v to madj(u).
    Returns (order, madj) for the full run: order lists every vertex in
    elimination order, lowest number first, and madj holds masks.
    """
    weight = [0] * g.n
    unnumbered = set(range(g.n))
    order = []
    madj = [0] * g.n
    while unnumbered:
        v = min(unnumbered, key=lambda u: (-weight[u], u))
        order.insert(0, v)
        unnumbered.remove(v)
        # ends[w]: the vertices next to v or to the part of G - (numbered
        # vertices) reached from v through vertices lighter than w
        ends: dict[int, set[int]] = {}
        raised = []
        for u in unnumbered:
            w = weight[u]
            if w not in ends:
                inner = {x for x in unnumbered if weight[x] < w}
                ends[w] = _path_ends(g, v, inner)
            if u in ends[w]:
                raised.append(u)
        for u in raised:
            weight[u] += 1
            madj[u] |= 1 << v
    return order, madj


def _path_ends(g: Graph, v: int, inner: set[int]) -> set[int]:
    """The vertices that end a path from v whose inner vertices lie in
    inner."""
    ends, stack, seen = set(), [v], {v}
    while stack:
        x = stack.pop()
        for y in g.adj[x]:
            ends.add(y)
            if y in inner and y not in seen:
                seen.add(y)
                stack.append(y)
    return ends


def assert_mcs_m_matches_definition(g: Graph) -> None:
    """``_mcs_m`` numbers the definition's last vertices with the same
    madj, and stops only where every vertex left has a madj, in the full
    run, that is not a clique of G."""
    order, madj = _mcs_m(interval_kernel(g))
    want_order, want_madj = mcs_m_by_definition(g)
    assert order == want_order[len(want_order) - len(order):], g.edges()
    for v in order:
        assert madj[v] == want_madj[v], (v, g.edges())
    for v in set(range(g.n)) - set(order):
        assert not g.is_clique(_members(want_madj[v])), (v, g.edges())


def test_mcs_m_matches_definition_on_corpus(corpus):
    for g in corpus:
        assert_mcs_m_matches_definition(g)


@given(connected_graphs(max_n=12))
@settings(max_examples=80)
def test_mcs_m_matches_definition(g):
    assert_mcs_m_matches_definition(g)


@pytest.mark.parametrize("p", [0.1, 0.3])
@pytest.mark.parametrize("n", [60, 90, 120])
def test_mcs_m_matches_definition_on_gnp(n, p):
    # the atoms are the same for every minimal ordering, so comparing them
    # with bf_atoms cannot see an ordering that changed; this can
    seed = 0
    while not (g := generate("gnp", n, p, seed=seed)).is_connected():
        seed += 1
    assert_mcs_m_matches_definition(g)


def test_mcs_m_stops_before_numbering_every_vertex():
    # on this sparse prime G(n, p) every unnumbered vertex soon holds
    # a non-edge in its madj, so the ordering stops well short of n
    g = connected_gnp(200, 0.1, 0)
    order, _ = _mcs_m(interval_kernel(g))
    assert len(order) < g.n
    assert atoms(g).atoms == atoms_by_minimality(g)
