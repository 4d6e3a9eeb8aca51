"""Tests of the benchmark's own parts: the graph families, the traced layer
calls and the guard that refuses to run outside a checkout.

  python3 -m pytest -q perfbench
"""
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tollhull import convexity, enumeration, oracles, solver  # noqa: E402
from tollhull.atoms import atoms  # noqa: E402
from tollhull.graph import Graph, is_caterpillar, is_tree, parse_edge_list  # noqa: E402


def _graph(make, n, seed):
    rng = random.Random(seed)
    return parse_edge_list(families.edge_text(n, make(n, rng), rng))


def _blocks(g: Graph) -> list[set[int]]:
    """Biconnected components (edges count as blocks), by the iterative
    Hopcroft-Tarjan edge-stack search."""
    disc = [-1] * g.n
    low = [0] * g.n
    out, edges, clock = [], [], 0
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(sorted(g.adj[root])))]
        while stack:
            v, parent, it = stack[-1]
            w = next(it, None)
            if w is None:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        block = set()
                        while True:
                            a, b = edges.pop()
                            block |= {a, b}
                            if (a, b) == (parent, v):
                                break
                        out.append(block)
            elif disc[w] < 0:
                disc[w] = low[w] = clock
                clock += 1
                edges.append((v, w))
                stack.append((w, v, iter(sorted(g.adj[w]))))
            elif w != parent and disc[w] < disc[v]:
                edges.append((v, w))
                low[v] = min(low[v], disc[w])
    return out


def _edge_count(g: Graph, vs: set[int]) -> int:
    return sum(len(g.adj[v] & vs) for v in vs) // 2


def _is_cactus(g: Graph) -> bool:
    """Every block is an edge or a cycle."""
    return all(len(b) == 2 or _edge_count(g, b) == len(b) for b in _blocks(g))


def _is_two_tree(g: Graph) -> bool:
    """Peeling degree-2 vertices with adjacent neighbours ends at one edge."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    if g.m != 2 * g.n - 3:
        return False
    while len(adj) > 2:
        v = next((v for v, nb in adj.items() if len(nb) == 2 and min(nb) in adj[max(nb)]), None)
        if v is None:
            return False
        for w in adj.pop(v):
            adj[w].discard(v)
    return True


def _is_prime_chain(g: Graph) -> bool:
    """Blocks of at least four vertices, each without a clique separator,
    whose block graph is a path."""
    blocks = _blocks(g)
    cut = {v for v in range(g.n) if sum(v in b for b in blocks) > 1}
    if any(sum(v in b for b in blocks) > 2 for v in cut):
        return False
    for b in blocks:
        if len(b) < 4 or len(b & cut) > 2:
            return False
        sub, _ = g.subgraph(b)
        if not oracles.bf_is_prime(sub):
            return False
    return True


PROPERTY = {
    "tree": is_tree,
    "caterpillar": is_caterpillar,
    "cactus": _is_cactus,
    "2-tree": _is_two_tree,
    "prime-chain": _is_prime_chain,
}


@pytest.mark.parametrize("family", list(families.FAMILIES))
@pytest.mark.parametrize("n", [8, 13, workloads.REDUCIBLE_N])
def test_family_graphs_are_connected_reducible_members(family, n):
    for seed in range(4):
        g = _graph(families.FAMILIES[family], n, seed)
        assert g.n == n and g.is_connected()
        assert PROPERTY[family](g)
        assert len(atoms(g).atoms) > 1


def test_cactus_property_rejects_a_chorded_cycle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert not _is_cactus(g)
    assert not _is_two_tree(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


@pytest.mark.parametrize("family", list(families.FAMILIES))
def test_solve_matches_brute_force_hull_number(family):
    for n in range(5, 11):
        for seed in range(3):
            g = _graph(families.FAMILIES[family], n, seed)
            assert solver.solve(g).hull_number == oracles.bf_hull_number(g)


@pytest.mark.parametrize("family", list(families.FAMILIES))
def test_extreme_vertices_match_brute_force(family):
    for n in range(5, 10):
        for seed in range(3):
            g = _graph(families.FAMILIES[family], n, seed)
            assert convexity.extreme_vertices(g) == oracles.bf_extreme_vertices(g)


def test_gnp_inputs_are_connected_and_prime():
    for inp in workloads.build("prime-gnp", 1):
        g = parse_edge_list(inp.text)
        assert g.is_connected() and len(atoms(g).atoms) == 1


def test_inputs_depend_only_on_the_seed():
    assert workloads.build("reducible", 7) == workloads.build("reducible", 7)
    assert workloads.build("reducible", 7) != workloads.build("reducible", 8)


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()
    leaf = tr.wrap("convexity.toll_interval", lambda: None)
    outer = tr.wrap("solver", lambda: [leaf(), leaf()])
    outer()
    c = tr.cols
    dur = [e - s for s, e in zip(c["start"], c["end"])]
    got = tr.summary(0, len(tr))
    assert got["convexity.toll_interval.calls"] == 2
    assert got["solver.pair_scan.intervals"] == 2
    assert got["solver.self_s"] == pytest.approx(dur[0] - dur[1] - dur[2])


def test_traced_round_keeps_outputs_and_restores_the_package(tmp_path):
    inputs = workloads.build("corpus-le7", 0)[:40] + workloads.build("reducible", 0)[:1]
    saved = (solver.atoms, solver.toll_interval, convexity.toll_interval, enumeration.toll_hull)
    plain = bench.Rounds(inputs, bench.Speed())
    plain.run(bench.Layers(), bench.OPS)
    tr = tracing.Tracer()
    with tracing.patched(tr):
        plain.run(bench.Layers(tr), bench.traced_ops(tr), timed=False)
    assert not plain.unstable
    assert (solver.atoms, solver.toll_interval, convexity.toll_interval, enumeration.toll_hull) == saved
    got = tr.summary(0, len(tr))
    assert got["atoms.calls"] > 0 and got["convexity.toll_interval.calls"] > 0
    assert got["enumeration.sets"] == sum(len(plain.first[(i, "enumerate")]) for i in range(len(inputs)))
    assert got["enumeration.candidates"] == got["enumeration.sets"]
    tr.write(tmp_path / "t.bin")
    names, cols = tracing.load_spans(tmp_path / "t.bin")
    assert names == tr.names and cols["end"] == tr.cols["end"]


def test_scaled_time_drops_samples_and_divides_by_their_median():
    speed = bench.Speed()
    speed.at = [1.0 + 0.1 * k for k in range(10)]
    speed.took = [0.002] * 10
    # ten samples of 2 ms inside a 2 s span, on a machine five times slower
    # than the reference
    assert speed.scaled(0.5, 2.5) == pytest.approx((2.0 - 0.02) * bench.REF_SECONDS / 0.002)
    # a span too short to hold samples borrows the ones around it
    assert speed.scaled(1.42, 1.43) == pytest.approx(0.01 * bench.REF_SECONDS / 0.002)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reducible", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 2 and p.stdout == ""
