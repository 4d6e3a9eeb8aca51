#!/usr/bin/env python3
"""Build the exhaustive corpus of connected graphs up to isomorphism.

Starts from the one-vertex graph and repeatedly attaches a new vertex with
every non-empty neighborhood; every connected graph on n+1 vertices arises
this way from a connected graph on n vertices, because some vertex of any
connected graph can be removed without disconnecting it.  Isomorphs are
collapsed through a canonical form: the minimum upper-triangle bit pattern
over all vertex permutations (vectorized with numpy; about 3 ms a
candidate at n = 8, so the 853 * 127 eight-vertex candidates take about
5.5 minutes).

Writes one graph6 line per graph, sorted by order then by encoding: the
orders 1..7 to tests/data/connected_le7.g6 (or the path given as the one
argument) and the 8-vertex graphs to connected_8.g6 beside it.  Expected
counts per order: 1, 1, 2, 6, 21, 112, 853, 11117.

  python scripts/gen_corpus.py
"""
import sys
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tollhull.graph import Graph, to_graph6  # noqa: E402

EXPECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def pair_index(i: int, j: int) -> int:
    # graph6 column-major position of the pair (i < j)
    return j * (j - 1) // 2 + i


def perm_tables(n: int) -> np.ndarray:
    npairs = n * (n - 1) // 2
    tables = np.empty((0, npairs), dtype=np.int64)
    rows = []
    for p in permutations(range(n)):
        row = np.empty(npairs, dtype=np.int64)
        for i, j in combinations(range(n), 2):
            a, b = p[i], p[j]
            if a > b:
                a, b = b, a
            row[pair_index(i, j)] = pair_index(a, b)
        rows.append(row)
    tables = np.vstack(rows)
    return tables


def bits_of(n: int, edges: frozenset) -> np.ndarray:
    out = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for i, j in edges:
        out[pair_index(i, j)] = 1
    return out


def canonical_code(bits: np.ndarray, tables: np.ndarray, weights: np.ndarray) -> int:
    return int((bits[tables] @ weights).min())


def decode_canonical(code: int, n: int) -> frozenset:
    npairs = n * (n - 1) // 2
    edges = set()
    for pos, (i, j) in enumerate(
        (i, j) for j in range(1, n) for i in range(j)
    ):
        if code & (1 << (npairs - 1 - pos)):
            edges.add((i, j))
    return frozenset(edges)


def grow(max_n: int = 7):
    graphs: dict[int, dict[int, frozenset]] = {1: {0: frozenset()}}
    for n in range(2, max_n + 1):
        tables = perm_tables(n)
        npairs = n * (n - 1) // 2
        weights = 1 << np.arange(npairs - 1, -1, -1, dtype=np.int64)
        reps: dict[int, frozenset] = {}
        for edges in graphs[n - 1].values():
            for mask in range(1, 1 << (n - 1)):
                new_edges = set(edges)
                for v in range(n - 1):
                    if mask & (1 << v):
                        new_edges.add((v, n - 1))
                code = canonical_code(bits_of(n, frozenset(new_edges)), tables, weights)
                if code not in reps:
                    reps[code] = decode_canonical(code, n)
        graphs[n] = reps
    return graphs


def main():
    out_path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "tests" / "data" / "connected_le7.g6"
    )
    graphs = grow(8)
    lines: dict[int, list[str]] = {}
    for n in sorted(graphs):
        count = len(graphs[n])
        status = "ok" if EXPECTED.get(n) == count else f"EXPECTED {EXPECTED.get(n)}"
        print(f"n={n}: {count} connected graphs ({status})")
        assert count == EXPECTED[n], f"corpus count mismatch at n={n}"
        lines[n] = sorted(
            to_graph6(Graph(n, edges)) for edges in graphs[n].values()
        )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    files = [
        (out_path, [line for n in range(1, 8) for line in lines[n]]),
        (out_path.with_name("connected_8.g6"), lines[8]),
    ]
    for path, text in files:
        path.write_text("\n".join(text) + "\n")
        print(f"wrote {len(text)} graphs to {path}")


if __name__ == "__main__":
    main()
