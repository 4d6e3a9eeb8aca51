#!/usr/bin/env python3
"""Sweep the solver against the brute-force oracles and report.

Two modes, combinable:

  --corpus FILE      every graph of a graph6 corpus (hull number, closure,
                     all-pairs interval, extreme-vertex and atom agreement,
                     enumeration census)
  --random N         N seeded random connected graphs on up to --max-n
                     vertices (hull number, closure, all-pairs interval,
                     extreme-vertex, atom and enumeration agreement)

Both modes also check, on every graph, that each non-extremal atom
disconnects it (``Graph.components`` of the graph minus the atom), the
fact the solver proves instead of checking, and that the solver's
extreme vertices are those of ``extreme_vertices``.

Extreme vertices and enumeration are compared with ``bf_extreme_vertices``
and ``bf_all_min_hull_sets`` on graphs with at most ``MAX_ENUM_N``
vertices; a minimum hull set the stream misses counts as a discrepancy.
Atoms are compared with ``bf_atoms`` on every corpus graph and on random
graphs with at most ``MAX_ATOMS_N`` vertices.

The closure of the solver's hull set is checked with the brute-force
``bf_hull``, not with the production ``toll_hull``.

At the end of each mode the sweep prints its rule census: how often each
selection rule fired in the solver's trace, by phase (``initial`` or
``merge``), the member's type, for a merge k (how many absorbed members
were already t-concave), and rule label.

The corpus mode takes about 12 s on ``tests/data/connected_le7.g6`` (one
core, Python 3.11).

Exits non-zero on any discrepancy.  Typical use:

  python scripts/oracle_sweep.py --corpus tests/data/connected_le7.g6
  python scripts/oracle_sweep.py --random 10000 --max-n 9
"""
import argparse
import itertools
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tollhull.atoms import atoms  # noqa: E402
from tollhull.convexity import extreme_vertices, toll_interval  # noqa: E402
from tollhull.enumeration import compare_with_bruteforce  # noqa: E402
from tollhull.graph import Graph, parse_graph6_file  # noqa: E402
from tollhull.oracles import (  # noqa: E402
    MAX_ENUM_N,
    bf_atoms,
    bf_extreme_vertices,
    bf_hull,
    bf_hull_number,
    bf_toll_interval,
)
from tollhull.solver import solve  # noqa: E402

# bf_atoms costs about 31 ms a graph at n=9
MAX_ATOMS_N = 8


def interval_mismatches(g: Graph) -> int:
    bad = 0
    for x, y in itertools.combinations(range(g.n), 2):
        if toll_interval(g, x, y) != bf_toll_interval(g, x, y):
            print(f"interval mismatch on {sorted(g.edges())} at ({x},{y})")
            bad += 1
    return bad


def hull_mismatch(g: Graph, r, rules: Counter) -> bool:
    """The solver's result ``r`` has a hull number or closure that
    disagrees with brute force; the rules that fired in its trace are
    counted into ``rules``."""
    rules.update(
        (e["phase"], e["type"], e.get("k"), e["choice"])
        for e in r.trace if e.get("choice") is not None
    )
    want = bf_hull_number(g)
    if r.hull_number != want or bf_hull(g, r.hull_set) != frozenset(range(g.n)):
        print(f"hull mismatch on {sorted(g.edges())}: {r.hull_number} vs {want}")
        return True
    return False


def extreme_mismatches(g: Graph, r) -> int:
    """``extreme_vertices`` disagrees with the solver's result ``r`` and,
    up to ``MAX_ENUM_N`` vertices, with brute force."""
    got = extreme_vertices(g)
    bad = 0
    if r.extreme_vertices != got:
        print(f"solver extreme mismatch on {sorted(g.edges())}")
        bad += 1
    if g.n <= MAX_ENUM_N and got != bf_extreme_vertices(g):
        print(f"extreme mismatch on {sorted(g.edges())}")
        bad += 1
    return bad


def atoms_mismatch(g: Graph) -> bool:
    if list(atoms(g).atoms) != bf_atoms(g):
        print(f"atoms mismatch on {sorted(g.edges())}")
        return True
    return False


def non_extremal_connected(g: Graph) -> int:
    """The non-extremal atoms whose removal leaves the graph connected."""
    dec = atoms(g)
    if len(dec.atoms) < 2:
        return 0
    bad = 0
    for atom, extremal in zip(dec.atoms, dec.extremal_flags):
        if not extremal and len(g.components(atom)) < 2:
            print(
                f"non-extremal atom {sorted(atom)} leaves {sorted(g.edges())} connected"
            )
            bad += 1
    return bad


def enumeration_incomplete(g: Graph) -> bool:
    report = compare_with_bruteforce(g)
    if not report.complete:
        print(
            f"enumeration misses {len(report.missing)} of "
            f"{len(report.reference)} sets on {sorted(g.edges())}"
        )
    return not report.complete


def print_census(rules: Counter) -> None:
    """One line per arm: phase, type and, for a merge, k."""
    arms: dict[tuple, list[str]] = {}
    for (phase, ctype, k, label), n in sorted(rules.items()):
        arms.setdefault((phase, ctype, k), []).append(f"{label} {n}")
    for (phase, ctype, k), fired in arms.items():
        arm = f"type {ctype}" if k is None else f"type {ctype} k={k}"
        print(f"  {phase} {arm}: " + ", ".join(fired))


def sweep_corpus(path: str) -> int:
    graphs = parse_graph6_file(Path(path).read_text())
    bad = 0
    enumerations = {"complete": 0, "incomplete": 0}
    rules: Counter = Counter()
    started = time.perf_counter()
    for g in graphs:
        r = solve(g)
        bad += interval_mismatches(g) + hull_mismatch(g, r, rules) + atoms_mismatch(g)
        bad += extreme_mismatches(g, r) + non_extremal_connected(g)
        if g.n <= MAX_ENUM_N:
            incomplete = enumeration_incomplete(g)
            enumerations["incomplete" if incomplete else "complete"] += 1
            bad += incomplete
    elapsed = time.perf_counter() - started
    print(
        f"corpus: {len(graphs)} graphs, {bad} discrepancies, "
        f"enumeration {enumerations['complete']} complete / "
        f"{enumerations['incomplete']} incomplete, {elapsed:.1f}s"
    )
    print_census(rules)
    return bad


def sweep_random(count: int, max_n: int, seed: int) -> int:
    rng = random.Random(seed)
    bad = checked = 0
    rules: Counter = Counter()
    started = time.perf_counter()
    while checked < count:
        n = rng.randint(2, max_n)
        p = rng.choice([0.15, 0.25, 0.4, 0.6, 0.8])
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < p
        ]
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        checked += 1
        r = solve(g)
        bad += interval_mismatches(g) + hull_mismatch(g, r, rules)
        bad += extreme_mismatches(g, r) + non_extremal_connected(g)
        if n <= MAX_ATOMS_N:
            bad += atoms_mismatch(g)
        if n <= MAX_ENUM_N:
            bad += enumeration_incomplete(g)
    elapsed = time.perf_counter() - started
    print(f"random: {checked} graphs, {bad} discrepancies, {elapsed:.1f}s")
    print_census(rules)
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", default=None)
    ap.add_argument("--random", type=int, default=0)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--seed", type=int, default=31337)
    args = ap.parse_args()
    bad = 0
    if args.corpus:
        bad += sweep_corpus(args.corpus)
    if args.random:
        bad += sweep_random(args.random, args.max_n, args.seed)
    if not args.corpus and not args.random:
        ap.error("nothing to do: pass --corpus and/or --random")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
