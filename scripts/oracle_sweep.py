"""Sweep the solver against the brute-force oracles and report.

Two modes, combinable:

  --corpus FILE      every graph of a graph6 corpus, with an enumeration
                     census
  --random N         N seeded random connected graphs on up to --max-n
                     vertices

Every graph runs the checks of ``tollhull verify``, from the one function
``tollhull.check.check``, on the solver's result: the closure of the hull
set (``bf_hull`` up to 12 vertices, ``toll_hull`` above), the hull number
and every pair's toll interval against brute force up to 12 vertices;
atoms, the enumeration stream and ``extreme_vertices`` against brute force
up to 9; and at any size, that the solver's extreme vertices are those of
``extreme_vertices`` and that each non-extremal atom disconnects the
graph, the fact the solver proves instead of checking.  A graph that
fails prints ``mismatch on <edges>: <names>``, one name per failed check,
and each failed check counts as one discrepancy.

At the end of each mode the sweep prints its rule census: how often each
selection rule fired in the solver's trace, by phase (``initial`` or
``merge``), the member's type, for a merge k (how many absorbed members
were already t-concave), and rule label.

On one core of a shared 2-core VM (Python 3.11) the corpus mode takes
about 1.5 s on ``tests/data/connected_le7.g6`` and 17-24 s on
``tests/data/connected_8.g6``, and ``--random 10000`` 9-12 s.

Exits non-zero on any discrepancy, and with a usage error on a corpus
that cannot be read (missing, a directory, bytes that do not decode),
holds no graph, or has a line that does not parse or holds a graph that
has no vertices or is not connected (the error names the line), on a
negative --random or on a --max-n below 2.  Typical use:

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

from tollhull.check import check  # noqa: E402
from tollhull.cli import read_graphs  # noqa: E402
from tollhull.graph import Graph, GraphError  # noqa: E402
from tollhull.solver import solve  # noqa: E402


def sweep_one(g: Graph, rules: Counter) -> dict:
    """Solve ``g``, count the rules that fired in its trace into ``rules``,
    and return the ``check`` report, printing the checks that failed."""
    r = solve(g)
    rules.update(
        (e["phase"], e["type"], e.get("k"), e["choice"])
        for e in r.trace if e.get("choice") is not None
    )
    report = check(g, r)
    if not report["agreement"]:
        names = ", ".join(report["mismatches"])
        print(f"mismatch on {sorted(g.edges())}: {names}")
    return report


def print_census(rules: Counter) -> None:
    """One line per arm: phase, type and, for a merge, k."""
    arms: dict[tuple, list[str]] = {}
    for (phase, ctype, k, label), n in sorted(rules.items()):
        arms.setdefault((phase, ctype, k), []).append(f"{label} {n}")
    for (phase, ctype, k), fired in arms.items():
        arm = f"type {ctype}" if k is None else f"type {ctype} k={k}"
        print(f"  {phase} {arm}: " + ", ".join(fired))


def sweep_corpus(graphs: list[Graph]) -> int:
    bad = 0
    enumerations = {"complete": 0, "incomplete": 0}
    rules: Counter = Counter()
    started = time.perf_counter()
    for g in graphs:
        report = sweep_one(g, rules)
        bad += len(report.get("mismatches", ()))
        if report["enumeration_complete"] is not None:
            state = "complete" if report["enumeration_complete"] else "incomplete"
            enumerations[state] += 1
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
        bad += len(sweep_one(g, rules).get("mismatches", ()))
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
    # a gate that checks nothing must not pass
    if args.random < 0:
        ap.error("--random must be at least 0")
    if args.max_n < 2:
        ap.error("--max-n must be at least 2")
    graphs = []
    if args.corpus:
        try:
            graphs = [g for _, g in read_graphs(args.corpus, "graph6", None)]
        except GraphError as exc:
            ap.error(str(exc))
        if not graphs:
            ap.error(f"no graph in {args.corpus}")
    bad = 0
    if graphs:
        bad += sweep_corpus(graphs)
    if args.random:
        bad += sweep_random(args.random, args.max_n, args.seed)
    if not args.corpus and not args.random:
        ap.error("nothing to do: pass --corpus and/or --random")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
