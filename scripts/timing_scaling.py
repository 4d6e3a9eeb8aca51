#!/usr/bin/env python3
"""Wall-clock scaling of the hull solver.

By default, times the full pipeline (decomposition, primality, selection)
on connected gnp graphs at a fixed edge probability across a grid of sizes
and prints the growth ratio between consecutive sizes.  The solver is
quartic in the worst case; on sparse random inputs the prime fast path
dominates.

  python scripts/timing_scaling.py --sizes 50,100,200,400 --p 0.1

With ``--families``, times ``solve`` on the five reducible families of
``perfbench/families.py`` (tree, caterpillar, cactus, 2-tree and chain of
prime blocks), each graph drawn from ``random.Random(SEED)`` and relabelled
by ``families.edge_text`` as the benchmark does, and prints for each size
after the first the growth exponent log(t2 / t1) / log(n2 / n1) against
the size before it; on a doubling grid that is log2 of the time ratio.

  python scripts/timing_scaling.py --families --sizes 150,300,600,1200,2400 --repeats 1
"""
import argparse
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tollhull.graph import generate, parse_graph  # noqa: E402
from tollhull.solver import solve  # noqa: E402

SEED = 1  # seed of every family graph


def connected_gnp(n: int, p: float):
    seed = 0
    while True:
        g = generate("gnp", n, p, seed=seed)
        if g.is_connected():
            return g, seed
        seed += 1


def best_time(g, repeats: int):
    """The least wall time of ``repeats`` calls of ``solve(g)``, with the
    last result."""
    best = result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = solve(g)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def run_gnp(sizes, p: float, repeats: int) -> None:
    previous = None
    for n in sizes:
        g, seed = connected_gnp(n, p)
        best, result = best_time(g, repeats)
        ratio = "" if previous is None else f" x{best / previous:.1f}"
        print(
            f"n={n:5d} m={g.m:6d} seed={seed} prime={result.prime} "
            f"hull={result.hull_number} time={best * 1000:9.2f}ms{ratio}"
        )
        previous = best


def run_families(sizes, repeats: int) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import families

    for name, make in families.FAMILIES.items():
        previous = None
        for n in sizes:
            rng = random.Random(SEED)
            g = parse_graph(families.edge_text(n, make(n, rng), rng), "edge-list")
            best, result = best_time(g, repeats)
            growth = ""
            if previous is not None:
                n0, t0 = previous
                growth = f" exponent={math.log(best / t0) / math.log(n / n0):5.2f}"
            print(
                f"{name:12s} n={n:5d} m={g.m:6d} hull={result.hull_number:5d} "
                f"time={best * 1000:10.1f}ms{growth}",
                flush=True,
            )
            previous = n, best


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--families", action="store_true",
                    help="time the perfbench reducible families instead of gnp graphs")
    ap.add_argument("--sizes", default=None,
                    help="comma-separated vertex counts (default 50,100,200,400, "
                         "or 150,300,600,1200,2400 with --families)")
    ap.add_argument("--p", type=float, default=0.1)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    default = "150,300,600,1200,2400" if args.families else "50,100,200,400"
    sizes = [int(tok) for tok in (args.sizes or default).split(",")]
    if args.families:
        run_families(sizes, args.repeats)
    else:
        run_gnp(sizes, args.p, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
