#!/usr/bin/env python3
"""Wall-clock scaling of the hull solver.

By default, times the full pipeline (decomposition, primality, selection),
``atoms`` (the decomposition alone) and ``parse_graph`` of the graph's
edge list (``to_edge_list`` of it) on connected gnp graphs at a fixed edge
probability across a grid of sizes.  The solver is quartic in the worst
case; on sparse random inputs the prime fast path dominates.  On the
families below, two runs of ``--families --sizes 1200,2400 --repeats 1``
(2-core Xeon VM, Python 3.11) measured these exponents of ``solve``:
cactus 1.5, caterpillar 2.1-2.3, spider 2.2-2.5, broom 2.3-2.5,
prime-chain 2.5-3.0, 2-tree 4.6-4.7 and tree 4.4-4.8.  The trees and
2-trees spend most of that in the solver's pair scan.

  python scripts/timing_scaling.py --sizes 50,100,200,400 --p 0.1

With ``--families``, times ``solve``, ``extreme_vertices``, ``atoms``
(the decomposition alone, also part of ``solve``) and ``parse_graph`` of
the graph's edge-list text on the five reducible families of
``perfbench/families.py`` (tree, caterpillar, cactus, 2-tree and chain of
prime blocks) and on the two trees of ``SHAPES`` below (spider and
broom), each graph drawn from ``random.Random(SEED)`` and relabelled by
``families.edge_text`` as the benchmark does.  The shapes stay out of
``families.FAMILIES``, which defines the benchmark's ``reducible``
workload.

Every repeat runs on a freshly built graph: a graph keeps the interval
kernel of its first call, so a second call on it would time a warm kernel.

Both modes print the best time of the repeats and, for each size after
the first, the growth exponent log(t2 / t1) / log(n2 / n1) of the solve
time against the size before it; on a doubling grid that is log2 of the
time ratio.

  python scripts/timing_scaling.py --families --sizes 150,300,600,1200,2400 --repeats 1

Sizes that are not integers or do not ascend from 1 (4 with --families),
a --p outside (0, 1] and a --repeats below 1 are usage errors (exit 2).
"""
import argparse
import math
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tollhull.atoms import atoms  # noqa: E402
from tollhull.convexity import extreme_vertices  # noqa: E402
from tollhull.graph import generate, parse_graph, to_edge_list  # noqa: E402
from tollhull.solver import solve  # noqa: E402

SEED = 1  # seed of every family graph


def spider(n: int, rng: random.Random):
    """A hub, vertex 0, with legs of length 2, and one of length 1 when n is
    even."""
    return [(0 if v % 2 else v - 1, v) for v in range(1, n)]


def broom(n: int, rng: random.Random):
    """A path on n // 2 vertices, the handle, with every other vertex a
    leaf on its last one."""
    end = n // 2 - 1
    return [(v - 1, v) for v in range(1, end + 1)] + [(end, v) for v in range(end + 1, n)]


# trees slower than every perfbench family for their size, both made
# without randomness (``families.edge_text`` still relabels them)
SHAPES = {"spider": spider, "broom": broom}


def connected_gnp(n: int, p: float):
    seed = 0
    while True:
        g = generate("gnp", n, p, seed=seed)
        if g.is_connected():
            return g, seed
        seed += 1


def best_time(fresh, run, repeats: int):
    """The least wall time of ``repeats`` calls of ``run(fresh())``, with
    the last result.  Building the graph is not timed."""
    best = result = None
    for _ in range(repeats):
        g = fresh()
        t0 = time.perf_counter()
        result = run(g)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def growth(previous, n: int, best: float) -> str:
    """The exponent against the (size, time) before, or "" for the first
    size."""
    if previous is None:
        return ""
    n0, t0 = previous
    return f" exponent={math.log(best / t0) / math.log(n / n0):5.2f}"


def run_gnp(sizes, p: float, repeats: int) -> None:
    previous = None
    for n in sizes:
        g, seed = connected_gnp(n, p)

        def fresh():
            return generate("gnp", n, p, seed=seed)

        best, result = best_time(fresh, solve, repeats)
        decomposed, _ = best_time(fresh, atoms, repeats)
        text = to_edge_list(g)
        parsed, _ = best_time(lambda: text, parse_graph, repeats)
        print(
            f"n={n:5d} m={g.m:6d} seed={seed} prime={result.prime} "
            f"hull={result.hull_number} time={best * 1000:9.2f}ms "
            f"atoms={decomposed * 1000:9.2f}ms parse={parsed * 1000:9.2f}ms"
            f"{growth(previous, n, best)}",
            flush=True,
        )
        previous = n, best


def run_families(sizes, repeats: int) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import families

    for name, make in {**families.FAMILIES, **SHAPES}.items():
        previous = None
        for n in sizes:
            rng = random.Random(SEED)
            text = families.edge_text(n, make(n, rng), rng)

            def fresh():
                return parse_graph(text, "edge-list")

            best, result = best_time(fresh, solve, repeats)
            extreme, _ = best_time(fresh, extreme_vertices, repeats)
            decomposed, _ = best_time(fresh, atoms, repeats)
            parsed, _ = best_time(lambda: text, parse_graph, repeats)
            print(
                f"{name:12s} n={n:5d} m={fresh().m:6d} hull={result.hull_number:5d} "
                f"time={best * 1000:10.1f}ms extreme={extreme * 1000:9.1f}ms "
                f"atoms={decomposed * 1000:9.1f}ms parse={parsed * 1000:9.1f}ms"
                f"{growth(previous, n, best)}",
                flush=True,
            )
            previous = n, best


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--families", action="store_true",
                    help="time the perfbench reducible families, the spider and the "
                         "broom instead of gnp graphs")
    ap.add_argument("--sizes", default=None,
                    help="comma-separated vertex counts, ascending, each at least 1, "
                         "or 4 with --families (default 50,100,200,400, "
                         "or 150,300,600,1200,2400 with --families)")
    ap.add_argument("--p", type=float, default=0.1,
                    help="edge probability of the gnp graphs, in (0, 1]")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    default = "150,300,600,1200,2400" if args.families else "50,100,200,400"
    try:
        sizes = [int(tok) for tok in (args.sizes or default).split(",")]
    except ValueError:
        ap.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    least = 4 if args.families else 1  # a chain of prime blocks needs 4
    if sizes[0] < least or any(a >= b for a, b in zip(sizes, sizes[1:])):
        ap.error(f"--sizes must ascend from at least {least}, got {args.sizes!r}")
    # p = 0 leaves every graph on two or more vertices disconnected, and
    # the search for a connected one would never end
    if not 0 < args.p <= 1:
        ap.error(f"--p must be in (0, 1], got {args.p}")
    if args.repeats < 1:
        ap.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.families:
        run_families(sizes, args.repeats)
    else:
        run_gnp(sizes, args.p, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
