"""The benchmark's workloads and the inputs each one is built from.

An input is the text of one graph (an edge list for generated graphs, a
graph6 line for the corpus) plus the operations to run on it.  Every input
is a pure function of the workload name and the seed.

Run as a script, this module builds one workload's inputs and exits; the
benchmark times that as its set-up.  With ``--describe`` it prints the
make-up of each input instead (family, n, m, atom count, hull number):

  python3 perfbench/workloads.py --workload reducible --seed 1 --describe
"""
from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402
from tollhull.atoms import atoms  # noqa: E402
from tollhull.graph import parse_graph  # noqa: E402
from tollhull.solver import solve  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "connected_le7.g6"

OPS = ("hull", "closure", "extreme", "enumerate")

REDUCIBLE_N = 150
# more graphs per family that run hull alone: the time of ``solve`` turns on
# a graph's structure far more than closure's does, and it costs little
REDUCIBLE_HULL_ONLY = 3
# sets taken from enumerate on generated graphs; the corpus runs to the end
ENUM_LIMIT = 2
GNP_P = 0.1
GNP_SIZES = (200, 250, 300, 400)
# hull runs at every size; the other operations, which compute the toll
# interval of every pair, only at the smallest (at n=400 one closure alone
# takes about 13 s, longer than a whole round)
GNP_ALL_OPS_N = 200

WORKLOADS = ("reducible", "prime-gnp", "corpus-le7")


@dataclass(frozen=True)
class Input:
    label: str
    fmt: str  # "edge-list" or "graph6", as ``tollhull.graph.parse_graph`` takes it
    text: str
    ops: tuple[str, ...]
    enum_limit: int | None = None
    expect_prime: bool = False
    use_oracles: bool = False


def build(workload: str, seed: int) -> list[Input]:
    rng = random.Random(seed)
    if workload == "reducible":
        out = []
        for name, make in families.FAMILIES.items():
            for k in range(1 + REDUCIBLE_HULL_ONLY):
                text = families.edge_text(REDUCIBLE_N, make(REDUCIBLE_N, rng), rng)
                ops = OPS if k == 0 else ("hull",)
                out.append(Input(f"{name}-{REDUCIBLE_N}-{k}", "edge-list", text, ops, ENUM_LIMIT))
        return out
    if workload == "prime-gnp":
        out = []
        for n in GNP_SIZES:
            text = families.edge_text(n, families.connected_gnp(n, GNP_P, rng), rng)
            ops = OPS if n == GNP_ALL_OPS_N else ("hull",)
            out.append(Input(f"gnp-{n}", "edge-list", text, ops, ENUM_LIMIT, expect_prime=True))
        return out
    if workload == "corpus-le7":
        lines = [ln for ln in CORPUS.read_text().split() if ln]
        order = list(range(len(lines)))
        rng.shuffle(order)
        return [Input(f"g6:{i}", "graph6", lines[i], OPS, use_oracles=True) for i in order]
    raise ValueError(f"unknown workload {workload!r}")


def describe(inputs: list[Input]) -> list[dict]:
    rows = []
    for inp in inputs:
        g = parse_graph(inp.text, inp.fmt)
        rows.append({
            "input": inp.label,
            "n": g.n,
            "m": g.m,
            "atoms": len(atoms(g).atoms),
            "hull_number": solve(g).hull_number,
            "ops": ",".join(inp.ops),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--describe", action="store_true", help="print n, m, atoms and hull number per input")
    args = ap.parse_args(argv)
    inputs = build(args.workload, args.seed)
    if args.describe:
        for row in describe(inputs):
            print("  ".join(f"{k}={v}" for k, v in row.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
