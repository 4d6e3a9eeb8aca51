#!/usr/bin/env python3
"""Entry point of the benchmark; see ``bench.py`` for what it measures.

  python3 perfbench/run.py --workload reducible --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository: it exits with code 2, printing no
result, when the package sources or the corpus are not beside it.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEEDED = (ROOT / "src" / "tollhull" / "__init__.py", ROOT / "tests" / "data" / "connected_le7.g6")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("reducible", "prime-gnp", "corpus-le7"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in NEEDED if not p.is_file()]
    if missing:
        print(f"perfbench: not inside a checkout of the repository, missing {missing[0]}", file=sys.stderr)
        return 2
    # imported only once the package is known to be there
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
