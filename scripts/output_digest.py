#!/usr/bin/env python3
"""Print one sha256 per input and command of the CLI's JSON output.

Runs ``tollhull.cli.run`` in-process, feeding each graph on stdin, for

  hull --trace, atoms, extreme and enumerate, each with --format json

and prints a line ``<input> <command> <exit code> <sha256 of stdout>``.
The inputs are the five fixtures, every graph of
``tests/data/connected_le7.g6`` and the inputs of perfbench's
``reducible`` and ``prime-gnp`` workloads at seeds 1-3, as
``perfbench/workloads.build`` makes them; ``enumerate`` on a workload
input stops at the workload's limit.

Two trees print the same lines exactly when those outputs agree byte for
byte.  The script reads the package and perfbench of the tree it sits in,
so to compare two trees, put it in both and diff:

  python scripts/output_digest.py > after.txt
  cp scripts/output_digest.py ../parent/scripts/
  python ../parent/scripts/output_digest.py > before.txt
  diff before.txt after.txt
"""
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tollhull.cli import run  # noqa: E402
from tollhull.graph import _FIXTURES, to_edge_list  # noqa: E402

COMMANDS = (("hull", "--trace"), ("atoms",), ("extreme",), ("enumerate",))
SEEDS = (1, 2, 3)


def inputs():
    """(name, input format, text, enumerate limit) for every input."""
    for name, make in _FIXTURES.items():
        yield name, "edge-list", to_edge_list(make()), None
    lines = workloads.CORPUS.read_text().split()
    for i, line in enumerate(lines):
        yield f"corpus:{i}", "graph6", line, None
    for workload in ("reducible", "prime-gnp"):
        for seed in SEEDS:
            for inp in workloads.build(workload, seed):
                name = f"{workload}/{seed}/{inp.label}"
                yield name, inp.fmt, inp.text, inp.enum_limit


def digest(argv: list[str], text: str) -> tuple[int, str]:
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    for name, fmt, text, limit in inputs():
        for command in COMMANDS:
            argv = [*command, "-", "--format", "json", "--input-format", fmt]
            if command[0] == "enumerate" and limit is not None:
                argv += ["--limit", str(limit)]
            code, sha = digest(argv, text)
            print(name, command[0], code, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
