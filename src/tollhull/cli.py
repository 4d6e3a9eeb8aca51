"""Command-line front end.

Every subcommand reads one graph (edge-list or graph6, file or "-" for
stdin), computes, and prints either stable line-oriented text or a single
JSON document.  Vertex names are echoed exactly as they appeared in the
input; internal ids never leak.  Identical inputs produce byte-identical
outputs unless --timing is given.  ``gen`` in text mode prints its timing
line to stderr, so that stdout stays a parseable edge list.

Exit status: 0 success, 1 bad input or flags, 2 internal invariant
violation (a bug, never a user error), 3 oracle disagreement in verify.
An input that cannot be read (a directory, no permission, bytes that do
not decode, on a path or on stdin alike) is bad input, and so is a
``verify`` input that holds no graph (an empty directory, a graph6 file of
blank lines): a sweep of nothing proves nothing.  Running out of memory
(in parse, ``gen`` or a solve) also exits 1 with one ``error:`` line: the
input or the requested graph is too large for this machine, which a
smaller one mends, while exit 2 is kept for results the code itself got
wrong.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

from .atoms import atoms
from .convexity import extreme_vertices, toll_hull, toll_interval
from .enumeration import (
    EnumerationError,
    compare_with_bruteforce,
    enumerate_min_hull_sets,
)
from .graph import (
    Graph,
    GraphError,
    ParseError,
    SizeLimitError,
    generate,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    to_edge_list,
)
from .oracles import (
    MAX_ENUM_N,
    MAX_INTERVAL_N,
    bf_all_intervals,
    bf_atoms,
    bf_extreme_vertices,
    bf_hull,
    bf_hull_number,
)
from .solver import HullResult, SolverInvariantError, solve

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2
EXIT_MISMATCH = 3


def _read_text(path: str) -> str:
    """The text of a file or of stdin ("-"); a path that cannot be read
    (missing, a directory, no permission) or text that is not valid in the
    locale's encoding is a GraphError.  Stdin's bytes are decoded as a
    file's are, since its own error handler may pass bad bytes through
    (``surrogateescape`` in UTF-8 mode); a stdin with no bytes under it,
    such as an ``io.StringIO``, is read as it is."""
    try:
        if path != "-":
            return Path(path).read_text()
        raw = getattr(sys.stdin, "buffer", None)
        if raw is None:
            return sys.stdin.read()
        return io.TextIOWrapper(io.BytesIO(raw.read()), io.text_encoding(None)).read()
    except FileNotFoundError:
        raise GraphError(f"no such file: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str, fmt: str) -> Graph:
    return parse_graph(_read_text(path), fmt)


def _digest(g: Graph) -> dict:
    canon = "\n".join(f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges())
    return {
        "n": g.n,
        "m": g.m,
        "sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }


def _labels(g: Graph, vs) -> list[str]:
    return [g.labels[v] for v in sorted(vs)]


def _relabel_trace(g: Graph, trace) -> list:
    def conv(value):
        if isinstance(value, list):
            return [conv(v) for v in value]
        if isinstance(value, int) and not isinstance(value, bool):
            return g.labels[value]
        return value

    out = []
    keys = {"member", "f_circ", "f_bullet", "chosen", "pair", "f_prime", "m_prime"}
    for entry in trace:
        out.append({k: (conv(v) if k in keys else v) for k, v in entry.items()})
    return out


class _Emitter:
    """Collects the result payload and prints it in the chosen format."""

    def __init__(self, command: str, g: Graph | None, args):
        self.command = command
        self.graph = g
        self.fmt = args.format
        self.timing = args.timing
        self.started = time.perf_counter()
        self.text_lines: list[str] = []
        self.payload: dict = {}
        self.trace = None

    def emit(self) -> None:
        if self.fmt == "json":
            doc = {"command": self.command}
            if self.graph is not None:
                doc["input"] = _digest(self.graph)
            doc["result"] = self.payload
            if self.trace is not None:
                doc["trace"] = self.trace
            if self.timing:
                doc["elapsed_ms"] = round(self.elapsed_ms(), 3)
            print(json.dumps(doc, indent=2))
        else:
            for line in self.text_lines:
                print(line)
            if self.trace is not None:
                for entry in self.trace:
                    print(f"trace: {json.dumps(entry)}")
            if self.timing:
                print(f"elapsed_ms: {self.elapsed_ms():.3f}")

    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.started) * 1000


def _cmd_hull(args) -> int:
    g = _load_graph(args.file, args.input_format)
    out = _Emitter("hull", g, args)
    result = solve(g)
    family = [
        {
            "vertices": _labels(g, b.vertices),
            "type": b.ctype,
            "granularity": b.granularity,
            "chosen": _labels(g, b.chosen),
        }
        for b in result.family
    ]
    out.payload = {
        "hull_number": result.hull_number,
        "hull_set": _labels(g, result.hull_set),
        "prime": result.prime,
        "complete": result.complete,
        "family": family,
        "extreme_vertices": _labels(g, result.extreme_vertices),
    }
    out.text_lines.append(f"hull_number: {result.hull_number}")
    out.text_lines.append("hull_set: " + " ".join(_labels(g, result.hull_set)))
    for b in family:
        out.text_lines.append(
            f"family: {{{' '.join(b['vertices'])}}} type={b['type']}"
            f" granularity={b['granularity']} chosen={{{' '.join(b['chosen'])}}}"
        )
    out.text_lines.append(
        "extreme_vertices: " + " ".join(_labels(g, result.extreme_vertices))
    )
    if args.trace:
        out.trace = _relabel_trace(g, result.trace)
    out.emit()
    return EXIT_OK


def _cmd_atoms(args) -> int:
    g = _load_graph(args.file, args.input_format)
    out = _Emitter("atoms", g, args)
    dec = atoms(g)
    out.payload = {
        "atoms": [_labels(g, a) for a in dec.atoms],
        "extremal": list(dec.extremal_flags),
    }
    for a, flag in zip(dec.atoms, dec.extremal_flags):
        mark = "extremal" if flag else "-"
        out.text_lines.append(f"atom: {{{' '.join(_labels(g, a))}}} {mark}")
    out.emit()
    return EXIT_OK


def _cmd_interval(args) -> int:
    g = _load_graph(args.file, args.input_format)
    out = _Emitter("interval", g, args)
    x, y = g.id_of(args.x), g.id_of(args.y)
    iv = toll_interval(g, x, y)
    out.payload = {"x": args.x, "y": args.y, "interval": _labels(g, iv)}
    out.text_lines.append("interval: " + " ".join(_labels(g, iv)))
    out.emit()
    return EXIT_OK


def _cmd_closure(args) -> int:
    g = _load_graph(args.file, args.input_format)
    out = _Emitter("closure", g, args)
    seed = [g.id_of(tok) for tok in args.set.split(",") if tok]
    if not seed:
        raise GraphError("--set needs at least one vertex label")
    hull = toll_hull(g, seed)
    out.payload = {
        "set": [g.labels[v] for v in sorted(set(seed))],
        "hull": _labels(g, hull),
        "is_hull_set": len(hull) == g.n,
    }
    out.text_lines.append("hull: " + " ".join(_labels(g, hull)))
    out.text_lines.append(f"is_hull_set: {str(len(hull) == g.n).lower()}")
    out.emit()
    return EXIT_OK


def _cmd_extreme(args) -> int:
    g = _load_graph(args.file, args.input_format)
    out = _Emitter("extreme", g, args)
    ext = extreme_vertices(g)
    out.payload = {"extreme_vertices": _labels(g, ext)}
    out.text_lines.append("extreme_vertices: " + " ".join(_labels(g, ext)))
    out.emit()
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    g = _load_graph(args.file, args.input_format)
    out = _Emitter("enumerate", g, args)
    sets = []
    for s in enumerate_min_hull_sets(g, limit=args.limit):
        if args.format == "text":
            print(json.dumps(_labels(g, s)))
        else:
            sets.append(_labels(g, s))
    if args.format == "json":
        out.payload = {"sets": sets, "count": len(sets)}
    out.emit()
    return EXIT_OK


def check(g: Graph, result: HullResult) -> dict:
    """Cross-check the solver's ``result`` on ``g`` with every oracle the
    graph's size allows, and return its ``verify`` report.

    The checks, by the name a failing report lists under ``mismatches``:

      closure         the hull set's closure is V, by ``bf_hull`` up to
                      ``MAX_INTERVAL_N`` vertices and ``toll_hull`` above
      hull_number     the hull number is ``bf_hull_number``'s (n <= 12)
      intervals       ``toll_interval`` is ``bf_toll_interval`` on every
                      pair (n <= 12)
      atoms           ``atoms`` is ``bf_atoms`` (n <= ``MAX_ENUM_N``, 9)
      enumeration     the stream emits every minimum hull set (n <= 9)
      oracle_extreme  ``extreme_vertices`` is ``bf_extreme_vertices``
                      (n <= 9)
      extreme         the result's extreme vertices are
                      ``extreme_vertices``'s (any n)
      separation      G minus each non-extremal atom falls apart, the fact
                      the solver proves instead of checking (any n)

    ``agreement`` is true exactly when no check failed.
    """
    dec, ext = atoms(g), extreme_vertices(g)
    small = g.n <= MAX_INTERVAL_N
    closure = (bf_hull if small else toll_hull)(g, result.hull_set)
    passed = {"closure": closure == frozenset(range(g.n))}
    report: dict = {
        "n": g.n,
        "solver_hull_number": result.hull_number,
        "closure_ok": passed["closure"],
    }
    if small:
        oracle = bf_hull_number(g)
        report["oracle_hull_number"] = oracle
        passed["hull_number"] = oracle == result.hull_number
        passed["intervals"] = all(
            toll_interval(g, x, y) == iv
            for (x, y), iv in bf_all_intervals(g).items()
        )
    else:
        report["oracle_hull_number"] = None
        report["skipped"] = f"oracle hull check skipped above n={MAX_INTERVAL_N}"
    if g.n <= MAX_ENUM_N:
        passed["atoms"] = [set(a) for a in dec.atoms] == [set(a) for a in bf_atoms(g)]
        report["atoms_match"] = passed["atoms"]
        enum_report = compare_with_bruteforce(g)
        passed["enumeration"] = enum_report.complete
        report["enumeration_complete"] = enum_report.complete
        report["enumeration_count"] = len(enum_report.emitted)
        passed["oracle_extreme"] = ext == bf_extreme_vertices(g)
    else:
        report["atoms_match"] = None
        report["enumeration_complete"] = None
    passed["extreme"] = result.extreme_vertices == ext
    # a prime graph's one atom is flagged non-extremal but separates nothing
    passed["separation"] = len(dec.atoms) < 2 or all(
        len(g.components(a)) >= 2
        for a, extremal in zip(dec.atoms, dec.extremal_flags)
        if not extremal
    )
    failed = [name for name, ok in passed.items() if not ok]
    report["agreement"] = not failed
    if failed:
        report["mismatches"] = failed
    return report


def _verify_one(g: Graph) -> dict:
    return check(g, solve(g))


def _verify_jobs(text: str, fmt: str, name: str | None) -> list[tuple[str, Graph]]:
    """(name, graph) for each non-blank graph6 line of the text, or for its
    one edge list.  A file of a directory sweep passes its name, giving
    ``<file>:<i>`` and ``<file>``; a single input passes None, giving
    ``line:<i>`` and ``input``."""
    if fmt == "graph6":
        prefix = "line" if name is None else name
        return [
            (f"{prefix}:{i}", parse_graph6(ln))
            for i, ln in enumerate(text.splitlines())
            if ln.strip()
        ]
    return [("input" if name is None else name, parse_edge_list(text))]


def _cmd_verify(args) -> int:
    if args.jobs < 0:
        raise GraphError(f"--jobs must not be negative, got {args.jobs}")
    path = Path(args.file) if args.file != "-" else None
    out = _Emitter("verify", None, args)
    if path is not None and path.is_dir():
        files = sorted(
            p for p in path.iterdir() if p.suffix in (".txt", ".g6", ".el")
        )
        jobs = []
        for p in files:
            fmt = "graph6" if p.suffix == ".g6" else "edge-list"
            jobs += _verify_jobs(_read_text(str(p)), fmt, p.name)
    else:
        jobs = _verify_jobs(_read_text(args.file), args.input_format, None)
    if not jobs:
        raise GraphError(f"no graphs to verify in {args.file}")
    reports = _run_verify_jobs(jobs, args.jobs)
    ok = all(r["agreement"] for _, r in reports)
    out.payload = {
        "graphs": len(reports),
        "agreement": ok,
        "reports": [dict(r, name=name) for name, r in reports],
    }
    for name, r in reports:
        status = "ok" if r["agreement"] else "MISMATCH"
        oracle = r.get("oracle_hull_number")
        out.text_lines.append(
            f"{name}: solver={r['solver_hull_number']}"
            f" oracle={oracle if oracle is not None else 'skipped'}"
            f" closure={'ok' if r['closure_ok'] else 'FAIL'} {status}"
            + "".join(f" {m}" for m in r.get("mismatches", ()))
        )
    out.text_lines.append(f"agreement: {str(ok).lower()}")
    out.emit()
    return EXIT_OK if ok else EXIT_MISMATCH


def _pool_size(jobs: int, graphs: int, cpus: int | None) -> int:
    """Worker processes for a verify sweep: no more than asked for, than
    graphs to check or than the machine has cores (an unknown count reads
    as one).  A size of 1 or less runs the sweep in this process."""
    return min(jobs, graphs, cpus or 1)


def _run_verify_jobs(jobs, workers):
    workers = _pool_size(workers, len(jobs), os.cpu_count())
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            results = pool.map(_verify_one, [g for _, g in jobs])
        return [(name, rep) for (name, _), rep in zip(jobs, results)]
    return [(name, _verify_one(g)) for name, g in jobs]


def _cmd_gen(args) -> int:
    out = _Emitter("gen", None, args)
    g = out.graph = generate(args.model, args.n, args.p, args.seed)
    text = to_edge_list(g)
    out.payload = {"model": args.model, "n": g.n, "m": g.m, "out": args.out or "-"}
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise GraphError(f"cannot write {args.out}: {exc}") from None
    elif args.format == "json":
        # the edge list rides inside the one JSON document
        out.payload["edge_list"] = text
    else:
        sys.stdout.write(text)
    if args.format == "json":
        out.emit()
    elif args.timing:
        # stdout may be the edge list, which a timing line would break
        print(f"elapsed_ms: {out.elapsed_ms():.3f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollhull",
        description="Toll convexity toolkit: hull numbers, intervals, "
        "clique-separator decomposition, minimum-hull-set enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--input-format", choices=("edge-list", "graph6"), default="edge-list",
        help="input graph encoding (default edge-list)",
    )
    common.add_argument("--trace", action="store_true", help="include the solver trace")
    common.add_argument("--timing", action="store_true", help="append elapsed time")

    p = sub.add_parser("hull", parents=[common], help="minimum toll hull set")
    p.add_argument("file")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("atoms", parents=[common], help="maximal prime subgraphs")
    p.add_argument("file")
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("interval", parents=[common], help="toll interval of two vertices")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="first endpoint label")
    p.add_argument("--y", required=True, help="second endpoint label")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("closure", parents=[common], help="toll convex hull of a set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("extreme", parents=[common], help="toll extreme vertices")
    p.add_argument("file")
    p.set_defaults(func=_cmd_extreme)

    p = sub.add_parser("enumerate", parents=[common], help="stream minimum hull sets")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None, help="stop after N sets")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "verify", parents=[common],
        help="cross-check the solver against brute force (file or directory)",
    )
    p.add_argument("file")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", parents=[common], help="generate a test graph")
    p.add_argument("--model", required=True, choices=("gnp", "tree", "complete", "cycle"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability for gnp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write edge list here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USER if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SizeLimitError, ParseError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except MemoryError:
        print("error: out of memory: the input is too large for this machine",
              file=sys.stderr)
        return EXIT_USER
    except (SolverInvariantError, EnumerationError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
