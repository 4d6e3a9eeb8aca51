"""Command-line front end.

Six subcommands read one graph (edge-list or graph6, file or "-" for
stdin) through one driver, ``verify`` a file or directory of graphs and
``gen`` none.  Each prints stable text or one JSON document, echoes
vertex names as given (internal ids never leak) and takes only the flags
it reads.  Identical inputs give byte-identical outputs unless --timing
is given; ``gen``'s text timing line goes to stderr, so that stdout stays
a parseable edge list.

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
from .check import check
from .convexity import extreme_vertices, toll_hull, toll_interval
from .enumeration import EnumerationError, enumerate_min_hull_sets
from .graph import (
    Graph,
    GraphError,
    generate,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    to_edge_list,
)
from .solver import SolverInvariantError, solve

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


def _labels(g: Graph, vs) -> list[str]:
    return [g.labels[v] for v in sorted(vs)]


def _relabel_trace(g: Graph, trace) -> list:
    """The trace with vertex labels for ids: every list in a trace entry,
    at any depth, holds vertex ids."""
    def conv(value):
        return [conv(v) for v in value] if isinstance(value, list) else g.labels[value]

    return [
        {k: conv(v) if isinstance(v, list) else v for k, v in entry.items()}
        for entry in trace
    ]


def _emit(args, doc: dict, lines: list[str], started: float) -> None:
    """Print a command's document: as JSON, with the graph under ``input``
    replaced by its digest, or as its text lines followed by one line per
    trace entry.  --timing adds the time since ``started``; ``gen``'s text
    timing line goes to stderr, since stdout may be the edge list."""
    if args.format == "json":
        if "input" in doc:
            g = doc["input"]
            canon = to_edge_list(g).removesuffix("\n")
            sha256 = hashlib.sha256(canon.encode()).hexdigest()
            doc["input"] = {"n": g.n, "m": g.m, "sha256": sha256}
        if args.timing:
            doc["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
        print(json.dumps(doc, indent=2))
        return
    if lines:
        print("\n".join(lines))
    for entry in doc.get("trace", ()):
        print(f"trace: {json.dumps(entry)}")
    if args.timing:
        out = sys.stderr if doc["command"] == "gen" else sys.stdout
        print(f"elapsed_ms: {(time.perf_counter() - started) * 1000:.3f}", file=out)


# Each one-graph command computes (payload, text lines, trace or None).


def _hull(g: Graph, args):
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
    payload = {
        "hull_number": result.hull_number,
        "hull_set": _labels(g, result.hull_set),
        "prime": result.prime,
        "complete": result.complete,
        "family": family,
        "extreme_vertices": _labels(g, result.extreme_vertices),
    }
    lines = [
        f"hull_number: {result.hull_number}",
        "hull_set: " + " ".join(payload["hull_set"]),
        *(
            f"family: {{{' '.join(b['vertices'])}}} type={b['type']}"
            f" granularity={b['granularity']} chosen={{{' '.join(b['chosen'])}}}"
            for b in family
        ),
        "extreme_vertices: " + " ".join(payload["extreme_vertices"]),
    ]
    trace = _relabel_trace(g, result.trace) if args.trace else None
    return payload, lines, trace


def _atoms(g: Graph, args):
    dec = atoms(g)
    payload = {
        "atoms": [_labels(g, a) for a in dec.atoms],
        "extremal": list(dec.extremal_flags),
    }
    lines = [
        f"atom: {{{' '.join(a)}}} {'extremal' if flag else '-'}"
        for a, flag in zip(payload["atoms"], dec.extremal_flags)
    ]
    return payload, lines, None


def _interval(g: Graph, args):
    iv = _labels(g, toll_interval(g, g.id_of(args.x), g.id_of(args.y)))
    return {"x": args.x, "y": args.y, "interval": iv}, ["interval: " + " ".join(iv)], None


def _closure(g: Graph, args):
    seed = [g.id_of(tok) for tok in args.set.split(",") if tok]
    if not seed:
        raise GraphError("--set needs at least one vertex label")
    hull = toll_hull(g, seed)
    payload = {
        "set": _labels(g, set(seed)),
        "hull": _labels(g, hull),
        "is_hull_set": len(hull) == g.n,
    }
    lines = [
        "hull: " + " ".join(payload["hull"]),
        f"is_hull_set: {str(payload['is_hull_set']).lower()}",
    ]
    return payload, lines, None


def _extreme(g: Graph, args):
    ext = _labels(g, extreme_vertices(g))
    return {"extreme_vertices": ext}, ["extreme_vertices: " + " ".join(ext)], None


def _enumerate(g: Graph, args):
    # text streams each set as it is found; json collects them
    sets = []
    for s in enumerate_min_hull_sets(g, limit=args.limit):
        if args.format == "text":
            print(json.dumps(_labels(g, s)))
        else:
            sets.append(_labels(g, s))
    return {"sets": sets, "count": len(sets)}, [], None


def _cmd_graph(args) -> int:
    """Run a one-graph command: parse the input, then time the compute."""
    g = parse_graph(_read_text(args.file), args.input_format)
    started = time.perf_counter()
    payload, lines, trace = args.compute(g, args)
    doc = {"command": args.command, "input": g, "result": payload}
    if trace is not None:
        doc["trace"] = trace
    _emit(args, doc, lines, started)
    return EXIT_OK


def _verify_one(g: Graph) -> dict:
    return check(g, solve(g))


def read_graphs(path: str, fmt: str, name: str | None) -> list[tuple[str, Graph]]:
    """(name, graph) for each non-blank graph6 line of the file, or for its
    one edge list.  A file of a directory sweep passes its name, giving
    ``<file>:<i>`` and ``<file>``; a single input passes None, giving
    ``line:<i>`` and ``input``.  A graph that does not parse, has no
    vertices or is not connected is a GraphError naming the file and, for
    graph6, its line."""
    text = _read_text(path)
    if fmt == "graph6":
        prefix = "line" if name is None else name
        return [
            (f"{prefix}:{i}", _parse_connected(parse_graph6, ln, f"{path} line {i + 1}"))
            for i, ln in enumerate(text.splitlines())
            if ln.strip()
        ]
    return [("input" if name is None else name, _parse_connected(parse_edge_list, text, path))]


def _parse_connected(parse, text: str, where: str) -> Graph:
    """``parse(text)``, with ``where`` put before any error; a graph with
    no vertices or that is not connected is an error."""
    try:
        g = parse(text)
    except GraphError as exc:
        raise GraphError(f"{where}: {exc}") from None
    if g.n == 0:
        raise GraphError(f"{where}: graph has no vertices")
    if not g.is_connected():
        raise GraphError(f"{where}: graph is not connected")
    return g


def _cmd_verify(args) -> int:
    if args.jobs < 0:
        raise GraphError(f"--jobs must not be negative, got {args.jobs}")
    started = time.perf_counter()
    if args.file != "-" and Path(args.file).is_dir():
        formats = {".txt": "edge-list", ".el": "edge-list", ".g6": "graph6"}
        jobs = [
            job
            for p in sorted(Path(args.file).iterdir()) if p.suffix in formats
            for job in read_graphs(str(p), formats[p.suffix], p.name)
        ]
    else:
        jobs = read_graphs(args.file, args.input_format, None)
    if not jobs:
        raise GraphError(f"no graphs to verify in {args.file}")
    reports = _run_verify_jobs(jobs, args.jobs)
    ok = all(r["agreement"] for _, r in reports)
    payload = {
        "graphs": len(reports),
        "agreement": ok,
        "reports": [dict(r, name=name) for name, r in reports],
    }
    lines = []
    for name, r in reports:
        status = "ok" if r["agreement"] else "MISMATCH"
        oracle = r.get("oracle_hull_number")
        lines.append(
            f"{name}: solver={r['solver_hull_number']}"
            f" oracle={oracle if oracle is not None else 'skipped'}"
            f" closure={'ok' if r['closure_ok'] else 'FAIL'} {status}"
            + "".join(f" {m}" for m in r.get("mismatches", ()))
        )
    lines.append(f"agreement: {str(ok).lower()}")
    _emit(args, {"command": "verify", "result": payload}, lines, started)
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
    started = time.perf_counter()
    g = generate(args.model, args.n, args.p, args.seed)
    text = to_edge_list(g)
    payload = {"model": args.model, "n": g.n, "m": g.m, "out": args.out or "-"}
    lines = [] if args.out else text.splitlines()  # json prints no lines
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise GraphError(f"cannot write {args.out}: {exc}") from None
    elif args.format == "json":
        # the edge list rides inside the one JSON document
        payload["edge_list"] = text
    doc = {"command": "gen", "input": g, "result": payload}
    _emit(args, doc, lines, started)
    return EXIT_OK


# name: (compute, help, options beyond the input and output ones)
GRAPH_COMMANDS = {
    "hull": (_hull, "minimum toll hull set", {
        "--trace": {"action": "store_true", "help": "include the solver trace"},
    }),
    "atoms": (_atoms, "maximal prime subgraphs", {}),
    "interval": (_interval, "toll interval of two vertices", {
        "--x": {"required": True, "help": "first endpoint label"},
        "--y": {"required": True, "help": "second endpoint label"},
    }),
    "closure": (_closure, "toll convex hull of a set", {
        "--set": {"required": True, "help": "comma-separated vertex labels"},
    }),
    "extreme": (_extreme, "toll extreme vertices", {}),
    "enumerate": (_enumerate, "stream minimum hull sets", {
        "--limit": {"type": int, "default": None, "help": "stop after N sets"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollhull",
        description="Toll convexity toolkit: hull numbers, intervals, "
        "clique-separator decomposition, minimum-hull-set enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    output.add_argument("--timing", action="store_true", help="append elapsed time")
    graph_input = argparse.ArgumentParser(add_help=False, parents=[output])
    graph_input.add_argument("file")
    graph_input.add_argument(
        "--input-format", choices=("edge-list", "graph6"), default="edge-list",
        help="input graph encoding (default edge-list)",
    )

    for name, (compute, help_text, options) in GRAPH_COMMANDS.items():
        p = sub.add_parser(name, parents=[graph_input], help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=_cmd_graph, compute=compute)

    p = sub.add_parser(
        "verify", parents=[graph_input],
        help="cross-check the solver against brute force (file or directory)",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", parents=[output], help="generate a test graph")
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
    except GraphError as exc:  # ParseError and SizeLimitError among them
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
