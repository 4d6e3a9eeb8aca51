"""Throughput of the four user operations of ``tollhull`` on one workload.

Each operation starts from the text of a graph and makes the library calls
that ``tollhull hull|closure|extreme|enumerate`` make:

  hull       parse, then ``solve``
  closure    parse, then ``toll_hull(g, S*)``, S* from this round's hull
  extreme    parse, then ``extreme_vertices``
  enumerate  parse, then ``enumerate_min_hull_sets`` (the first K sets on
             generated graphs, all of them on the corpus)

Parsing every time means the per-graph interval cache in ``convexity``
never carries over from one operation to the next, as with a CLI call.

A round runs every operation of the workload once on every input, and whole
rounds repeat until the run's seconds have passed.  Every time is scaled to
a machine of fixed speed (see ``Speed``), and each (input, operation) pair
takes its median over the rounds, which drops the odd operation that a
pause of the garbage collector or of the machine lands in.  A rate is the
count of operations (of sets, for enumerate) over the sum of those medians.
The outputs of the first round are checked after the timed rounds, and
every later round must give the same outputs.

A traced run alternates untraced and traced rounds.  The traced rounds give
the per-layer figures (times from the fastest traced round, counts per
round); the untraced ones give the overhead of tracing.  The spans of every
traced round are written to ``perfbench/out/trace-<workload>.bin``.
"""
from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import workloads  # puts the package sources on sys.path
from checks import Failed, Wrong, check_input
from tollhull import convexity, enumeration, graph, solver
from tracing import Tracer, count_rules, count_sets, patched

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 5

SAMPLE_EVERY_S = 0.02
# a span holding fewer samples than this is scaled by the samples within
# SAMPLE_WINDOW_S of its midpoint
MIN_SAMPLES = 5
SAMPLE_WINDOW_S = 0.5
# scaled times read as on a machine on which the sample loop takes this long
REF_SECONDS = 0.0004


class Speed:
    """How fast the machine runs, sampled while the benchmark runs.

    On a shared machine other tenants slow a process down by a quarter or
    more, for spells from a fraction of a second to many seconds.  Inside
    the ``with`` block a timer signal every SAMPLE_EVERY_S runs a fixed
    pure-Python loop (a search from every fourth vertex of a fixed random
    graph) between two bytecodes of whatever runs, and records how long it
    took.  A span's time, less the samples taken inside it, over the median
    sample in it stays steady through those spells.  The samples cost about
    2% of the run; traced spans include their share.
    """

    def __init__(self):
        rng = random.Random(0)
        self.adj: list[set[int]] = [set() for _ in range(60)]
        for _ in range(150):
            a, b = rng.randrange(60), rng.randrange(60)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        self.at: list[float] = []
        self.took: list[float] = []

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        for root in range(0, len(self.adj), 4):
            seen = {root}
            stack = [root]
            while stack:
                for z in self.adj[stack.pop()]:
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def loop_time(self, t0: float, t1: float) -> float:
        """Median sample over [t0, t1], widened to SAMPLE_WINDOW_S around
        its midpoint when it holds fewer than MIN_SAMPLES."""
        i, j = bisect_left(self.at, t0), bisect_left(self.at, t1)
        if j - i < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            i, j = bisect_left(self.at, mid - SAMPLE_WINDOW_S), bisect_left(self.at, mid + SAMPLE_WINDOW_S)
        return statistics.median(self.took[i:j] or self.took)

    def scaled(self, t0: float, t1: float, own: bool = True) -> float:
        """Seconds from t0 to t1, less the samples taken in them when the
        span is this process's own work, as on the reference machine."""
        busy = t1 - t0
        if own:
            busy -= sum(self.took[bisect_left(self.at, t0):bisect_left(self.at, t1)])
        return busy * REF_SECONDS / self.loop_time(t0, t1)


def _enumerate(g, limit):
    return list(enumeration.enumerate_min_hull_sets(g, limit=limit))


class Layers:
    """The calls an operation makes, bare or recording a span each."""

    def __init__(self, tracer: Tracer | None = None):
        def bare(name, fn, count=None):
            return fn

        wrap = bare if tracer is None else tracer.wrap
        self.parse = wrap("graph.parse", graph.parse_graph)
        self.solve = wrap("solver", solver.solve, count_rules)
        self.toll_hull = wrap("convexity.toll_hull", convexity.toll_hull)
        self.extreme_vertices = wrap("convexity.extreme_vertices", convexity.extreme_vertices)
        self.enumerate = wrap("enumeration", _enumerate, count_sets)


def _hull(L, inp, res):
    return L.solve(L.parse(inp.text, inp.fmt))


def _closure(L, inp, res):
    return L.toll_hull(L.parse(inp.text, inp.fmt), res.hull_set)


def _extreme(L, inp, res):
    return L.extreme_vertices(L.parse(inp.text, inp.fmt))


def _enumerate_op(L, inp, res):
    return L.enumerate(L.parse(inp.text, inp.fmt), inp.enum_limit)


OPS = {"hull": _hull, "closure": _closure, "extreme": _extreme, "enumerate": _enumerate_op}


def traced_ops(tracer: Tracer) -> dict:
    """OPS with a root span per operation, each under a fresh op id."""
    def root(op, fn):
        span = tracer.wrap(f"op.{op}", fn)

        def start(*args):
            tracer.op_id += 1
            return span(*args)

        return start

    return {op: root(op, fn) for op, fn in OPS.items()}


class Rounds:
    """Outputs of the first round, the start and end of every timed run of
    each (input, operation) pair, and the pairs whose outcome changed
    between rounds."""

    def __init__(self, inputs, speed: Speed):
        self.inputs = inputs
        self.speed = speed
        self.first: dict[tuple[int, str], object] = {}
        self.errors: dict[tuple[int, str], str] = {}
        self.spans: dict[tuple[int, str], list[tuple[float, float]]] = {}
        self.unstable: set[tuple[int, str]] = set()
        self.count = 0

    def run(self, layers: Layers, ops: dict, timed: bool = True) -> list[tuple[float, float]]:
        """One round; returns the start and end of each of its operations."""
        clock = time.perf_counter
        spans = []
        for i, inp in enumerate(self.inputs):
            res = None
            for op in inp.ops:
                err = None
                t0 = clock()
                try:
                    out = ops[op](layers, inp, res)
                except Exception as exc:  # a failed operation, reported with the others
                    out, err = None, f"{type(exc).__name__}: {exc}"
                t1 = clock()
                spans.append((t0, t1))
                key = (i, op)
                if self.count == 0:
                    self.first[key] = out
                    if err is not None:
                        self.errors[key] = err
                elif out != self.first[key] or err != self.errors.get(key):
                    self.unstable.add(key)
                if timed and err is None:
                    self.spans.setdefault(key, []).append((t0, t1))
                if op == "hull":
                    res = out
        self.count += 1
        return spans

    def rate(self, op: str, weight=lambda out: 1) -> float:
        """Operations (or ``weight`` of each output) per scaled second, each
        (input, operation) pair taking its median time over the rounds."""
        keys = [k for k in self.spans if k[1] == op]
        scaled = (statistics.median(self.speed.scaled(*s) for s in self.spans[k]) for k in keys)
        return sum(weight(self.first[k]) for k in keys) / sum(scaled)


def verdicts(r: Rounds) -> dict:
    """Verdict per (input, operation): None, Failed or Wrong."""
    out = {}
    for i, inp in enumerate(r.inputs):
        keys = [(i, op) for op in inp.ops]
        for key in keys:
            if key in r.unstable:
                out[key] = Wrong("output changed between rounds")
            elif key in r.errors:
                out[key] = Failed(r.errors[key])
        if (i, "hull") in r.errors:
            for key in keys:
                out.setdefault(key, Failed("not checked: hull raised"))
            continue
        g = graph.parse_graph(inp.text, inp.fmt)
        returned = {op: r.first[(i, op)] for op in inp.ops if (i, op) not in out}
        returned["hull"] = r.first[(i, "hull")]
        for op, v in check_input(g, inp, returned).items():
            out.setdefault((i, op), v)
    return out


def report(r: Rounds, found: dict) -> None:
    """Rounds and every failure or wrong answer, grouped, on stderr."""
    groups: Counter = Counter()
    example = {}
    for (i, op), v in found.items():
        if v is not None:
            n = graph.parse_graph(r.inputs[i].text, r.inputs[i].fmt).n
            key = (type(v).__name__.lower(), op, n)
            groups[key] += 1
            example.setdefault(key, f"{r.inputs[i].label}: {v.reason}")
    print(f"perfbench: {r.count} rounds of {len(r.inputs)} inputs", file=sys.stderr)
    for key, k in sorted(groups.items()):
        kind, op, n = key
        print(f"perfbench: {kind} {op} on {k} inputs with n={n}, e.g. {example[key]}", file=sys.stderr)


def probe_setup(workload: str, seed: int, speed: Speed) -> float:
    """Median scaled wall time of a fresh interpreter that imports the
    package and builds the workload's inputs."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    spans = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        spans.append((t0, time.perf_counter()))
    return statistics.median(speed.scaled(t0, t1, own=False) for t0, t1 in spans)


def traced_rounds(r: Rounds, workload: str, deadline: float) -> dict:
    """Untraced and traced rounds in turn until the deadline; the per-layer
    metrics and the overhead of tracing."""
    tracer = Tracer()
    layers, ops = Layers(tracer), traced_ops(tracer)
    plain_s, traced_s, rows = [], [], []
    while True:
        plain_s.append(sum(r.speed.scaled(*s) for s in r.run(Layers(), OPS)))
        tracer.counters.clear()
        lo = len(tracer)
        with patched(tracer):
            spans = r.run(layers, ops, timed=False)
        traced_s.append(sum(r.speed.scaled(*s) for s in spans))
        factor = REF_SECONDS / r.speed.loop_time(spans[0][0], spans[-1][1])
        row = tracer.summary(lo, len(tracer))
        rows.append({name: v * factor if name.endswith((".s", "_s")) else v for name, v in row.items()})
        if time.perf_counter() >= deadline:
            break
    tracer.write(OUT_DIR / f"trace-{workload}.bin")
    metrics = {}
    for name in rows[0]:
        if name.endswith((".s", "_s")):
            metrics[name] = {"value": min(row[name] for row in rows), "unit": "s"}
        else:
            metrics[name] = {"value": rows[0][name], "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": 100 * (min(traced_s) / min(plain_s) - 1), "unit": "%"}
    return metrics


def plain_rounds(r: Rounds, deadline: float) -> float:
    """Untraced rounds until the deadline; returns the peak resident memory
    after the first, a fixed amount of work, so that memory kept from one
    round to the next shows."""
    r.run(Layers(), OPS)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() < deadline:
        r.run(Layers(), OPS)
    return rss_mb


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    speed = Speed()
    with speed:
        setup_s = None if trace else probe_setup(workload, seed, speed)
        inputs = workloads.build(workload, seed)
        r = Rounds(inputs, speed)
        deadline = time.perf_counter() + seconds
        if trace:
            metrics = traced_rounds(r, workload, deadline)
        else:
            rss_mb = plain_rounds(r, deadline)
    if not trace:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "hull_per_s": {"value": r.rate("hull"), "unit": "graphs/s"},
            "closure_per_s": {"value": r.rate("closure"), "unit": "graphs/s"},
            "extreme_per_s": {"value": r.rate("extreme"), "unit": "graphs/s"},
            "enum_sets_per_s": {"value": r.rate("enumerate", len), "unit": "sets/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    found = verdicts(r)
    report(r, found)
    correct = not any(isinstance(v, Wrong) for v in found.values())
    per_round = sum(len(inp.ops) for inp in inputs)
    failed = sum(isinstance(v, Failed) for v in found.values())
    print(json.dumps({
        "correct": correct,
        "attempted": r.count * per_round,
        "failed": r.count * failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1
