"""Spans around the calls into each layer of ``tollhull``, recorded from
outside the package.

A traced round swaps the public functions at the names the calling modules
bound (``tollhull.solver.atoms``, ``tollhull.convexity.toll_interval`` and
so on) for wrappers that record a span per call: name, parent span,
operation id, start and end.  Spans stay in memory until the run ends and
are then written to one binary file that ``load_spans`` reads back.

A span's self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from tollhull import convexity, enumeration, solver

# every selection label ``solve`` writes into ``HullResult.trace``
RULE_LABELS = (
    "type3", "choice_1", "choice_1-weak", "choice_1-fallback", "choice_2",
    "choice_2-weak", "choice_3", "choice_3-weak", "choice_4", "choice_5",
    "choice_6", "choice_7", "choice_8", "carried", "carried-weak",
    "reselected", "type3-defensive",
)

_FIELDS = (("name", "H"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Spans kept as columns in memory, one row per call, and the counters
    the wrappers add to."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {field: array(code) for field, code in _FIELDS}
        self.counters: Counter[str] = Counter()
        self.op_id = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.cols["start"])

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counters, result)``
        runs after each call that returns."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        c = self.cols
        names, parents, ops, starts, ends = (c[f] for f, _ in _FIELDS)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, out)
            return out

        return traced

    def summary(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer figures over the spans lo..hi-1, which must hold whole
        operations, together with the counters."""
        c = self.cols
        names = [self.names[i] for i in c["name"][lo:hi]]
        parents = c["parent"][lo:hi]
        dur = [e - s for s, e in zip(c["start"][lo:hi], c["end"][lo:hi])]
        child = [0.0] * len(dur)
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        by_parent: Counter[tuple[str, str]] = Counter()
        for i, p in enumerate(parents):
            if p >= 0:
                child[p - lo] += dur[i]
                by_parent[(names[i], names[p - lo])] += 1
        for i, name in enumerate(names):
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        out = {
            "graph.parse_s": total["graph.parse"],
            "atoms.s": total["atoms"],
            "atoms.calls": calls["atoms"],
            "atoms.atoms": self.counters["atoms.atoms"],
            "convexity.toll_interval.calls": calls["convexity.toll_interval"],
            "convexity.toll_interval.s": total["convexity.toll_interval"],
            "convexity.toll_hull.self_s": self_s["convexity.toll_hull"],
            "convexity.extreme_vertices.self_s": self_s["convexity.extreme_vertices"],
            "convexity.fast_concavity_test.calls": calls["convexity.fast_concavity_test"],
            "convexity.fast_concavity_test.s": total["convexity.fast_concavity_test"],
            "solver.pair_scan.intervals": by_parent[("convexity.toll_interval", "solver")],
            "solver.self_s": self_s["solver"],
            "solver.merges": self.counters["solver.merges"],
        }
        for label in RULE_LABELS:
            out[f"solver.rule.{label}"] = self.counters[f"solver.rule.{label}"]
        out["enumeration.self_s"] = self_s["enumeration"]
        out["enumeration.sets"] = self.counters["enumeration.sets"]
        out["enumeration.candidates"] = by_parent[("convexity.toll_hull", "enumeration")]
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then each column as raw machine-order
        bytes in header order."""
        header = {
            "names": self.names,
            "count": len(self),
            "columns": [[f, code] for f, code in _FIELDS],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                self.cols[field].tofile(fh)


def load_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.write``: the span names and the
    columns name (index into the names), parent, op, start and end."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            cols[field] = col
    return header["names"], cols


def count_atoms(counters: Counter, dec) -> None:
    counters["atoms.atoms"] += len(dec.atoms)


def count_rules(counters: Counter, result) -> None:
    for entry in result.trace:
        if entry.get("phase") == "merge":
            counters["solver.merges"] += 1
        label = entry.get("choice")
        if label is not None:
            counters[f"solver.rule.{label}"] += 1


def count_sets(counters: Counter, sets) -> None:
    counters["enumeration.sets"] += len(sets)


# (module, bound name, span name, counter) for every call made inside the
# package that crosses into another layer
_INNER = (
    (solver, "atoms", "atoms", count_atoms),
    (solver, "toll_interval", "convexity.toll_interval", None),
    (solver, "fast_concavity_test", "convexity.fast_concavity_test", None),
    (convexity, "toll_interval", "convexity.toll_interval", None),
    (enumeration, "solve", "solver", count_rules),
    (enumeration, "toll_hull", "convexity.toll_hull", None),
)


@contextmanager
def patched(tracer: Tracer):
    """Route the package's own cross-layer calls through ``tracer`` for the
    length of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _INNER]
    try:
        for (mod, attr, name, count), (_, _, fn) in zip(_INNER, saved):
            setattr(mod, attr, tracer.wrap(name, fn, count))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
