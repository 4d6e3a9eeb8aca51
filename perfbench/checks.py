"""Correctness checks on the outputs of one round, run outside the timed
region.

Each check returns None when the output is right, ``Failed(reason)`` for an
operation that returned a valid but incomplete answer (an enumeration that
misses minimum hull sets), and ``Wrong(reason)`` for an answer that breaks
a property the method must have.  The corpus graphs are small enough for
the brute-force oracles, which share no machinery with the production
operators; larger graphs are held to properties of the method instead.
"""
from __future__ import annotations

from dataclasses import dataclass

from tollhull import oracles
from tollhull.convexity import toll_hull
from tollhull.graph import Graph
from tollhull.solver import TYPE3, HullResult


@dataclass(frozen=True)
class Failed:
    reason: str


@dataclass(frozen=True)
class Wrong:
    reason: str


def check_input(g: Graph, inp, out: dict) -> dict:
    """Verdict per operation in ``out``, which maps the operations of
    ``inp`` that returned to their output in the first round and always
    holds ``hull``."""
    V = frozenset(range(g.n))
    res: HullResult = out["hull"]
    use_oracles = inp.use_oracles
    ref_sets = oracles.bf_all_min_hull_sets(g) if use_oracles else None
    verdict = {"hull": _hull(g, res, inp, ref_sets)}
    if "closure" in out:
        verdict["closure"] = _closure(g, res, out["closure"], V, use_oracles)
    if "extreme" in out:
        verdict["extreme"] = _extreme(g, res, out["extreme"], use_oracles)
    if "enumerate" in out:
        extreme = out.get("extreme") or frozenset()
        verdict["enumerate"] = _enumerate(g, inp, res, out["enumerate"], extreme, V, ref_sets)
    return verdict


def _hull(g, res, inp, ref_sets):
    s = res.hull_set
    if len(s) != res.hull_number:
        return Wrong(f"|S*| = {len(s)} but hull number {res.hull_number}")
    if inp.expect_prime and not res.prime:
        return Wrong("a prime gnp graph was decomposed")
    if res.complete and len(s) != g.n:
        return Wrong("a complete graph needs every vertex")
    if res.prime and not res.complete and (len(s) != 2 or max(s) in g.adj[min(s)]):
        return Wrong(f"S* = {sorted(s)} on a prime graph is not a non-adjacent pair")
    if not res.prime and sum(b.granularity for b in res.family) != len(s):
        return Wrong("granularities do not sum to |S*|")
    if ref_sets is not None:
        if res.hull_number != oracles.bf_hull_number(g):
            return Wrong(f"hull number {res.hull_number}, oracle {oracles.bf_hull_number(g)}")
        if s not in ref_sets:
            return Wrong(f"S* = {sorted(s)} is not a minimum hull set by the oracle")
    return None


def _closure(g, res, hull, V, use_oracles):
    if hull != V:
        return Wrong(f"toll_hull(S*) misses {sorted(V - hull)}")
    if use_oracles and oracles.bf_hull(g, res.hull_set) != V:
        return Wrong("S* does not close to V by the oracle")
    return None


def _extreme(g, res, ext, use_oracles):
    type3 = frozenset().union(*(b.vertices for b in res.family if b.ctype == TYPE3))
    if ext != type3:
        return Wrong(f"extreme vertices {sorted(ext)} but type-3 blocks {sorted(type3)}")
    if use_oracles and ext != oracles.bf_extreme_vertices(g):
        return Wrong(f"extreme vertices {sorted(ext)} disagree with the oracle")
    return None


def _enumerate(g, inp, res, sets, extreme, V, ref_sets):
    if not sets:
        return Wrong("no set emitted")
    if inp.enum_limit is not None and len(sets) > inp.enum_limit:
        return Wrong(f"{len(sets)} sets emitted past the limit {inp.enum_limit}")
    if len(set(sets)) != len(sets):
        return Wrong("a set was emitted twice")
    for s in sets:
        if len(s) != res.hull_number:
            return Wrong(f"emitted {sorted(s)} has size {len(s)}, hull number {res.hull_number}")
        if not extreme <= s:
            return Wrong(f"emitted {sorted(s)} lacks extreme vertices {sorted(extreme - s)}")
    if ref_sets is None:
        for s in sets:
            if toll_hull(g, s) != V:
                return Wrong(f"emitted {sorted(s)} does not close to V")
        return None
    ref = set(ref_sets)
    extra = [sorted(s) for s in sets if s not in ref]
    if extra:
        return Wrong(f"emitted {extra} are not minimum hull sets by the oracle")
    if len(sets) < len(ref):
        return Failed(f"missed {len(ref) - len(sets)} of {len(ref)} minimum hull sets")
    return None
