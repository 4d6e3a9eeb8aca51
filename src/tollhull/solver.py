"""Minimum toll hull sets in polynomial time.

Pipeline: complete graphs take the whole vertex set; prime non-complete
graphs take any two non-adjacent vertices; everything else is decomposed
into maximal prime subgraphs.  The extremal atoms seed a working family
whose t-concave interiors are classified as

  type 1: some interior vertex misses a neighbor of the interior,
  type 2: interior and its neighborhood fully joined, interior not a clique,
  type 3: interior plus neighborhood is a clique,

and contribute 1, 2 or all of their vertices.  Members whose interior is
not t-concave are merged with every member containing their border until
the family stabilizes; each merge that produces a t-concave interior picks
its vertices through one of eight selection rules, depending on the type
and on how many merged members were already concave.

Every vertex set in the solver is an int mask, bit v standing for vertex
v, on the graph's ``IntervalKernel``.  Frozensets appear only in the
``HullResult`` and at the pair scan's calls to ``toll_interval``.  Each
selection rule yields its picks, as masks, in a fixed order, and the
solver takes the first pick of the first rule that yields one.

A member found not t-concave keeps its witness: a non-adjacent pair with
no vertex in the interior whose toll interval meets the interior.  Merges
only grow members, and an interior vertex keeps all its neighbours inside
the merged member, so each absorbed interior lies in the merged interior.
A witness of an absorbed member with neither end in the merged interior
therefore refutes the merged member too, and is tried before any test.

The t-concave interiors left in the family at the end form a family of
pairwise disjoint concave sets whose granularities add up to the hull
number; the type-3 members are exactly the toll extreme vertices.
"""
from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from operator import attrgetter

from .atoms import AtomDecomposition, atoms
# perfbench's traced mode counts the concavity layer by wrapping the names
# fast_concavity_test and toll_interval in this module, so both stay bound
# here, and the pair scan calls toll_interval through it, until the solver
# records its own counts; fast_concavity_test itself is no longer called
from .convexity import (
    _mask_of,
    _members,
    fast_concavity_test,
    interval_kernel,
    toll_interval,
)
from .graph import Graph, GraphError


class SolverInvariantError(RuntimeError):
    """An internal guarantee of the solver was violated.

    This always signals an implementation bug, never a user error.
    """


TYPE1, TYPE2, TYPE3 = 1, 2, 3


def classify_type(g: Graph, interior: int) -> int:
    """Type of a t-concave interior mask, driven by N(interior)."""
    if not interior:
        raise GraphError("cannot classify an empty interior")
    k = interval_kernel(g)
    inside = _members(interior)
    nb = 0
    for v in inside:
        nb |= k.adj[v]
    nb &= ~interior
    if any(nb & ~k.adj[v] for v in inside):
        return TYPE1
    if not k.clique(interior):
        return TYPE2
    if k.clique(interior | nb):
        return TYPE3
    raise SolverInvariantError(
        "interior joined to a non-clique neighborhood cannot be classified"
    )


@dataclass(frozen=True)
class CharacteristicBlock:
    """A t-concave interior of the final family with its granularity.

    ``chosen`` holds the ``granularity`` vertices the solver took from the
    interior.  Every minimum hull set takes exactly that many vertices from
    it; ``enumeration`` lists the sets.
    """

    vertices: frozenset[int]
    ctype: int
    granularity: int
    chosen: tuple[int, ...]


@dataclass(frozen=True)
class HullResult:
    hull_set: frozenset[int]
    hull_number: int
    family: tuple[CharacteristicBlock, ...]
    f_star: tuple[frozenset[int], ...]
    m_star: tuple[frozenset[int], ...]
    extreme_vertices: frozenset[int]
    prime: bool
    complete: bool
    trace: tuple[dict, ...]


@dataclass(eq=False)
class _Member:
    """A member of the working family: an atom, or the merge of several.

    ``mask`` and ``border`` are the masks of its vertices and of its
    border (the vertices with a neighbor outside it), ``key`` its sorted
    vertices, which order the family, ``seq`` its place in the order the
    members were made, and ``chosen`` the mask of its picks.  ``witness``
    is 0, or for a member whose interior is not t-concave, the mask of a
    non-adjacent pair outside the interior whose toll interval meets it.
    """

    mask: int
    border: int
    key: tuple[int, ...]
    seq: int
    concave: bool = False
    ctype: int | None = None
    chosen: int = 0
    witness: int = 0

    @property
    def interior(self) -> int:
        return self.mask & ~self.border


@dataclass(frozen=True)
class ChoiceContext:
    """Merge-step bindings: the triggering member, the merged member, and
    the members folded into it, ordered by their sorted vertices."""

    f_circ: _Member
    f_bullet: _Member
    members: tuple[_Member, ...]


_by_key = attrgetter("key")


def _member(g: Graph, mask: int, seq: int) -> _Member:
    adj = interval_kernel(g).adj
    key = tuple(_members(mask))
    outside = ~mask
    border = _mask_of(v for v in key if adj[v] & outside)
    return _Member(mask=mask, border=border, key=key, seq=seq)


class _Index:
    """Members by vertex: ``at[v]`` holds the members containing v, and
    ``members`` all of them, each in the order they were added."""

    def __init__(self, n: int):
        self.at: list[dict[_Member, None]] = [{} for _ in range(n)]
        self.members: dict[_Member, None] = {}

    def add(self, mem: _Member) -> None:
        self.members[mem] = None
        for v in mem.key:
            self.at[v][mem] = None

    def remove(self, mem: _Member) -> None:
        del self.members[mem]
        for v in mem.key:
            del self.at[v][mem]

    def containing(self, mask: int) -> list[_Member]:
        """The members holding every vertex of a non-empty mask."""
        least = (mask & -mask).bit_length() - 1
        return [m for m in self.at[least] if not mask & ~m.mask]

    def meeting(self, mask: int) -> list[_Member]:
        """The members sharing a vertex with the mask."""
        return list(dict.fromkeys(m for v in _members(mask) for m in self.at[v]))


# -- selection rules ---------------------------------------------------------
#
# Each rule yields its picks in ascending order: single vertices 1 << u by
# u, pairs by their lesser vertex and then the greater.


def _type1_candidates(g: Graph, b: _Member, strong: bool) -> Iterator[int]:
    """Interior vertices missing a border neighbor, ascending.

    The strong form additionally demands, for every connected component H
    of the graph outside the block, a border vertex non-adjacent to the
    candidate with a neighbor in H.  That keeps the whole interior
    absorbable into a hull started from the candidate and any one vertex
    beyond the block, whichever side it lies on.
    """
    k = interval_kernel(g)
    anchor_sets = []
    if strong:
        rest = k.full & ~b.mask
        while rest:
            comp, touched = k.flood(rest, rest & -rest)
            anchor_sets.append(touched & b.border)
            rest &= ~comp
    for u in _members(b.interior):
        if b.border & ~k.adj[u] and all(a & ~k.adj[u] for a in anchor_sets):
            yield u


def choice_1(g: Graph, ctx: ChoiceContext, strong: bool = True) -> Iterator[int]:
    """Type-1 pick: an interior vertex of the target block that misses a
    border neighbor on every side of the block."""
    for u in _type1_candidates(g, ctx.f_bullet, strong):
        yield 1 << u


def choice_2(g: Graph, ctx: ChoiceContext, strong: bool = True) -> Iterator[int]:
    """Choice-3 vertices that also miss a neighbor in the border of the
    triggering member."""
    return _missing_circ(g, ctx, choice_3(g, ctx, strong))


def choice_3(g: Graph, ctx: ChoiceContext, strong: bool = True) -> Iterator[int]:
    """Choice-1 vertices that sit in the interior of one merged member
    while a different merged member contains the whole merged border."""
    for u in _type1_candidates(g, ctx.f_bullet, strong):
        if _has_split_pair(ctx, u):
            yield 1 << u


def _has_split_pair(ctx: ChoiceContext, u: int) -> bool:
    """u lies in the interior of some merged member F1 while a different
    merged member F2 contains the merged border."""
    f1 = next((m for m in ctx.members if m.interior >> u & 1), None)
    if f1 is None:
        return False
    border = ctx.f_bullet.border
    return any(m is not f1 and not border & ~m.mask for m in ctx.members)


def choice_4(g: Graph, ctx: ChoiceContext) -> Iterator[int]:
    """Non-adjacent interior pairs of the target block."""
    adj = interval_kernel(g).adj
    interior = ctx.f_bullet.interior
    for a in _members(interior):
        for b in _members(interior & ~adj[a] & -(2 << a)):
            yield 1 << a | 1 << b


def choice_5(g: Graph, ctx: ChoiceContext) -> Iterator[int]:
    """Non-adjacent pairs inside one merged member's interior, each vertex
    with a non-neighbor in the triggering border, such that the closed
    neighborhood of either vertex leaves the other connected to the
    partner's witness."""
    return _witnessed_pairs(g, ctx, same=True)


def choice_6(g: Graph, ctx: ChoiceContext) -> Iterator[int]:
    """Like choice_5 but the two vertices come from the interiors of two
    different merged members."""
    return _witnessed_pairs(g, ctx, same=False)


def _witnessed_pairs(g: Graph, ctx: ChoiceContext, same: bool) -> Iterator[int]:
    """The non-adjacent pairs a < b of merged-interior vertices, lying in
    one member's interior when ``same`` and in two members' otherwise,
    such that each of a, b has a non-neighbor in the triggering border
    inside the other's component of G - N[itself]."""
    k = interval_kernel(g)
    circ = ctx.f_circ.border
    # member interiors are pairwise disjoint (a family law), so each vertex
    # has one owner
    owner = {v: i for i, m in enumerate(ctx.members) for v in _members(m.interior)}
    pool = _mask_of(owner)
    for a in _members(pool):
        # the side of a maps b to its component of G - N[a] plus neighbors
        # of a; masking those neighbors off leaves the component
        for b in _members(pool & ~k.adj[a] & -(2 << a)):
            if (owner[a] == owner[b]) != same:
                continue
            if k.side(a)[b] & circ & ~k.adj[a] and k.side(b)[a] & circ & ~k.adj[b]:
                yield 1 << a | 1 << b


def choice_7(g: Graph, ctx: ChoiceContext, f1: _Member) -> Iterator[int]:
    """Choice-8 vertices that miss a neighbor in the triggering border."""
    return _missing_circ(g, ctx, choice_8(g, ctx, f1))


def choice_8(g: Graph, ctx: ChoiceContext, f1: _Member) -> Iterator[int]:
    """Any interior vertex of a merged member other than f1."""
    pool = 0
    for m in ctx.members:
        if m.mask != f1.mask:
            pool |= m.interior
    for u in _members(pool):
        yield 1 << u


def _missing_circ(g: Graph, ctx: ChoiceContext, picks: Iterator[int]) -> Iterator[int]:
    """The single-vertex picks that miss a neighbor in the triggering
    border."""
    adj = interval_kernel(g).adj
    circ = ctx.f_circ.border
    return (p for p in picks if circ & ~adj[p.bit_length() - 1] & ~p)


def _first(rungs: list[tuple[str, Iterator[int]]]) -> tuple[int, str]:
    """The first pick of the first rung that yields one, with the rung's
    label.  Rungs are tried in order, and a rung runs only until its first
    pick."""
    for label, picks in rungs:
        pick = next(picks, None)
        if pick is not None:
            return pick, label
    raise SolverInvariantError(f"{rungs[-1][0]} found no candidate")


# -- concavity ----------------------------------------------------------------


def _interior_concave(g: Graph, mem: _Member, parts=()) -> bool:
    """The interior of a member is t-concave.  A witness of one of the
    ``parts``, the members absorbed into it, refutes it when neither end
    lies in its interior; otherwise the fast test decides when its border
    is a clique and its interior connected, and a scan of the intervals of
    the non-adjacent pairs outside it decides the rest.  A refuted member
    keeps the pair that refuted it as its ``witness``."""
    interior = mem.interior
    if not interior:
        return True
    for p in parts:
        if p.witness and not p.witness & interior:
            mem.witness = p.witness
            return False
    k = interval_kernel(g)
    if k.clique(mem.border) and k.connected(interior):
        mem.witness = k.concavity_witness(mem.mask, (interior & -interior).bit_length() - 1)
        return not mem.witness
    # toll_interval answers with a frozenset
    inner = frozenset(_members(interior))
    for a, c in combinations(_members(k.full & ~interior), 2):
        if not k.adj[a] >> c & 1 and toll_interval(g, a, c) & inner:
            mem.witness = 1 << a | 1 << c
            return False
    return True


def _classify(g: Graph, mem: _Member, parts=()) -> None:
    mem.concave = _interior_concave(g, mem, parts)
    mem.ctype = classify_type(g, mem.interior) if mem.concave else None


# -- the solver ---------------------------------------------------------------


def _least_nonadjacent_pair(g: Graph) -> frozenset[int]:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v not in g.adj[u]:
                return frozenset({u, v})
    raise SolverInvariantError("no non-adjacent pair in a non-complete graph")


def solve(g: Graph, collect_trace: bool = True) -> HullResult:
    """Compute a minimum toll hull set with its characteristic family."""
    if g.n == 0:
        raise GraphError("hull of the empty graph is undefined")
    if not g.is_connected():
        raise GraphError("hull computation requires a connected graph")
    V = frozenset(range(g.n))
    trace: list[dict] = []

    if g.is_clique(V):
        block = CharacteristicBlock(
            vertices=V,
            ctype=TYPE3,
            granularity=g.n,
            chosen=tuple(range(g.n)),
        )
        if collect_trace:
            trace.append({"phase": "complete"})
        return HullResult(
            hull_set=V,
            hull_number=g.n,
            family=(block,),
            f_star=(V,),
            m_star=(),
            extreme_vertices=V,
            prime=True,
            complete=True,
            trace=tuple(trace),
        )

    dec = atoms(g)
    if len(dec.atoms) == 1:
        pair = _least_nonadjacent_pair(g)
        if collect_trace:
            trace.append({"phase": "prime", "pair": sorted(pair)})
        return HullResult(
            hull_set=pair,
            hull_number=2,
            family=(),
            f_star=(V,),
            m_star=(),
            extreme_vertices=frozenset(),
            prime=True,
            complete=False,
            trace=tuple(trace),
        )

    return _solve_reducible(g, dec, trace if collect_trace else None)


def _solve_reducible(g: Graph, dec: AtomDecomposition, trace) -> HullResult:
    k = interval_kernel(g)
    f_index, m_index = _Index(g.n), _Index(g.n)
    for seq, (atom, flag) in enumerate(zip(dec.atoms, dec.extremal_flags)):
        mem = _member(g, _mask_of(atom), seq)
        if flag:
            _classify(g, mem)
            f_index.add(mem)
        else:
            m_index.add(mem)
            # a non-extremal atom always disconnects the graph
            rest = k.full & ~mem.mask
            if not rest or k.connected(rest):
                raise SolverInvariantError(
                    "non-extremal atom fails to disconnect the graph"
                )
    if len(f_index.members) < 2:
        raise SolverInvariantError("reducible graph with fewer than two extremal atoms")

    s = 0  # the hull set

    for mem in sorted(f_index.members, key=_by_key):
        if not mem.interior:
            raise SolverInvariantError("extremal atom with empty interior")
        if not mem.concave:
            continue
        ctx = ChoiceContext(f_circ=mem, f_bullet=mem, members=(mem,))
        if mem.ctype == TYPE1:
            pick, label = _first([
                ("choice_1", choice_1(g, ctx)),
                ("choice_1-weak", choice_1(g, ctx, strong=False)),
            ])
        elif mem.ctype == TYPE2:
            pick, label = _first([("choice_4", choice_4(g, ctx))])
        else:
            pick, label = mem.interior, "type3"
        mem.chosen = pick
        s |= pick
        if trace is not None:
            trace.append({
                "phase": "initial",
                "member": list(mem.key),
                "type": mem.ctype,
                "choice": label,
                "chosen": _members(pick),
            })

    # The merge targets are the non-concave members whose border lies in
    # another member, their partner.  A partner merged away leaves its
    # vertices in the merged member, so a target waits in the queue until
    # it is merged itself; a member without a partner can gain one only
    # from a new merged member.
    queue: list = []
    waiting: list[_Member] = []

    def offer(f: _Member) -> None:
        if m_index.containing(f.border) or any(
            o is not f for o in f_index.containing(f.border)
        ):
            heappush(queue, (f.key, f.seq, f))
        else:
            waiting.append(f)

    for f in f_index.members:
        if not f.concave:
            offer(f)

    iteration = 0
    budget = len(dec.atoms) + 1
    while True:
        target = _pick_merge_target(queue, f_index)
        if target is None:
            break
        iteration += 1
        if iteration > budget:
            raise SolverInvariantError("merge loop exceeded its termination bound")
        m_prime = m_index.containing(target.border)
        f_prime = f_index.containing(target.border)
        if len(m_prime) + len(f_prime) < 2:
            raise SolverInvariantError("merge target lost its partner")
        new_mask = chosen = 0
        for m in m_prime:
            m_index.remove(m)
            new_mask |= m.mask
        for f in f_prime:
            f_index.remove(f)
            new_mask |= f.mask
            chosen |= f.chosen
        new_member = _member(g, new_mask, len(dec.atoms) + iteration)
        _classify(g, new_member, f_prime)
        new_member.chosen = chosen
        _check_family_invariants(
            g, new_member, f_index.meeting(new_mask) + m_index.meeting(new_mask)
        )
        f_index.add(new_member)
        held, waiting = waiting, []
        for f in held:
            if f not in f_index.members:
                continue
            if f.border & ~new_mask:
                waiting.append(f)
            else:
                heappush(queue, (f.key, f.seq, f))
        if not new_member.concave:
            offer(new_member)

        entry = {
            "phase": "merge",
            "iteration": iteration,
            "f_circ": list(target.key),
            "f_prime": [list(f.key) for f in f_prime],
            "m_prime": [list(m.key) for m in m_prime],
            "f_bullet": list(new_member.key),
            "type": new_member.ctype,
            "k": None,
            "choice": None,
            "chosen": [],
        }
        if new_member.concave:
            s = _apply_merge_choice(g, target, f_prime, m_prime, new_member, s, entry)
        if trace is not None:
            trace.append(entry)

    return _finish(list(f_index.members), list(m_index.members), s, trace)


def _pick_merge_target(queue, f_index: _Index) -> _Member | None:
    """The least member, by sorted vertices, of the merge targets still in
    the family."""
    while queue:
        f = heappop(queue)[2]
        if f in f_index.members:
            return f
    return None


def _apply_merge_choice(g, target, f_prime, m_prime, new_member, s, entry) -> int:
    """Pick the vertices of a merged concave member, record them in the
    member and the trace entry, and return the hull set with them."""
    i = new_member.ctype
    k_members = [f for f in f_prime if f.concave]
    k = len(k_members)
    if k > 2:
        raise SolverInvariantError("more than two concave members were merged")
    if any(f.ctype != TYPE1 for f in k_members):
        raise SolverInvariantError("merged concave member of type other than 1")
    if i == TYPE1 and k > 1:
        raise SolverInvariantError("type-1 merge with two concave members")
    ctx = ChoiceContext(
        f_circ=target,
        f_bullet=new_member,
        members=tuple(sorted(f_prime + m_prime, key=_by_key)),
    )
    entry["k"] = k

    if i == TYPE1 and k == 0:
        pick, label = _first([
            ("choice_2", choice_2(g, ctx)),
            ("choice_3", choice_3(g, ctx)),
            # the structural clause can exclude every vertex with border
            # witnesses on all sides; those witnesses outrank the clause
            ("choice_1-fallback", choice_1(g, ctx)),
            ("choice_2-weak", choice_2(g, ctx, strong=False)),
            ("choice_3-weak", choice_3(g, ctx, strong=False)),
            ("choice_1-weak", choice_1(g, ctx, strong=False)),
        ])
        chosen = pick
    elif i == TYPE1 and k == 1:
        # the merge may have swallowed the border vertex that justified the
        # earlier pick; keep it only if choice_1 still yields it on the
        # merged member
        f1 = k_members[0]
        pick, label = _first([
            ("carried", choice_1(g, ctx)),
            ("carried-weak", choice_1(g, ctx, strong=False)),
        ])
        if f1.chosen in choice_1(g, ctx, strong=label == "carried"):
            pick = f1.chosen
        else:
            label = "reselected"
            s &= ~f1.chosen
        chosen = pick
    elif i == TYPE2 and k == 0:
        pick, label = _first([
            ("choice_5", choice_5(g, ctx)),
            ("choice_6", choice_6(g, ctx)),
        ])
        chosen = pick
    elif i == TYPE2 and k == 1:
        f1 = k_members[0]
        pick, label = _first([
            ("choice_7", choice_7(g, ctx, f1)),
            ("choice_8", choice_8(g, ctx, f1)),
        ])
        chosen = f1.chosen | pick
    elif i == TYPE2 and k == 2:
        pick, label = 0, "carried"
        chosen = k_members[0].chosen | k_members[1].chosen
    else:
        # no rule exists for a merged type-3 interior; it is believed
        # unreachable, but a silent miscount would be worse than a loud one
        warnings.warn("merged block produced a type-3 interior; taking all of it")
        pick = chosen = new_member.interior
        label = "type3-defensive"
        entry["defensive"] = True
    new_member.chosen = chosen
    entry["choice"], entry["chosen"] = label, _members(pick)
    return s | pick


def _check_family_invariants(g, new_member, others):
    """The freshly merged member keeps the family laws: non-empty interior,
    interiors disjoint from every other member, pairwise clique overlaps.
    ``others`` needs to hold only the members meeting it, since a disjoint
    member keeps both laws."""
    interior = new_member.interior
    if not interior:
        raise SolverInvariantError("merged member with empty interior")
    k = interval_kernel(g)
    for o in others:
        if interior & o.interior:
            raise SolverInvariantError("member interiors overlap")
        if not k.clique(new_member.mask & o.mask):
            raise SolverInvariantError("member overlap is not a clique")


def _finish(f_members, m_members, s, trace) -> HullResult:
    family = []
    covered = extreme = 0
    for mem in sorted(f_members, key=_by_key):
        if not mem.concave:
            continue
        interior = mem.interior
        gran = interior.bit_count() if mem.ctype == TYPE3 else mem.ctype
        got = s & interior
        if got != mem.chosen or got.bit_count() != gran:
            raise SolverInvariantError("granularity accounting failed")
        covered |= got
        if mem.ctype == TYPE3:
            extreme |= interior
        family.append(CharacteristicBlock(
            vertices=frozenset(_members(interior)),
            ctype=mem.ctype,
            granularity=gran,
            chosen=tuple(_members(got)),
        ))
    if covered != s:
        raise SolverInvariantError("selected vertex outside every concave interior")
    if sum(b.granularity for b in family) != s.bit_count():
        raise SolverInvariantError("granularities do not sum to the hull size")
    hull_set = frozenset(_members(s))
    return HullResult(
        hull_set=hull_set,
        hull_number=len(hull_set),
        family=tuple(family),
        f_star=tuple(frozenset(f.key) for f in sorted(f_members, key=_by_key)),
        m_star=tuple(frozenset(m.key) for m in sorted(m_members, key=_by_key)),
        extreme_vertices=frozenset(_members(extreme)),
        prime=False,
        complete=False,
        trace=tuple(trace) if trace is not None else (),
    )
