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

The t-concave interiors left in the family at the end form a family of
pairwise disjoint concave sets whose granularities add up to the hull
number; the type-3 members are exactly the toll extreme vertices.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from operator import attrgetter

from .atoms import AtomDecomposition, atoms
from .convexity import (
    Block,
    _mask_of,
    _members,
    fast_concavity_test,
    interval_kernel,
    make_block,
    toll_interval,
)
from .graph import Graph, GraphError


class SolverInvariantError(RuntimeError):
    """An internal guarantee of the solver was violated.

    This always signals an implementation bug, never a user error.
    """


TYPE1, TYPE2, TYPE3 = 1, 2, 3


def classify_type(g: Graph, b: Block) -> int:
    """Type of a t-concave interior, driven by N(interior)."""
    interior = b.interior
    if not interior:
        raise GraphError("cannot classify an empty interior")
    nb: set[int] = set()
    for v in interior:
        nb |= g.adj[v]
    nb -= interior
    if any(not (nb <= g.adj[v]) for v in interior):
        return TYPE1
    if not g.is_clique(interior):
        return TYPE2
    if g.is_clique(interior | nb):
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


@dataclass(frozen=True)
class ChoiceContext:
    """Merge-step bindings: the triggering member, the merged block, and the
    blocks of everything folded into it."""

    f_circ: Block
    f_bullet: Block
    members: tuple[Block, ...]
    i: int | None
    k: int


@dataclass(eq=False)
class _Member:
    """A member of the working family: an atom, or the merge of several.

    ``mask`` and ``border`` are the masks of its vertices and of its
    border, ``key`` its sorted vertices, which order the family, and
    ``seq`` its place in the order the members were made.
    """

    block: Block
    mask: int
    border: int
    key: tuple[int, ...]
    seq: int
    concave: bool = False
    ctype: int | None = None
    chosen: frozenset[int] = frozenset()


_by_key = attrgetter("key")


def _member(g: Graph, vertices: frozenset[int], seq: int) -> _Member:
    block = make_block(g, vertices)
    return _Member(
        block=block,
        mask=_mask_of(block.vertices),
        border=_mask_of(block.border),
        key=tuple(sorted(block.vertices)),
        seq=seq,
    )


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


def _nonneighbors_in(g: Graph, u: int, s: frozenset[int]) -> frozenset[int]:
    return (s - g.adj[u]) - {u}


def _type1_candidates(g: Graph, b: Block, strong: bool) -> list[int]:
    """Interior vertices missing a border neighbor.

    The strong form additionally demands, for every connected component H
    of the graph outside the block, a border vertex non-adjacent to the
    candidate with a neighbor in H.  That keeps the whole interior
    absorbable into a hull started from the candidate and any one vertex
    beyond the block, whichever side it lies on.
    """
    weak = [u for u in sorted(b.interior) if _nonneighbors_in(g, u, b.border)]
    if not strong:
        return weak
    anchor_sets = [
        frozenset(v for v in b.border if g.adj[v] & comp)
        for comp in g.components(removed=b.vertices)
    ]
    return [
        u
        for u in weak
        if all((a - g.adj[u]) - {u} for a in anchor_sets)
    ]


def choice_1(
    g: Graph, ctx: ChoiceContext, strong: bool = True
) -> tuple[frozenset[int], ...]:
    """Type-1 pick: an interior vertex of the target block that misses a
    border neighbor on every side of the block."""
    return tuple(
        frozenset({u}) for u in _type1_candidates(g, ctx.f_bullet, strong)
    )


def choice_2(
    g: Graph, ctx: ChoiceContext, strong: bool = True
) -> tuple[frozenset[int], ...]:
    """Choice-1 vertices that also miss a neighbor in the border of the
    triggering member and sit in the interior of one merged member while a
    different merged member contains the whole merged border."""
    out = []
    for u in _type1_candidates(g, ctx.f_bullet, strong):
        if not _nonneighbors_in(g, u, ctx.f_circ.border):
            continue
        if _has_split_pair(g, ctx, u, ctx.f_bullet.border):
            out.append(frozenset({u}))
    return tuple(out)


def choice_3(
    g: Graph, ctx: ChoiceContext, strong: bool = True
) -> tuple[frozenset[int], ...]:
    """Choice-2 without the extra non-neighbor requirement."""
    out = []
    for u in _type1_candidates(g, ctx.f_bullet, strong):
        if _has_split_pair(g, ctx, u, ctx.f_bullet.border):
            out.append(frozenset({u}))
    return tuple(out)


def _has_split_pair(g, ctx, u, bullet_border) -> bool:
    """u lies in the interior of some merged member F1 while a different
    merged member F2 contains the merged border."""
    f1 = next((m for m in ctx.members if u in m.interior), None)
    if f1 is None:
        return False
    return any(
        m is not f1 and bullet_border <= m.vertices for m in ctx.members
    )


def choice_4(g: Graph, ctx: ChoiceContext) -> tuple[frozenset[int], ...]:
    """Non-adjacent interior pairs of the target block."""
    ints = sorted(ctx.f_bullet.interior)
    return tuple(
        frozenset({a, b})
        for a, b in combinations(ints, 2)
        if b not in g.adj[a]
    )


def choice_5(g: Graph, ctx: ChoiceContext) -> tuple[frozenset[int], ...]:
    """Non-adjacent pairs inside one merged member's interior, each vertex
    with a non-neighbor in the triggering border, such that the closed
    neighborhood of either vertex leaves the other connected to the
    partner's witness."""
    witnessed = _witness_test(g, ctx)
    out = set()
    for member in ctx.members:
        for a, b in combinations(sorted(member.interior), 2):
            if witnessed(a, b):
                out.add(frozenset({a, b}))
    return tuple(sorted(out, key=sorted))


def choice_6(g: Graph, ctx: ChoiceContext) -> tuple[frozenset[int], ...]:
    """Like choice_5 but the two vertices come from the interiors of two
    different merged members."""
    witnessed = _witness_test(g, ctx)
    out = set()
    for m1, m2 in combinations(ctx.members, 2):
        for a in sorted(m1.interior):
            for b in sorted(m2.interior):
                if witnessed(a, b):
                    out.add(frozenset({a, b}))
    return tuple(sorted(out, key=sorted))


def _witness_test(g: Graph, ctx: ChoiceContext):
    """``witnessed(a, b)``: a and b are non-adjacent, and each has a
    non-neighbor in the triggering border lying in the other's component
    of G - N[itself]."""
    k = interval_kernel(g)
    circ = sum(1 << v for v in ctx.f_circ.border)

    def witnessed(a: int, b: int) -> bool:
        # the side of a maps b to its component of G - N[a] plus neighbors
        # of a; masking those neighbors off leaves the component
        if k.adj[a] >> b & 1:
            return False
        return bool(
            k.side(a)[b] & circ & ~k.adj[a] and k.side(b)[a] & circ & ~k.adj[b]
        )

    return witnessed


def choice_7(
    g: Graph, ctx: ChoiceContext, f1: Block
) -> tuple[frozenset[int], ...]:
    """Interior vertices of merged members other than f1 that miss a
    neighbor in the triggering border."""
    out = set()
    for member in ctx.members:
        if member.vertices == f1.vertices:
            continue
        for u in sorted(member.interior):
            if _nonneighbors_in(g, u, ctx.f_circ.border):
                out.add(frozenset({u}))
    return tuple(sorted(out, key=sorted))


def choice_8(
    g: Graph, ctx: ChoiceContext, f1: Block
) -> tuple[frozenset[int], ...]:
    """Any interior vertex of a merged member other than f1."""
    out = set()
    for member in ctx.members:
        if member.vertices == f1.vertices:
            continue
        for u in sorted(member.interior):
            out.add(frozenset({u}))
    return tuple(sorted(out, key=sorted))


# -- concavity ----------------------------------------------------------------


def _interior_concave(g: Graph, mem: _Member) -> bool:
    """The interior of a member is t-concave: the fast test when its border
    is a clique and its interior connected, otherwise a scan of the
    intervals of the non-adjacent pairs outside it."""
    b = mem.block
    if not b.interior:
        return True
    k = interval_kernel(g)
    if k.clique(mem.border) and k.connected(mem.mask & ~mem.border):
        return fast_concavity_test(g, b)
    outside = sorted(frozenset(range(g.n)) - b.interior)
    for a, c in combinations(outside, 2):
        if c not in g.adj[a] and toll_interval(g, a, c) & b.interior:
            return False
    return True


def _classify(g: Graph, mem: _Member) -> None:
    mem.concave = _interior_concave(g, mem)
    mem.ctype = classify_type(g, mem.block) if mem.concave else None


# -- the solver ---------------------------------------------------------------


def _least_nonadjacent_pair(g: Graph) -> frozenset[int]:
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if v not in g.adj[u]:
                return frozenset({u, v})
    raise SolverInvariantError("no non-adjacent pair in a non-complete graph")


def _granularity(ctype: int, interior: frozenset[int]) -> int:
    return len(interior) if ctype == TYPE3 else ctype


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
        mem = _member(g, atom, seq)
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

    s: set[int] = set()

    for mem in sorted(f_index.members, key=_by_key):
        if not mem.block.interior:
            raise SolverInvariantError("extremal atom with empty interior")
        if not mem.concave:
            continue
        ctx = ChoiceContext(
            f_circ=mem.block, f_bullet=mem.block, members=(mem.block,),
            i=mem.ctype, k=0,
        )
        if mem.ctype == TYPE1:
            picks, label = choice_1(g, ctx), "choice_1"
            if not picks:
                picks, label = choice_1(g, ctx, strong=False), "choice_1-weak"
        elif mem.ctype == TYPE2:
            picks, label = choice_4(g, ctx), "choice_4"
        else:
            picks, label = (mem.block.interior,), "type3"
        if not picks:
            raise SolverInvariantError(f"{label} found no candidate")
        mem.chosen = picks[0]
        s |= picks[0]
        if trace is not None:
            trace.append({
                "phase": "initial",
                "member": list(mem.key),
                "type": mem.ctype,
                "choice": label,
                "chosen": sorted(picks[0]),
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
        new_mask = 0
        for m in m_prime:
            m_index.remove(m)
            new_mask |= m.mask
        for f in f_prime:
            f_index.remove(f)
            new_mask |= f.mask
        new_member = _member(
            g, frozenset(_members(new_mask)), len(dec.atoms) + iteration
        )
        _classify(g, new_member)
        new_member.chosen = frozenset().union(*[f.chosen for f in f_prime])
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
            _apply_merge_choice(g, target, f_prime, m_prime, new_member, s, entry)
        if trace is not None:
            trace.append(entry)

    return _finish(g, list(f_index.members), list(m_index.members), s, trace)


def _pick_merge_target(queue, f_index: _Index) -> _Member | None:
    """The least member, by sorted vertices, of the merge targets still in
    the family."""
    while queue:
        f = heappop(queue)[2]
        if f in f_index.members:
            return f
    return None


def _apply_merge_choice(g, target, f_prime, m_prime, new_member, s, entry):
    i = new_member.ctype
    k_members = [f for f in f_prime if f.concave]
    k = len(k_members)
    if k > 2:
        raise SolverInvariantError("more than two concave members were merged")
    if any(f.ctype != TYPE1 for f in k_members):
        raise SolverInvariantError("merged concave member of type other than 1")
    if i == TYPE1 and k > 1:
        raise SolverInvariantError("type-1 merge with two concave members")
    member_blocks = tuple(m.block for m in sorted(f_prime + m_prime, key=_by_key))
    ctx = ChoiceContext(
        f_circ=target.block,
        f_bullet=new_member.block,
        members=member_blocks,
        i=i,
        k=k,
    )
    entry["k"] = k

    if i == TYPE1 and k == 0:
        picks, label = choice_2(g, ctx), "choice_2"
        if not picks:
            picks, label = choice_3(g, ctx), "choice_3"
        if not picks:
            # the structural clause can exclude every vertex with border
            # witnesses on all sides; those witnesses outrank the clause
            picks, label = choice_1(g, ctx), "choice_1-fallback"
        if not picks:
            picks, label = choice_2(g, ctx, strong=False), "choice_2-weak"
        if not picks:
            picks, label = choice_3(g, ctx, strong=False), "choice_3-weak"
        if not picks:
            picks, label = choice_1(g, ctx, strong=False), "choice_1-weak"
        if not picks:
            raise SolverInvariantError("choice_3 found no candidate")
        new_member.chosen = picks[0]
        s |= picks[0]
        entry["choice"], entry["chosen"] = label, sorted(picks[0])
    elif i == TYPE1 and k == 1:
        # the merge may have swallowed the border vertex that justified the
        # earlier pick; keep it only if choice_1 still returns it on the
        # merged block
        f1 = k_members[0]
        picks, label = choice_1(g, ctx), "carried"
        if not picks:
            picks, label = choice_1(g, ctx, strong=False), "carried-weak"
        if not picks:
            raise SolverInvariantError("type-1 merge lost every qualifying vertex")
        if f1.chosen in picks:
            new_member.chosen = f1.chosen
        else:
            label = "reselected"
            s -= f1.chosen
            s |= picks[0]
            new_member.chosen = picks[0]
        entry["choice"] = label
        entry["chosen"] = sorted(new_member.chosen)
    elif i == TYPE2 and k == 0:
        picks, label = choice_5(g, ctx), "choice_5"
        if not picks:
            picks, label = choice_6(g, ctx), "choice_6"
        if not picks:
            raise SolverInvariantError("neither choice_5 nor choice_6 applies")
        new_member.chosen = picks[0]
        s |= picks[0]
        entry["choice"], entry["chosen"] = label, sorted(picks[0])
    elif i == TYPE2 and k == 1:
        f1 = k_members[0]
        singles, label = choice_7(g, ctx, f1.block), "choice_7"
        if not singles:
            singles, label = choice_8(g, ctx, f1.block), "choice_8"
        if not singles:
            raise SolverInvariantError("choice_8 found no candidate")
        s |= singles[0]
        new_member.chosen = f1.chosen | singles[0]
        entry["choice"], entry["chosen"] = label, sorted(singles[0])
    elif i == TYPE2 and k == 2:
        new_member.chosen = k_members[0].chosen | k_members[1].chosen
        entry["choice"] = "carried"
    else:
        # no rule exists for a merged type-3 interior; it is believed
        # unreachable, but a silent miscount would be worse than a loud one
        warnings.warn("merged block produced a type-3 interior; taking all of it")
        new_member.chosen = new_member.block.interior
        s |= new_member.chosen
        entry["choice"], entry["chosen"] = "type3-defensive", sorted(new_member.chosen)
        entry["defensive"] = True


def _check_family_invariants(g, new_member, others):
    """The freshly merged member keeps the family laws: non-empty interior,
    interiors disjoint from every other member, pairwise clique overlaps.
    ``others`` needs to hold only the members meeting it, since a disjoint
    member keeps both laws."""
    if not new_member.block.interior:
        raise SolverInvariantError("merged member with empty interior")
    k = interval_kernel(g)
    interior = new_member.mask & ~new_member.border
    for o in others:
        if interior & o.mask & ~o.border:
            raise SolverInvariantError("member interiors overlap")
        if not k.clique(new_member.mask & o.mask):
            raise SolverInvariantError("member overlap is not a clique")


def _finish(g, f_members, m_members, s, trace) -> HullResult:
    s_frozen = frozenset(s)
    family = []
    covered: set[int] = set()
    extreme: set[int] = set()
    for mem in sorted(f_members, key=_by_key):
        if not mem.concave:
            continue
        interior = mem.block.interior
        gran = _granularity(mem.ctype, interior)
        got = s_frozen & interior
        if got != mem.chosen or len(got) != gran:
            raise SolverInvariantError("granularity accounting failed")
        covered |= got
        if mem.ctype == TYPE3:
            extreme |= interior
        family.append(CharacteristicBlock(
            vertices=interior,
            ctype=mem.ctype,
            granularity=gran,
            chosen=tuple(sorted(got)),
        ))
    if covered != s_frozen:
        raise SolverInvariantError("selected vertex outside every concave interior")
    if sum(b.granularity for b in family) != len(s_frozen):
        raise SolverInvariantError("granularities do not sum to the hull size")
    return HullResult(
        hull_set=s_frozen,
        hull_number=len(s_frozen),
        family=tuple(family),
        f_star=tuple(f.block.vertices for f in sorted(f_members, key=_by_key)),
        m_star=tuple(m.block.vertices for m in sorted(m_members, key=_by_key)),
        extreme_vertices=frozenset(extreme),
        prime=False,
        complete=False,
        trace=tuple(trace) if trace is not None else (),
    )


def characteristic_family(result: HullResult) -> tuple[CharacteristicBlock, ...]:
    """The pairwise-disjoint t-concave sets whose granularities sum to the
    hull number (empty for prime non-complete graphs)."""
    return result.family


def extreme_vertices_via_family(result: HullResult) -> frozenset[int]:
    """Toll extreme vertices read off the family: the type-3 members."""
    out: set[int] = set()
    for block in result.family:
        if block.ctype == TYPE3:
            out |= block.vertices
    return frozenset(out)
