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
from itertools import combinations

from .atoms import AtomDecomposition, atoms
from .convexity import (
    Block,
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
    vertices: frozenset[int]
    block: Block
    concave: bool
    ctype: int | None
    chosen: frozenset[int] = frozenset()

    def key(self):
        return tuple(sorted(self.vertices))


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


def _interior_concave(g: Graph, b: Block) -> bool:
    """The interior of b is t-concave: the fast test when its border is a
    clique and its interior connected, otherwise a scan of the intervals of
    the non-adjacent pairs outside it."""
    if not b.interior:
        return True
    if g.is_clique(b.border) and _induces_connected(g, b.interior):
        return fast_concavity_test(g, b)
    outside = sorted(frozenset(range(g.n)) - b.interior)
    for a, c in combinations(outside, 2):
        if c not in g.adj[a] and toll_interval(g, a, c) & b.interior:
            return False
    return True


def _induces_connected(g: Graph, s: frozenset[int]) -> bool:
    if not s:
        return False
    start = min(s)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for z in g.adj[w]:
            if z in s and z not in seen:
                seen.add(z)
                stack.append(z)
    return len(seen) == len(s)


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
    f_members: list[_Member] = []
    m_members: list[Block] = []
    for atom, flag in zip(dec.atoms, dec.extremal_flags):
        block = make_block(g, atom)
        if flag:
            concave = _interior_concave(g, block)
            ctype = classify_type(g, block) if concave else None
            f_members.append(
                _Member(vertices=atom, block=block, concave=concave, ctype=ctype)
            )
        else:
            m_members.append(block)
            # a non-extremal atom always disconnects the graph
            if len(g.components(atom)) < 2:
                raise SolverInvariantError(
                    "non-extremal atom fails to disconnect the graph"
                )
    if len(f_members) < 2:
        raise SolverInvariantError("reducible graph with fewer than two extremal atoms")

    s: set[int] = set()

    for mem in sorted(f_members, key=_Member.key):
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
                "member": sorted(mem.vertices),
                "type": mem.ctype,
                "choice": label,
                "chosen": sorted(picks[0]),
            })

    iteration = 0
    budget = len(dec.atoms) + 1
    while True:
        target = _pick_merge_target(f_members, m_members)
        if target is None:
            break
        iteration += 1
        if iteration > budget:
            raise SolverInvariantError("merge loop exceeded its termination bound")
        border = target.block.border
        m_prime = [m for m in m_members if border <= m.vertices]
        f_prime = [f for f in f_members if border <= f.vertices]
        if len(m_prime) + len(f_prime) < 2:
            raise SolverInvariantError("merge target lost its partner")
        new_vertices = frozenset().union(
            *[m.vertices for m in m_prime], *[f.vertices for f in f_prime]
        )
        m_members = [m for m in m_members if m not in m_prime]
        f_members = [f for f in f_members if f not in f_prime]
        new_block = make_block(g, new_vertices)
        concave = _interior_concave(g, new_block)
        new_member = _Member(
            vertices=new_vertices,
            block=new_block,
            concave=concave,
            ctype=classify_type(g, new_block) if concave else None,
            chosen=frozenset().union(*[f.chosen for f in f_prime]),
        )
        f_members.append(new_member)
        _check_family_invariants(g, new_member, f_members, m_members)

        entry = {
            "phase": "merge",
            "iteration": iteration,
            "f_circ": sorted(target.vertices),
            "f_prime": [sorted(f.vertices) for f in f_prime],
            "m_prime": [sorted(m.vertices) for m in m_prime],
            "f_bullet": sorted(new_vertices),
            "type": new_member.ctype,
            "k": None,
            "choice": None,
            "chosen": [],
        }
        if concave:
            _apply_merge_choice(g, target, f_prime, m_prime, new_member, s, entry)
        if trace is not None:
            trace.append(entry)

    return _finish(g, f_members, m_members, s, trace)


def _pick_merge_target(f_members, m_members) -> _Member | None:
    candidates = []
    for f in f_members:
        if f.concave:
            continue
        border = f.block.border
        if any(border <= m.vertices for m in m_members) or any(
            o is not f and border <= o.vertices for o in f_members
        ):
            candidates.append(f)
    if not candidates:
        return None
    return min(candidates, key=_Member.key)


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
    member_blocks = tuple(
        b for b in sorted(
            [f.block for f in f_prime] + list(m_prime),
            key=lambda b: tuple(sorted(b.vertices)),
        )
    )
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


def _check_family_invariants(g, new_member, f_members, m_members):
    """The freshly merged member keeps the family laws: non-empty interior,
    interiors disjoint from every other member, pairwise clique overlaps."""
    if not new_member.block.interior:
        raise SolverInvariantError("merged member with empty interior")
    others = [f.block for f in f_members if f is not new_member] + list(m_members)
    nb = new_member.block
    for ob in others:
        if nb.interior & ob.interior:
            raise SolverInvariantError("member interiors overlap")
        if not g.is_clique(nb.vertices & ob.vertices):
            raise SolverInvariantError("member overlap is not a clique")


def _finish(g, f_members, m_members, s, trace) -> HullResult:
    s_frozen = frozenset(s)
    family = []
    covered: set[int] = set()
    extreme: set[int] = set()
    for mem in sorted(f_members, key=_Member.key):
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
        f_star=tuple(f.vertices for f in sorted(f_members, key=_Member.key)),
        m_star=tuple(sorted((m.vertices for m in m_members), key=sorted)),
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
