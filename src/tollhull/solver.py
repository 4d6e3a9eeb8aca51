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

All members, the non-extremal atoms that merges absorb among them, sit in
one index by vertex.  A member not t-concave is popped from a queue by
sorted vertices, and the holders of its border, asked for once then, are
its merge's parts; with no partner it waits for a merged member to cover
its border.

Every vertex set in the solver is an int mask, bit v standing for vertex
v, on the graph's ``IntervalKernel``.  Frozensets appear only in the
``HullResult`` and at the pair scan's calls to ``toll_interval``.  Each
selection rule is a mask of candidates, and each arm takes the least
vertex of its first rule with one; the pair rules take the least pair.

A member found not t-concave keeps its witness: a non-adjacent pair with
no vertex in the interior whose toll interval meets the interior.  Merges
only grow members, and an interior vertex keeps all its neighbours inside
the merged member, so each absorbed interior lies in the merged interior.
A witness of an absorbed member with neither end in the merged interior
therefore refutes the merged member too, and is tried before any test.

Non-extremal atoms are not re-checked at run time: that each of them
disconnects the graph is proved in ``_solve_reducible``, and ``tollhull
verify`` (``check.check``, which ``oracle_sweep.py`` runs too) and the
tier-1 tests check it on every graph they see.

The t-concave interiors left in the family at the end form a family of
pairwise disjoint concave sets whose granularities add up to the hull
number; the type-3 members are exactly the toll extreme vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import attrgetter

from .atoms import AtomDecomposition, atoms
# perfbench's traced mode counts the concavity layer by wrapping the names
# fast_concavity_test and toll_interval in this module, so both stay bound
# here, and the pair scan calls toll_interval through it, until the solver
# records its own counts; fast_concavity_test itself is no longer called
from .convexity import (
    IntervalKernel,
    _mask_of,
    fast_concavity_test,
    interval_kernel,
    toll_interval,
)
from .graph import Graph, GraphError, _members


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
    """``trace`` has one entry per solver step.  Every list in an entry holds
    vertex ids (a merge's ``f_prime`` and ``m_prime`` hold lists of them),
    and no other value is one; ``hull --trace`` relabels by that rule."""

    hull_set: frozenset[int]
    hull_number: int
    family: tuple[CharacteristicBlock, ...]
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
    ``extremal`` is False only for a non-extremal atom, which is never
    classified, so never concave and without a witness.
    """

    mask: int
    border: int
    key: tuple[int, ...]
    seq: int
    extremal: bool = True
    concave: bool = False
    ctype: int | None = None
    chosen: int = 0
    witness: int = 0

    @property
    def interior(self) -> int:
        return self.mask & ~self.border


_by_key = attrgetter("key")


def _member(g: Graph, mask: int, seq: int, among: int = -1) -> _Member:
    """The member of a mask; ``among`` must hold its border (see
    ``IntervalKernel.border``)."""
    border = interval_kernel(g).border(mask, among)
    return _Member(mask=mask, border=border, key=tuple(_members(mask)), seq=seq)


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
# Each rule is a mask of candidate vertices, and an arm takes the least
# vertex of its first rung with a candidate.  Rules 4, 5 and 6 pick a pair
# instead: the least by its lesser vertex and then the greater.


def _type1(k: IntervalKernel, b: _Member) -> tuple[int, int]:
    """Rule 1's candidates in a member's interior, strong and weak.

    Weak: the interior vertices missing a border neighbor.  Strong: those
    that also miss, for every connected component H of the graph outside
    the member, a border vertex with a neighbor in H.  That keeps the
    whole interior absorbable into a hull started from the candidate and
    any one vertex beyond the member, whichever side it lies on.
    """
    anchor_sets = []
    rest = k.full & ~b.mask
    while rest:
        comp, touched = k.flood(rest, rest & -rest)
        anchor_sets.append(touched & b.border)
        rest &= ~comp
    strong = weak = 0
    for u in _members(b.interior):
        if b.border & ~k.adj[u]:
            weak |= 1 << u
            if all(a & ~k.adj[u] for a in anchor_sets):
                strong |= 1 << u
    return strong, weak


def _split(parts, border: int) -> int:
    """Rule 3's filter: the interiors of the merged members F1 for which a
    different merged member contains the whole merged border."""
    holders = [m for m in parts if not border & ~m.mask]
    split = 0
    for m in parts:
        if any(h is not m for h in holders):
            split |= m.interior
    return split


def _missing(k: IntervalKernel, circ: int, cands: int) -> int:
    """Rules 2 and 7's filter: the candidates missing a neighbor in the
    triggering border ``circ``."""
    return _mask_of(u for u in _members(cands) if circ & ~k.adj[u] & ~(1 << u))


def _interior_pair(k: IntervalKernel, interior: int) -> int:
    """Rule 4: the least non-adjacent pair of an interior, or 0."""
    for a in _members(interior):
        rest = interior & ~k.adj[a] & -(2 << a)
        if rest:
            return 1 << a | rest & -rest
    return 0


def _witnessed_pair(k: IntervalKernel, parts, circ: int) -> tuple[int, str]:
    """Rule 5's pair, or failing that rule 6's, with its label: the least
    non-adjacent pair a < b of merged-interior vertices, lying in one
    member's interior for rule 5 and in two members' for rule 6, such that
    each of a, b has a non-neighbor in the triggering border ``circ``
    inside the other's component of G - N[itself]."""
    # member interiors are pairwise disjoint (a family law), so each vertex
    # has one owner
    owner = {v: i for i, m in enumerate(parts) for v in _members(m.interior)}
    pool = _mask_of(owner)
    for same, label in ((True, "choice_5"), (False, "choice_6")):
        for a in _members(pool):
            # side(a, b) is b's component of G - N[a] plus neighbors of a;
            # masking those neighbors off leaves the component
            for b in _members(pool & ~k.adj[a] & -(2 << a)):
                if (
                    (owner[a] == owner[b]) == same
                    and k.side(a, b) & circ & ~k.adj[a]
                    and k.side(b, a) & circ & ~k.adj[b]
                ):
                    return 1 << a | 1 << b, label
    raise SolverInvariantError("choice_6 found no candidate")


def _least(*rungs: tuple[str, int]) -> tuple[int, str]:
    """The least vertex of the first non-empty rung, as a mask, with the
    rung's label."""
    for label, cands in rungs:
        if cands:
            return cands & -cands, label
    raise SolverInvariantError(f"{rungs[-1][0]} found no candidate")


# -- concavity ----------------------------------------------------------------


def _interior_concave(g: Graph, mem: _Member, parts=()) -> bool:
    """The non-empty interior of a member is t-concave.  A witness of one
    of the ``parts``, the members absorbed into it, refutes it when neither
    end lies in its interior; otherwise the fast test decides when its
    border is a clique and its interior connected, and a scan of the
    intervals of the non-adjacent pairs outside it decides the rest.  A
    refuted member keeps the pair that refuted it as its ``witness``."""
    interior = mem.interior
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
    """Whether the member's interior is t-concave, and its type if so.  A
    family member's interior is never empty, a family law."""
    if not mem.interior:
        raise SolverInvariantError("member with empty interior")
    mem.concave = _interior_concave(g, mem, parts)
    mem.ctype = classify_type(g, mem.interior) if mem.concave else None


# -- the solver ---------------------------------------------------------------


def solve(g: Graph) -> HullResult:
    """Compute a minimum toll hull set with its characteristic family."""
    if g.n == 0:
        raise GraphError("hull of the empty graph is undefined")
    if not g.is_connected():
        raise GraphError("hull computation requires a connected graph")
    V = frozenset(range(g.n))

    # Graph merges duplicate edges and rejects loops, so this is a clique
    if g.m == g.n * (g.n - 1) // 2:
        block = CharacteristicBlock(
            vertices=V,
            ctype=TYPE3,
            granularity=g.n,
            chosen=tuple(range(g.n)),
        )
        return HullResult(
            hull_set=V,
            hull_number=g.n,
            family=(block,),
            extreme_vertices=V,
            prime=True,
            complete=True,
            trace=({"phase": "complete"},),
        )

    dec = atoms(g)
    if len(dec.atoms) == 1:
        k = interval_kernel(g)
        pair = _interior_pair(k, k.full)
        if not pair:
            raise SolverInvariantError("no non-adjacent pair in a non-complete graph")
        return HullResult(
            hull_set=frozenset(_members(pair)),
            hull_number=2,
            family=(),
            extreme_vertices=frozenset(),
            prime=True,
            complete=False,
            trace=({"phase": "prime", "pair": _members(pair)},),
        )

    return _solve_reducible(g, dec)


def _solve_reducible(g: Graph, dec: AtomDecomposition) -> HullResult:
    trace: list[dict] = []
    index = _Index(g.n)
    # A non-extremal atom A disconnects G, so it is not re-checked here.
    # Atoms are the maximal prime vertex sets (Berry, Pogorelcnik & Simonet
    # 2010), and the argument uses three facts:
    # (a) a prime set P meets at most one component of G - T for a clique
    #     T, else T & P is a clique separator of G[P];
    # (b) for a component C of G - A, N(C) is a clique: for x, y in N(C)
    #     non-adjacent, A plus the inner vertices of a chordless x-y path
    #     through C would be prime (a clique cutting off a stretch of the
    #     path holds the two path vertices next to it, which are not
    #     adjacent), against A being maximal;
    # (c) if K = V - A is connected and non-empty, and N(K) = A, then A is
    #     not an atom.  In a least counterexample, G is not prime, so it
    #     has a clique minimal separator S.  A lies in S plus one component
    #     C1 of G - S by (a), and not in S alone, since a clique is prime
    #     and A = S would leave G - A disconnected.  S - A is not empty:
    #     else K, which holds another component C2, would be C2, and N(C2)
    #     lies in S.  Then G[C1 | S] is a smaller counterexample: a walk in
    #     K through another component leaves and re-enters it at adjacent
    #     vertices of S - A, and each vertex of A keeps a neighbour off A
    #     (a vertex of S - A, or its own neighbour in K).
    # Now suppose G - A, not empty in a reducible graph, has one component
    # K, and let S = N(K), a clique by (b).  If S = A, (c) contradicts A being an atom.  Otherwise every
    # other atom B meets K, as no atom holds another, so B lies in K | S by
    # (a), and A's shared part lies in S.  An atom P of G[K | S] holding S
    # meets K by (c), and is an atom of G, since a prime superset meets K
    # and lies in K | S by (a).  So P holds A's shared part, and A is
    # extremal.  `tollhull verify` and scripts/oracle_sweep.py check it
    # through check.check, as do the tier-1 tests.
    for seq, (atom, flag) in enumerate(zip(dec.atoms, dec.extremal_flags)):
        mem = _member(g, _mask_of(atom), seq)
        mem.extremal = flag
        if flag:
            _classify(g, mem)
        index.add(mem)
    if sum(dec.extremal_flags) < 2:
        raise SolverInvariantError("reducible graph with fewer than two extremal atoms")

    s = 0  # the hull set
    k = interval_kernel(g)

    for mem in sorted(index.members, key=_by_key):
        if not mem.concave:
            continue
        if mem.ctype == TYPE1:
            strong, weak = _type1(k, mem)
            pick, label = _least(("choice_1", strong), ("choice_1-weak", weak))
        elif mem.ctype == TYPE2:
            # a type-2 interior is not a clique, so it holds a pair
            pick, label = _interior_pair(k, mem.interior), "choice_4"
        else:
            pick, label = mem.interior, "type3"
        mem.chosen = pick
        s |= pick
        trace.append({
            "phase": "initial",
            "member": list(mem.key),
            "type": mem.ctype,
            "choice": label,
            "chosen": _members(pick),
        })

    # The merge targets are the non-concave members of the family, popped
    # by sorted vertices.  The members holding a popped target's border are
    # its merge's parts: the target and at least one partner.  A target
    # with no partner waits, as only a merged member covering its border
    # can give it one.  No graph tried so far has re-queued a waiting
    # target, but nothing proves that none can.
    queue = [(m.key, m.seq, m) for m in index.members if m.extremal and not m.concave]
    heapify(queue)
    waiting: list[_Member] = []
    iteration = 0
    budget = len(dec.atoms) + 1
    cliques: set[int] = set()  # member overlaps known to be cliques
    while queue:
        target = heappop(queue)[2]
        if target not in index.members:
            continue
        parts = index.containing(target.border)
        if len(parts) < 2:
            waiting.append(target)
            continue
        iteration += 1
        if iteration > budget:
            raise SolverInvariantError("merge loop exceeded its termination bound")
        new_mask = chosen = borders = 0
        for p in parts:
            index.remove(p)
            new_mask |= p.mask
            chosen |= p.chosen
            borders |= p.border
        # a vertex interior to a part keeps its neighbours in the merge, so
        # only the parts' borders can hold the merged border
        new_member = _member(g, new_mask, len(dec.atoms) + iteration, borders)
        _classify(g, new_member, parts)
        new_member.chosen = chosen
        _check_family_invariants(g, new_member, index.meeting(new_mask), cliques)
        index.add(new_member)
        held, waiting = waiting, []
        for f in held:
            if f not in index.members:
                continue
            if f.border & ~new_mask:
                waiting.append(f)
            else:
                heappush(queue, (f.key, f.seq, f))
        if not new_member.concave:
            heappush(queue, (new_member.key, new_member.seq, new_member))

        entry = {
            "phase": "merge",
            "iteration": iteration,
            "f_circ": list(target.key),
            "f_prime": [list(p.key) for p in parts if p.extremal],
            "m_prime": [list(p.key) for p in parts if not p.extremal],
            "f_bullet": list(new_member.key),
            "type": new_member.ctype,
            "k": None,
            "choice": None,
            "chosen": [],
        }
        if new_member.concave:
            s = _apply_merge_choice(g, target, parts, new_member, s, entry)
        trace.append(entry)

    return _finish(index.members, s, trace)


def _apply_merge_choice(g, target, parts, new_member, s, entry) -> int:
    """Pick the vertices of a merged concave member, record them in the
    member and the trace entry, and return the hull set with them."""
    i = new_member.ctype
    k_members = [p for p in parts if p.concave]
    k = len(k_members)
    if k > 2:
        raise SolverInvariantError("more than two concave members were merged")
    if any(f.ctype != TYPE1 for f in k_members):
        raise SolverInvariantError("merged concave member of type other than 1")
    if i == TYPE1 and k > 1:
        raise SolverInvariantError("type-1 merge with two concave members")
    kern = interval_kernel(g)
    circ = target.border
    entry["k"] = k

    if i == TYPE1 and k == 0:
        strong, weak = _type1(kern, new_member)
        split = _split(parts, new_member.border)
        pick, label = _least(
            ("choice_2", _missing(kern, circ, strong & split)),
            ("choice_3", strong & split),
            # the structural clause can exclude every vertex with border
            # witnesses on all sides; those witnesses outrank the clause
            ("choice_1-fallback", strong),
            ("choice_2-weak", _missing(kern, circ, weak & split)),
            ("choice_3-weak", weak & split),
        )
        chosen = pick
    elif i == TYPE1 and k == 1:
        # the merge may have swallowed the border vertex that justified the
        # earlier pick; keep it only if it is still a rule-1 candidate of
        # the rung that fires on the merged member
        f1 = k_members[0]
        strong, weak = _type1(kern, new_member)
        pick, label = _least(("carried", strong), ("carried-weak", weak))
        if f1.chosen & (strong or weak):
            pick = f1.chosen
        else:
            label = "reselected"
            s &= ~f1.chosen
        chosen = pick
    elif i == TYPE2 and k == 0:
        pick, label = _witnessed_pair(kern, parts, circ)
        chosen = pick
    elif i == TYPE2 and k == 1:
        # rule 8's candidates: the interiors of the other merged members
        f1 = k_members[0]
        others = 0
        for p in parts:
            if p is not f1:
                others |= p.interior
        pick, label = _least(("choice_7", _missing(kern, circ, others)), ("choice_8", others))
        chosen = f1.chosen | pick
    elif i == TYPE2 and k == 2:
        pick, label = 0, "carried"
        chosen = k_members[0].chosen | k_members[1].chosen
    else:
        # A merged interior I is never of type 3.  The target t is one of
        # the absorbed members, and its interior I_t is non-empty and lies
        # in I.  Were I + N(I) a clique K, a vertex u of I_t would have
        # N[u] = K, all inside t; so every vertex of I keeps its closed
        # neighbourhood in t, and I = I_t.  A target is never t-concave,
        # so the merged member would not have been classified at all.
        raise SolverInvariantError("merged member classified as type 3")
    new_member.chosen = chosen
    entry["choice"], entry["chosen"] = label, _members(pick)
    return s | pick


def _check_family_invariants(g, new_member, others, cliques):
    """The freshly merged member keeps the family laws: interiors disjoint
    from every other member, pairwise clique overlaps.  ``others`` needs to
    hold only the members meeting it, since a disjoint member keeps both
    laws.  ``cliques`` holds the overlaps already found to be cliques, in
    this and earlier merges, and gains the new ones: around a hub each
    unmerged member meets every merge in the same vertices."""
    interior = new_member.interior
    k = interval_kernel(g)
    for o in others:
        if interior & o.interior:
            raise SolverInvariantError("member interiors overlap")
        overlap = new_member.mask & o.mask
        if overlap not in cliques:
            if not k.clique(overlap):
                raise SolverInvariantError("member overlap is not a clique")
            cliques.add(overlap)


def _finish(members, s, trace) -> HullResult:
    family = []
    covered = extreme = 0
    for mem in sorted(members, key=_by_key):
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
        extreme_vertices=frozenset(_members(extreme)),
        prime=False,
        complete=False,
        trace=tuple(trace),
    )
