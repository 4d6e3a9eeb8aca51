"""The solver's results against the brute-force oracles: ``check``, the
report of ``tollhull verify`` and ``scripts/oracle_sweep.py``, and
``compare_with_bruteforce``, the enumeration stream against the exhaustive
enumerator.  No other module but ``oracles`` itself reads the oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

from .atoms import atoms
from .convexity import _mask_of, extreme_vertices, interval_kernel, toll_hull, toll_interval
from .enumeration import EnumerationError, enumerate_min_hull_sets
from .graph import Graph
from .oracles import (
    MAX_ENUM_N,
    MAX_INTERVAL_N,
    bf_all_intervals,
    bf_all_min_hull_sets,
    bf_atoms,
    bf_extreme_vertices,
    bf_hull,
    bf_hull_number,
)
from .solver import HullResult


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of comparing the stream against the brute-force enumerator."""

    hull_number: int
    emitted: tuple[frozenset[int], ...]
    reference: tuple[frozenset[int], ...]
    complete: bool
    missing: tuple[frozenset[int], ...]


def compare_with_bruteforce(g: Graph) -> EnumerationReport:
    """Emit everything and diff against the exhaustive oracle (small n)."""
    emitted = tuple(enumerate_min_hull_sets(g))
    reference = tuple(bf_all_min_hull_sets(g))
    ref_set = set(reference)
    emitted_set = set(emitted)
    extra = emitted_set - ref_set
    if extra:
        # verified emissions are minimum hull sets, so they must be known
        # to the oracle; anything else is a bug in one of the two sides
        raise EnumerationError(f"emitted sets unknown to the oracle: {sorted(map(sorted, extra))}")
    missing = tuple(sorted(ref_set - emitted_set, key=sorted))
    return EnumerationReport(
        hull_number=len(reference[0]) if reference else 0,
        emitted=emitted,
        reference=reference,
        complete=not missing,
        missing=missing,
    )


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
    # a prime graph's one atom is flagged non-extremal but separates nothing;
    # the rest of each other one is not empty and not one kernel flood
    k = interval_kernel(g)
    rests = [k.full & ~_mask_of(a) for a, f in zip(dec.atoms, dec.extremal_flags) if not f]
    passed["separation"] = len(dec.atoms) < 2 or all(r and not k.connected(r) for r in rests)
    failed = [name for name, ok in passed.items() if not ok]
    report["agreement"] = not failed
    if failed:
        report["mismatches"] = failed
    return report

