import importlib.util
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tollhull.graph import (  # noqa: E402
    Graph,
    g12,
    parse_graph,
    parse_graph6_file,
    theta7,
)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("default")

DATA_DIR = Path(__file__).resolve().parent / "data"
CORPUS_PATH = DATA_DIR / "connected_le7.g6"
CORPUS_8_PATH = DATA_DIR / "connected_8.g6"


@pytest.fixture(scope="session")
def corpus():
    """Every connected graph on up to 7 vertices, one per isomorphism class."""
    return parse_graph6_file(CORPUS_PATH.read_text())


@pytest.fixture(scope="session")
def corpus_8():
    """Every connected graph on 8 vertices, one per isomorphism class."""
    return parse_graph6_file(CORPUS_8_PATH.read_text())


def family_graphs(sizes):
    """The graphs of the five reducible benchmark families of
    ``perfbench/families.py`` at each size and seeds 0-4, drawn as
    ``scripts/timing_scaling.py`` draws them."""
    path = ROOT / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    for make in families.FAMILIES.values():
        for n in sizes:
            for seed in range(5):
                rng = random.Random(seed)
                text = families.edge_text(n, make(n, rng), rng)
                yield parse_graph(text, "edge-list")


@pytest.fixture(scope="session")
def small_corpus(corpus):
    return [g for g in corpus if g.n <= 6]


@pytest.fixture
def fig_graph():
    return g12()


@pytest.fixture
def theta_graph():
    return theta7()


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def theta8() -> Graph:
    """The edge st plus two chordless (s,t)-paths of inner length 3 each.

    Neither side's interior is t-concave on its own, so the single merge
    sees a type-2 interior with k = 0 and reaches the fifth selection rule.
    """
    labels = "s t a1 a2 a3 b1 b2 b3".split()
    ids = {lab: i for i, lab in enumerate(labels)}
    pairs = "s t, s a1, a1 a2, a2 a3, a3 t, s b1, b1 b2, b2 b3, b3 t"
    edges = [tuple(ids[lab] for lab in pair.split()) for pair in pairs.split(", ")]
    return Graph(len(labels), edges, labels)


def vid(g: Graph, label: str) -> int:
    return g.id_of(label)


def vids(g: Graph, labels: str) -> frozenset:
    return frozenset(g.id_of(tok) for tok in labels.split())


def is_simplicial(g: Graph, v: int) -> bool:
    """N(v) is a clique."""
    return g.is_clique(g.neighbors(v))


def components(g: Graph, removed=()) -> list[frozenset]:
    """The components of G minus ``removed``, ascending by least member, by
    a breadth-first search over the frozensets of ``g.adj``: a reference
    that shares nothing with the kernel's mask flood."""
    seen = set(removed)
    out = []
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        comp, frontier = {root}, [root]
        for w in frontier:
            for z in g.adj[w] - seen:
                seen.add(z)
                comp.add(z)
                frontier.append(z)
        out.append(frozenset(comp))
    return out


# -- hypothesis strategies ---------------------------------------------------


@st.composite
def connected_graphs(draw, min_n=2, max_n=8, p_choices=(0.25, 0.4, 0.6, 0.8)):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from(p_choices))
    pairs = list(combinations(range(n), 2))
    flags = draw(
        st.lists(
            st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)
        )
    )
    edges = [pair for pair, f in zip(pairs, flags) if f < p]
    g = Graph(n, edges)
    if not g.is_connected():
        # deterministically connect the components along their minima
        comps = components(g)
        extra = [
            (min(comps[i]), min(comps[i + 1])) for i in range(len(comps) - 1)
        ]
        g = Graph(n, edges + extra)
    return g


@st.composite
def random_trees(draw, min_n=2, max_n=12):
    from tollhull.graph import generate

    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return generate("random-tree", n, seed=seed)
