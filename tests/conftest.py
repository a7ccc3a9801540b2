import pytest
from hypothesis import strategies as st

from cdgame.analysis import load_corpus
from cdgame.graph import Graph, bits


# graph helpers the package itself has no use for

def max_degree(g: Graph) -> int:
    """Largest vertex degree."""
    return max(row.bit_count() for row in g.adj)


def edges(g: Graph) -> list[tuple[int, int]]:
    """Every edge once, as (u, v) with u < v, in order."""
    return [(u, v) for u in range(g.n) for v in bits(g.adj[u]) if u < v]


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, (full & ~g.adj[v] & ~(1 << v) for v in range(g.n)), g.labels)


@pytest.fixture(scope="session")
def corpus():
    """The bundled corpus: all 853 connected graphs on 7 vertices."""
    return load_corpus()


@st.composite
def connected_graphs(draw, min_n=1, max_n=7):
    """Random connected graph: a random recursive tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    extra = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
        max_size=12))
    for a, b in extra:
        if a != b and a < n and b < n:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


@st.composite
def arbitrary_graphs(draw, min_n=1, max_n=7):
    """Random simple graph, not necessarily connected."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph.from_edges(n, sorted(set(picks)))
