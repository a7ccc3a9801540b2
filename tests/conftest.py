import pytest
from hypothesis import strategies as st

from cdgame.analysis import load_corpus
from cdgame.engine import GameConfig
from cdgame.graph import MAX_VERTICES, Graph, bits
from cdgame.solver import ORACLE_CONFIGS


# graph helpers the package itself has no use for

def max_degree(g: Graph) -> int:
    """Largest vertex degree."""
    return max(row.bit_count() for row in g.adj)


def edge_count(g: Graph) -> int:
    """Number of edges."""
    return sum(row.bit_count() for row in g.adj) // 2


def edges(g: Graph) -> list[tuple[int, int]]:
    """Every edge once, as (u, v) with u < v, in order."""
    return [(u, v) for u in range(g.n) for v in bits(g.adj[u]) if u < v]


def closed_union(g: Graph, s: int) -> int:
    """N[S] as a plain OR of ``closed[v]`` over v in S: the reference the
    table-driven ``closed_neighborhood_set`` is checked against."""
    out = 0
    for v in bits(s):
        out |= g.closed[v]
    return out


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, (full & ~g.adj[v] & ~(1 << v) for v in range(g.n)), g.labels)


def oracle_configs(g: Graph) -> list[GameConfig]:
    """Every oracle-sweep config for one graph, in the sweep's order: each
    variant/budget pair of ``ORACLE_CONFIGS``, predominated ranging over
    the empty set and then every singleton."""
    return [GameConfig(variant, k, pre) for variant, k in ORACLE_CONFIGS
            for pre in [0] + [1 << v for v in range(g.n)]]


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


#: vertex counts at the edges of the 8-vertex chunks N[S] is looked up by
CHUNK_EDGES = (7, 8, 9, 16, 63, 64)


@st.composite
def wide_graphs(draw, n=None):
    """Random simple graph on ``n`` vertices, or on 1..64 when ``n`` is
    None, with at most three edges per vertex drawn."""
    if n is None:
        n = draw(st.integers(1, MAX_VERTICES))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    return Graph.from_edges(n, sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b}))


def vertex_sets(g: Graph):
    """Any subset of g's vertices, the empty and the full set included."""
    return st.one_of(st.just(0), st.just(g.full_mask), st.integers(0, g.full_mask))
