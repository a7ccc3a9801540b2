import random

import networkx as nx
import pytest
from hypothesis import given

from cdgame.graph import Graph, parse_graph6

from .conftest import arbitrary_graphs, edges
from .graph6 import emit_graph6


def test_hand_decoded_k2():
    # 'A' = size 2, '_' = 95-63 = 0b100000: single upper-triangle bit set
    g = parse_graph6("A_")
    assert g.n == 2 and edges(g) == [(0, 1)]
    assert emit_graph6(g) == "A_"


def test_five_vertex_roundtrip():
    line = "D?{"
    g = parse_graph6(line)
    assert g.n == 5
    assert emit_graph6(g) == line


def test_path_roundtrip():
    from cdgame.families import path
    p4 = path(4)
    assert parse_graph6(emit_graph6(p4)) == p4


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<A_").n == 2


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6(">>graph6<<")  # a header with no graph
    with pytest.raises(ValueError):
        parse_graph6("A")  # missing body
    with pytest.raises(ValueError):
        parse_graph6("A__")  # body too long
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(200))  # character out of range
    with pytest.raises(ValueError):
        parse_graph6("A~")  # nonzero padding bits
    with pytest.raises(ValueError):
        parse_graph6("~~~")  # multi-byte size field unsupported


def test_against_reference_decoder():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.randint(1, 12)
        edges = sorted({tuple(sorted(rng.sample(range(n), 2)))
                        for _ in range(rng.randint(0, 2 * n))} if n > 1 else set())
        g = Graph.from_edges(n, edges)
        line = emit_graph6(g)
        ref = nx.from_graph6_bytes(line.encode("ascii"))
        assert set(ref.nodes) == set(range(n))
        assert sorted(tuple(sorted(e)) for e in ref.edges) == edges
        # and our parser reads the reference encoder's output
        ref_line = nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert parse_graph6(ref_line) == g


def test_single_vertex():
    g = Graph(1, [0])
    assert emit_graph6(g) == "@"
    assert parse_graph6("@") == g


def test_corpus_roundtrip(corpus):
    for g in corpus:
        assert parse_graph6(emit_graph6(g)) == g


@given(arbitrary_graphs(max_n=7))
def test_roundtrip_random(g):
    assert parse_graph6(emit_graph6(g)) == g
