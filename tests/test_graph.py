import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdgame.families import complete, cycle, fan_chain, path, star
from cdgame.graph import (Graph, bits, cartesian_product,
                          closed_neighborhood_set, cut_vertices, diameter,
                          has_universal_vertex, is_complete, is_connected,
                          is_join_some_noncomplete, is_join_two_noncomplete, join,
                          lexicographic_product, parse_graph6, read_graph6_file)

from .conftest import (CHUNK_EDGES, arbitrary_graphs, closed_union, complement,
                       connected_graphs, edge_count, edges, max_degree, vertex_sets,
                       wide_graphs)
from .domination import (connected_domination_number, domination_number,
                         is_connected_induced, mask_of, minimum_connected_dominating_set,
                         minimum_dominating_set)
from .graph6 import emit_graph6


def test_construction_rejects_bad_graphs():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(65, [0] * 65)
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self loops
    with pytest.raises(ValueError):
        Graph(2, [0b110, 0b001])  # bit above n-1
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_from_edges_rejects_a_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(1, 1)])


def test_vertex_by_label_rejects_an_unknown_vertex():
    g = path(4)
    with pytest.raises(ValueError) as exc:
        g.vertex_by_label("zz")
    assert exc.value.args == ("no vertex labeled 'zz'",)
    with pytest.raises(ValueError) as exc:
        g.vertex_by_label("9")
    assert exc.value.args == ("vertex index 9 out of range 0..3",)


def test_closed_neighborhood():
    assert path(3).closed[1] == 0b111
    k5 = complete(5)
    for v in range(5):
        assert k5.closed[v] == k5.full_mask


def test_closed_neighborhood_doubling_gadget():
    from cdgame.families import doubling_gadget
    g = doubling_gadget(2)
    u1 = g.vertex_by_label("u1")
    expected = mask_of(g.vertex_by_label(x) for x in ("u0", "u1", "u2", "x1"))
    assert g.closed[u1] == expected


def test_closed_neighborhood_set():
    p5 = path(5)
    assert closed_neighborhood_set(p5, 1 << 2) == 0b01110
    assert closed_neighborhood_set(p5, mask_of((1, 3))) == p5.full_mask
    assert closed_neighborhood_set(p5, 0) == 0


@pytest.mark.parametrize("n", (None,) + CHUNK_EDGES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_closed_neighborhood_set_matches_per_vertex_or(n, data):
    g = data.draw(wide_graphs(n))
    for s in [0, g.full_mask] + data.draw(st.lists(vertex_sets(g), min_size=1, max_size=6)):
        assert closed_neighborhood_set(g, s) == closed_union(g, s)


def test_union_tables_are_built_on_first_use(tmp_path):
    # building or parsing a graph leaves its N[S] tables unbuilt, so
    # set-up that never searches a graph pays nothing for them
    corpus = tmp_path / "two.g6"
    corpus.write_text(emit_graph6(path(9)) + "\n" + emit_graph6(cycle(62)) + "\n")
    built = [path(9), Graph(2, [0b10, 0b01]), cartesian_product(path(8), path(8)),
             parse_graph6(emit_graph6(star(8)))] + read_graph6_file(corpus)
    for g in built:
        assert g._union_tables is None
    g = built[0]
    assert closed_neighborhood_set(g, 1 << 8) == 0b110000000
    # a table per chunk, 2^k entries for a last chunk of k vertices
    assert [len(t) for t in g._union_tables] == [256, 2]


def test_is_connected_induced():
    p5 = path(5)
    assert is_connected_induced(p5, mask_of((1, 2, 3)))
    assert not is_connected_induced(p5, mask_of((0, 4)))
    assert is_connected_induced(cycle(6), (1 << 6) - 1)
    with pytest.raises(ValueError):
        is_connected_induced(p5, 0)


def test_diameter():
    assert diameter(path(5)) == 4
    assert diameter(complete(7)) == 1
    assert diameter(cartesian_product(complete(2), complete(4))) == 2
    assert diameter(Graph(1, [0])) == 0
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        diameter(disconnected)


def test_max_degree():
    assert max_degree(star(6)) == 6
    assert max_degree(cycle(8)) == 2
    assert max_degree(fan_chain(1, 8)) == 7


@given(arbitrary_graphs(max_n=7))
@settings(max_examples=80, deadline=None)
def test_has_universal_vertex_matches_degree(g):
    assert has_universal_vertex(g) == (max_degree(g) == g.n - 1)


def test_complement():
    assert edge_count(complement(complete(4))) == 0
    c4c = complement(cycle(4))
    assert sorted(edges(c4c)) == [(0, 2), (1, 3)]  # 2K_2
    assert repr(c4c) == "Graph(n=4, m=2)"
    p6 = path(6)
    assert complement(complement(p6)) == p6


def test_join():
    wheel = join(complete(1), cycle(4))
    assert has_universal_vertex(wheel) and wheel.n == 5
    two_k1 = Graph(2, [0, 0])
    assert join(two_k1, two_k1) == Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert is_complete(join(complete(2), complete(3)))
    with pytest.raises(ValueError):
        join(complete(40), complete(40))


def test_cartesian_product():
    assert cartesian_product(complete(2), complete(2)) == Graph.from_edges(
        4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    q3 = cartesian_product(cartesian_product(path(2), path(2)), path(2))
    assert q3.n == 8 and all(q3.adj[v].bit_count() == 3 for v in range(8))
    assert diameter(q3) == 3


def test_lexicographic_product():
    h = path(4)
    assert lexicographic_product(complete(1), h) == h
    g = cycle(5)
    assert lexicographic_product(g, complete(1)) == g
    two_k1 = Graph(2, [0, 0])
    c4ish = lexicographic_product(complete(2), two_k1)
    assert edge_count(c4ish) == 4 and all(c4ish.adj[v].bit_count() == 2 for v in range(4))


@given(arbitrary_graphs(), arbitrary_graphs())
@settings(max_examples=200)
def test_products_match_the_adjacency_rule(g, h):
    box, lex = cartesian_product(g, h), lexicographic_product(g, h)
    for i in range(g.n * h.n):
        a, b = divmod(i, h.n)
        for j in range(g.n * h.n):
            a2, b2 = divmod(j, h.n)
            g_edge, h_edge = bool(g.adj[a] >> a2 & 1), bool(h.adj[b] >> b2 & 1)
            assert bool(box.adj[i] >> j & 1) == (a == a2 and h_edge or b == b2 and g_edge)
            assert bool(lex.adj[i] >> j & 1) == (g_edge or a == a2 and h_edge)


@given(arbitrary_graphs())
@example(complete(1))
@example(complete(2))
@settings(max_examples=300)
def test_cut_vertices_match_networkx(g):
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(edges(g))
    assert cut_vertices(g) == mask_of(nx.articulation_points(reference))


@given(arbitrary_graphs())
@example(complete(1))
@example(Graph.from_edges(2, []))
@settings(max_examples=300)
def test_is_connected_matches_networkx(g):
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(edges(g))
    assert is_connected(g) == nx.is_connected(reference) == is_connected_induced(g, g.full_mask)


def test_domination_numbers():
    assert connected_domination_number(path(5)) == 3
    assert domination_number(cycle(6)) == 2
    from cdgame.families import doubling_gadget
    assert connected_domination_number(doubling_gadget(3)) == 3
    with pytest.raises(ValueError):
        connected_domination_number(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_predicates():
    assert is_join_two_noncomplete(cycle(4))
    k5 = complete(5)
    assert is_complete(k5) and not is_join_two_noncomplete(k5)
    w5 = join(complete(1), cycle(5))
    assert has_universal_vertex(w5)
    assert is_join_some_noncomplete(w5)
    assert not is_join_two_noncomplete(path(7))
    assert not is_join_some_noncomplete(complete(1))
    # K_64 has 64 complement components, so a search over splits would try 2^63
    k64 = complete(64)
    assert not is_join_two_noncomplete(k64) and not is_join_some_noncomplete(k64)
    k64_minus_edge = Graph(64, [row & ~0b11 if v < 2 else row
                                for v, row in enumerate(k64.adj)])
    assert not is_join_two_noncomplete(k64_minus_edge)
    assert is_join_some_noncomplete(k64_minus_edge)


def _join_splits(g):
    """(A induces a complete graph, B does) for every split g = A v B."""
    def complete_on(s):
        return all(g.closed[v] & s == s for v in bits(s))

    for a in range(1, g.full_mask):
        b = g.full_mask & ~a
        if all(g.adj[v] & b == b for v in bits(a)):
            yield complete_on(a), complete_on(b)


@given(arbitrary_graphs())
@settings(max_examples=300)
def test_join_predicates_match_bipartition_definition(g):
    splits = list(_join_splits(g))
    assert is_join_two_noncomplete(g) == any(not a and not b for a, b in splits)
    assert is_join_some_noncomplete(g) == any(not a or not b for a, b in splits)


def test_full_capacity_graph():
    p64 = path(64)
    assert p64.n == 64 and is_connected(p64)
    assert diameter(p64) == 63
    assert p64.closed[63] == (0b11 << 62)
    with pytest.raises(ValueError):
        path(65)


def test_corpus_domination_invariants(corpus):
    for g in corpus:
        dom = minimum_dominating_set(g)
        cdom = minimum_connected_dominating_set(g)
        assert closed_neighborhood_set(g, dom) == g.full_mask
        assert closed_neighborhood_set(g, cdom) == g.full_mask
        assert is_connected_induced(g, cdom)
        assert dom.bit_count() <= cdom.bit_count()


@given(arbitrary_graphs())
def test_adjacency_invariants(g):
    for v in range(g.n):
        assert not g.adj[v] >> g.n
        assert not g.adj[v] & (1 << v)
        for u in bits(g.adj[v]):
            assert g.adj[u] & (1 << v)


@given(arbitrary_graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


@given(arbitrary_graphs(max_n=5), arbitrary_graphs(max_n=5))
def test_join_edge_count(g, h):
    assert edge_count(join(g, h)) == edge_count(g) + edge_count(h) + g.n * h.n


@given(arbitrary_graphs(max_n=4), arbitrary_graphs(max_n=4))
@settings(max_examples=40)
def test_cartesian_product_commutes(g, h):
    gh = cartesian_product(g, h)
    hg = cartesian_product(h, g)
    assert edge_count(gh) == edge_count(hg)
    assert sorted(gh.adj[v].bit_count() for v in range(gh.n)) == \
        sorted(hg.adj[v].bit_count() for v in range(hg.n))
    # explicit index permutation (a,b) -> (b,a)
    perm = {a * h.n + b: b * g.n + a for a in range(g.n) for b in range(h.n)}
    remapped = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges(gh))
    assert remapped == sorted(edges(hg))


@given(connected_graphs())
@settings(max_examples=50)
def test_lexicographic_identity_left_unit(g):
    assert lexicographic_product(complete(1), g) == g
