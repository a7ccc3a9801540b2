import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgame import families
from cdgame.families import (FamilySpecError, circular_ladder, complete, cycle,
                             doubling_gadget, fan_chain, graph_from_spec,
                             hamming, hat_chain, mobius_ladder, path,
                             predomination_penalty_graph, random_tree, star)
from cdgame.graph import (cartesian_product, diameter, has_universal_vertex,
                          is_connected, join, lexicographic_product, max_degree)


def test_small_families():
    assert path(2) == complete(2)
    assert cycle(3) == complete(3)
    s6 = star(6)
    assert max_degree(s6) == 6 and diameter(s6) == 2
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        path(0)


@pytest.mark.parametrize("n,vertices,edges", [(2, 6, 8), (3, 10, 15), (6, 22, 36)])
def test_doubling_gadget_counts(n, vertices, edges):
    g = doubling_gadget(n)
    assert g.n == vertices == 4 * n - 2
    assert g.edge_count() == edges == 7 * (n - 1) + 1
    assert is_connected(g)
    assert g.degree(g.vertex_by_label("u0")) == 1


def test_fan_chain():
    f1 = fan_chain(1, 8)
    assert f1.n == 8 and has_universal_vertex(f1)
    f2 = fan_chain(2, 8)
    assert f2.n == 15
    assert fan_chain(3, 8).n == 22
    # shared rim vertex r7 sees both hubs
    r7 = f2.vertex_by_label("r7")
    hubs = {f2.vertex_by_label("h1"), f2.vertex_by_label("h2")}
    assert hubs <= {v for v in range(f2.n) if f2.adj[r7] >> v & 1}
    with pytest.raises(ValueError):
        fan_chain(1, 6)
    with pytest.raises(ValueError):
        fan_chain(0, 8)


def test_hat_chain():
    h0 = hat_chain(0)
    assert h0.n == 9 and max_degree(h0) == 7
    assert h0.degree(h0.vertex_by_label("w1")) == 2
    assert hat_chain(1).n == 17
    assert hat_chain(2).n == 25
    with pytest.raises(ValueError):
        hat_chain(-1)


def test_ladders():
    cl4 = circular_ladder(4)
    assert cl4.n == 8 and all(cl4.degree(v) == 3 for v in range(8))
    assert diameter(cl4) == 3  # the 3-cube
    ml3 = mobius_ladder(3)
    # K_{3,3}: 3-regular, bipartite, 6 vertices
    assert ml3.n == 6 and all(ml3.degree(v) == 3 for v in range(6))
    evens = [0, 2, 4]
    assert all(not ml3.adj[u] >> v & 1 for u in evens for v in evens)
    cl5 = circular_ladder(5)
    assert cl5.n == 10 and all(cl5.degree(v) == 3 for v in range(10))


def test_circular_ladder_matches_product():
    for n in (3, 4, 5, 6):
        assert circular_ladder(n) == cartesian_product(cycle(n), complete(2))


def test_hamming():
    h22 = hamming(2, 2)  # the 4-cycle, in product labeling
    assert h22.n == 4 and all(h22.degree(v) == 2 for v in range(4))
    assert is_connected(h22)
    h = hamming(2, 4)
    assert h.n == 8 and diameter(h) == 2
    assert all(hamming(3, 3).degree(v) == 4 for v in range(9))
    with pytest.raises(ValueError):
        hamming(2, 1)


def test_predomination_penalty_graph():
    g = predomination_penalty_graph()
    assert g.n == 11 and g.edge_count() == 11
    assert g.degree(g.vertex_by_label("c")) == 2
    assert g.degree(g.vertex_by_label("e")) == 3
    assert g.degree(g.vertex_by_label("f")) == 3
    assert g.degree(g.vertex_by_label("a'")) == 1
    assert g.degree(g.vertex_by_label("g'")) == 1


def test_random_tree():
    assert random_tree(1, 7).n == 1
    for seed in range(5):
        t = random_tree(9, seed)
        assert t.edge_count() == 8 and is_connected(t)
    assert random_tree(10, 3) == random_tree(10, 3)
    assert random_tree(10, 3) != random_tree(10, 4)


def test_spec_parsing():
    assert graph_from_spec("path:7") == path(7)
    assert graph_from_spec("fan:2,8") == fan_chain(2, 8)
    assert graph_from_spec("hamming:2,4") == hamming(2, 4)
    assert graph_from_spec("fig3") == predomination_penalty_graph()
    assert graph_from_spec("tree:10,3") == random_tree(10, 3)
    assert graph_from_spec("cart:cycle:5,complete:2") == circular_ladder(5)
    assert graph_from_spec("lex:path:3,path:4").n == 12
    assert graph_from_spec("join:complete:2,complete:3") == complete(5)
    assert graph_from_spec("lex:fan:2,8,path:3") == lexicographic_product(fan_chain(2, 8), path(3))
    # variadic hamming dims bind greedily inside a combinator
    assert graph_from_spec("cart:hamming:2,2,path:3") == cartesian_product(hamming(2, 2), path(3))


def test_spec_parse_errors_report_position():
    with pytest.raises(FamilySpecError) as err:
        graph_from_spec("nope:3")
    assert err.value.position == 0
    with pytest.raises(FamilySpecError) as err:
        graph_from_spec("path:x")
    assert err.value.position == 5
    with pytest.raises(FamilySpecError) as err:
        graph_from_spec("path:3,4")
    assert err.value.position == 6
    with pytest.raises(FamilySpecError):
        graph_from_spec("lex:path:3")
    with pytest.raises(FamilySpecError):
        graph_from_spec("")
    # the whole spec is parsed before path(-1) could be built
    with pytest.raises(FamilySpecError) as err:
        graph_from_spec("join:path:-1,fan:2")
    assert err.value.position == 18


@given(st.text(alphabet="pathcyle:,0123456789figmx", max_size=24))
@settings(max_examples=200)
def test_spec_parser_never_crashes(text):
    try:
        g = graph_from_spec(text)
    except FamilySpecError as err:
        assert 0 <= err.position <= len(text.strip())
    except ValueError:
        pass  # well-formed spec, parameter out of a generator's range
    else:
        assert g.n >= 1


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def _simple(tag, make, *params):
    """A spec drawing each parameter from ``params``, with its generator call."""
    return st.tuples(*params).map(lambda args: (
        f"{tag}:{','.join(map(str, args))}" if args else tag, lambda: make(*args)))


_SIMPLE_SPECS = st.one_of(
    _simple("path", path, st.integers(0, 5)),
    _simple("cycle", cycle, st.integers(2, 5)),
    _simple("complete", complete, st.integers(0, 4)),
    _simple("star", star, st.integers(0, 4)),
    _simple("gn", doubling_gadget, st.integers(1, 3)),
    _simple("fan", fan_chain, st.integers(0, 2), st.integers(6, 8)),
    _simple("hat", hat_chain, st.integers(-1, 1)),
    _simple("cl", circular_ladder, st.integers(2, 5)),
    _simple("ml", mobius_ladder, st.integers(2, 4)),
    _simple("tree", random_tree, st.integers(0, 8), st.integers(-2, 3)),
    _simple("fig3", predomination_penalty_graph),
    st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
        lambda dims: _simple("hamming", hamming, *map(st.just, dims))),
)


def _combined(operands):
    return st.tuples(st.sampled_from([("lex", lexicographic_product),
                                      ("cart", cartesian_product), ("join", join)]),
                     operands, operands).map(lambda t: (
                         f"{t[0][0]}:{t[1][0]},{t[2][0]}",
                         lambda: t[0][1](t[1][1](), t[2][1]())))


@given(st.recursive(_SIMPLE_SPECS, _combined, max_leaves=4))
@settings(max_examples=300, deadline=None)
def test_spec_grammar_builds_what_the_generators_build(spec):
    text, build = spec
    expected = _outcome(build)
    got = _outcome(lambda: graph_from_spec(text))
    assert got == expected
    if isinstance(expected, families.Graph):
        assert got.labels == expected.labels


@pytest.mark.parametrize("spec", ["path:65", "cycle:65", "complete:1500", "star:64",
                                  "gn:17", "fan:1,66", "fan:10,8", "hat:7", "cl:33",
                                  "ml:33", "hamming:65", "tree:6000,1"])
def test_oversize_spec_is_rejected_before_building(spec, monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("built an over-size graph")

    monkeypatch.setattr(families.Graph, "from_edges", unbuilt)
    with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.64"):
        graph_from_spec(spec)


def test_generators_yield_valid_connected_graphs():
    samples = [path(9), cycle(9), complete(6), star(5), doubling_gadget(4),
               fan_chain(3, 8), hat_chain(2), circular_ladder(6),
               mobius_ladder(5), hamming(2, 3), predomination_penalty_graph(),
               random_tree(12, 1)]
    for g in samples:
        assert is_connected(g)
        if g.labels is not None:
            assert len(set(g.labels)) == g.n
