import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdgame import solver
from cdgame.analysis import oracle_configs_for, predomination_scan
from cdgame.engine import (PASS, PASS_VARIANTS, GameConfig, GameState, Player,
                           Status, Variant, apply_move, apply_pass, legal_moves,
                           mover, mover_at, status)
from cdgame.families import (circular_ladder, complete, cycle, doubling_gadget,
                             graph_from_spec, path, predomination_penalty_graph)
from cdgame.graph import Graph, bits
from cdgame.solver import (NEVER, BudgetExceeded, format_value, game_value,
                           game_values, is_never, optimal_move, solve, solve_naive)

from .conftest import arbitrary_graphs, connected_graphs
from .domination import connected_domination_number

VD = Variant.DOMINATOR_START
VS = Variant.STALLER_START


def test_path_values():
    assert solve(path(4), GameConfig(VD)).value == 2
    assert solve(path(4), GameConfig(VS)).value == 3


def test_gadget_values():
    g = doubling_gadget(3)
    assert solve(g, GameConfig(VD)).value == 3
    assert solve(g, GameConfig(VS)).value == 6


def test_hamming_values():
    from cdgame.families import hamming
    h = hamming(2, 4)
    assert solve(h, GameConfig(VD)).value == 3
    assert solve(h, GameConfig(VS)).value == 2


def test_unfinishable_games():
    assert is_never(solve(path(5), GameConfig(VS, predominated=1 << 2)).value)
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert is_never(solve(disconnected, GameConfig(VD)).value)


def test_predomination_penalty():
    g = predomination_penalty_graph()
    assert solve(g, GameConfig(VD)).value == 7
    c = 1 << g.vertex_by_label("c")
    assert solve(g, GameConfig(VD, predominated=c)).value == 8


def test_skip_variant_path():
    assert solve(path(5), GameConfig(Variant.STALLER_SKIPS_FIRST)).value == 3


def test_value_with_predominated():
    p7 = path(7)
    assert game_value(p7, VD, predominated=1 << 0) == 4
    assert game_value(p7, VD, predominated=1 << 3) == 5
    cl5 = circular_ladder(5)
    for v in range(cl5.n):
        assert game_value(cl5, VD, predominated=1 << v) == 5


def test_naive_matches_on_cycles():
    c5 = cycle(5)
    assert solve_naive(c5, GameConfig(VD)) == 3 == solve(c5, GameConfig(VD)).value
    pre = GameConfig(VD, predominated=1)
    assert solve_naive(c5, pre) == 2 == solve(c5, pre).value


def test_optimal_move_examples():
    root = GameState(0, 0)
    assert optimal_move(path(4), GameConfig(VD), root) == 1
    assert optimal_move(complete(3), GameConfig(VD), root) == 0
    g = doubling_gadget(3)
    assert optimal_move(g, GameConfig(VD), root) == g.vertex_by_label("u3")


def test_optimal_move_tie_prefers_vertex_over_pass():
    # From P_4 with vertex 1 played, Staller's only vertex move (2) and a
    # pass both lead to a 2-move game; the tie goes to the vertex.
    cfg = GameConfig(VD, pass_budget=1)
    st_ = GameState(played=1 << 1, passes_left=1)
    assert optimal_move(path(4), cfg, st_) == 2


def test_optimal_move_rejects_finished_games():
    with pytest.raises(ValueError):
        optimal_move(complete(3), GameConfig(VD), GameState(played=1))
    stuck_cfg = GameConfig(VD, pass_budget=1, predominated=1 << 2)
    with pytest.raises(ValueError):
        optimal_move(path(5), stuck_cfg, GameState(played=1, passes_left=1))


def test_format_value():
    assert format_value(3) == "3"
    assert format_value(NEVER) == "NEVER"


def test_report_fields_and_replay():
    g = doubling_gadget(2)
    cfg = GameConfig(VS)
    report = solve(g, cfg)
    assert report.value == 4
    assert report.states_expanded > 0 and report.elapsed >= 0
    st_ = GameState(0, cfg.pass_budget)
    for who, action in report.principal_line:
        assert action != PASS
        st_ = apply_move(g, cfg, st_, action)
    assert status(g, cfg, st_) is Status.WON
    assert st_.moves_made() == report.value


def test_principal_line_alternates_correctly():
    report = solve(path(6), GameConfig(VS))
    players = [who for who, _ in report.principal_line]
    assert players == [Player.STALLER, Player.DOMINATOR] * 2 + [Player.STALLER]


def test_replay_with_passes():
    g = cycle(6)
    cfg = GameConfig(VD, pass_budget=2)
    report = solve(g, cfg)
    st_ = GameState(0, cfg.pass_budget)
    for who, action in report.principal_line:
        if action == PASS:
            st_ = apply_pass(cfg, st_)
        else:
            st_ = apply_move(g, cfg, st_, action)
    assert status(g, cfg, st_) is Status.WON
    assert st_.moves_made() == report.value


def test_deterministic_reports():
    g = doubling_gadget(3)
    cfg = GameConfig(VS)
    a, b = solve(g, cfg), solve(g, cfg)
    assert a.value == b.value
    assert a.principal_line == b.principal_line
    assert a.states_expanded == b.states_expanded
    assert a.memo_hits == b.memo_hits


# value, states expanded, memo hits and principal line of `cdgame solve` on
# seven instances; a change to the search must reproduce all four exactly
_SOLVE_GATE = [
    ("cart:path:4,path:5", VD, 0, None, 11, 1545, 1673,
     "D:6 S:1 D:7 S:2 D:11 S:3 D:8 S:9 D:16 S:13 D:14"),
    ("fan:3,8", VS, 1, None, 7, 88, 57,
     "S:r1 D:h1 S:r7 D:h2 S:pass D:r13 S:r14 D:h3"),
    ("cl:6", Variant.STALLER_SKIPS_FIRST, 0, None, 7, 157, 76,
     "D:(1,1) D:(1,2) S:(2,1) D:(2,2) S:(3,1) D:(4,1) S:(4,2)"),
    ("fig3", VD, 0, "c", 8, 43, 27, "D:b S:a D:c S:d D:e S:e' D:f S:g"),
    ("gn:3", VD, 2, None, 3, 24, 7, "D:u3 S:u2 D:u1"),
    ("cart:path:5,path:5", VD, 0, None, 14, 6437, 9378,
     "D:6 S:1 D:11 S:10 D:12 S:2 D:3 S:4 D:17 S:9 D:15 S:14 D:22 S:19"),
    ("cart:path:6,path:5", VD, 0, None, 17, 27944, 61270,
     "D:6 S:1 D:11 S:2 D:3 S:4 D:12 S:9 D:16 S:13 D:18 S:15 D:21 S:19 D:26 S:23 D:24"),
]


@pytest.mark.parametrize("spec, variant, k, pre, value, states, hits, line", _SOLVE_GATE)
def test_solve_output_is_pinned(spec, variant, k, pre, value, states, hits, line):
    g = predomination_penalty_graph() if spec == "fig3" else graph_from_spec(spec)
    cfg = GameConfig(variant, k, 0 if pre is None else 1 << g.vertex_by_label(pre))
    report = solve(g, cfg)
    assert report.value == value
    assert (report.states_expanded, report.memo_hits) == (states, hits)
    assert " ".join(f"{who.value}:{a if a == PASS else g.label(a)}"
                    for who, a in report.principal_line) == line


# value, states expanded, memo hits and memo entries of three deep `d`
# solves; about a minute of search, so only `pytest -m slow` runs them
_DEEP_LADDER = [
    ("cart:path:6,path:6", 21, 206439, 600134, 144989),
    ("cart:cycle:6,cycle:6", 19, 1055066, 3579461, 711998),
    ("cart:path:7,path:6", 25, 1939859, 7145637, 1330722),
]


@pytest.mark.slow
@pytest.mark.parametrize("spec, value, states, hits, entries", _DEEP_LADDER)
def test_deep_ladder_is_pinned(spec, value, states, hits, entries):
    report = solve(graph_from_spec(spec), GameConfig(VD))
    assert report.value == value
    assert (report.states_expanded, report.memo_hits, report.memo_entries) == (
        states, hits, entries)


@pytest.mark.parametrize("variant", list(Variant))
def test_mover_table_matches_mover_at(variant):
    # every turn from 1 to n + k + 1, for every pass budget the variant allows
    for g in (complete(1), path(5)):
        for k in range(3 if variant in PASS_VARIANTS else 1):
            table = solver._Search(g, GameConfig(variant, k)).dominator_at
            assert table == [mover_at(variant, t) is Player.DOMINATOR
                             for t in range(1, g.n + k + 2)]


def test_budget_exceeded():
    g = circular_ladder(7)
    with pytest.raises(BudgetExceeded):
        solve(g, GameConfig(VS), time_budget=0.0)


def test_naive_oracle_budget_exceeded():
    # minutes of bare minimax on 16 vertices; the clock stops it early
    with pytest.raises(BudgetExceeded):
        solve_naive(graph_from_spec("cart:path:4,path:4"), GameConfig(VD), time_budget=0.05)
    assert solve_naive(path(4), GameConfig(VD), time_budget=60.0) == 2


# solve_naive's node counts: a faster oracle node must keep them, which
# shows that it still walks the same unpruned tree
_NAIVE_GATE = [
    # spec, variant, pass budget, predominated label, value, nodes
    ("cl:5", VS, 2, None, 6, 42392),
    ("fan:2,7", Variant.DOMINATOR_SKIPS_FIRST, 0, None, 5, 3992),
    ("fig3", VD, 0, "c", 8, 408),
    ("cl:5", VD, 1, "(2,1)", 5, 11673),
]


@pytest.mark.parametrize("spec, variant, k, pre, value, nodes", _NAIVE_GATE)
def test_naive_oracle_tree_is_pinned(spec, variant, k, pre, value, nodes):
    g = predomination_penalty_graph() if spec == "fig3" else graph_from_spec(spec)
    cfg = GameConfig(variant, k, 0 if pre is None else 1 << g.vertex_by_label(pre))
    stats = {}
    assert solve_naive(g, cfg, stats) == value
    assert stats["nodes"] == nodes


def test_naive_oracle_nodes_on_verify_slice(corpus):
    # every 8th corpus graph, every oracle-sweep config: the benchmark's
    # verify slice, node for node
    total = 0
    for g in corpus[::8]:
        for cfg in oracle_configs_for(g):
            stats = {}
            solve_naive(g, cfg, stats)
            total += stats["nodes"]
    assert total == 626088


def test_game_value_lower_bound_on_corpus(corpus):
    for g in corpus:
        assert game_value(g) >= connected_domination_number(g)


_cfg_strategy = st.one_of(
    st.tuples(st.sampled_from([VD, VS]), st.integers(0, 2)),
    st.tuples(st.sampled_from([Variant.STALLER_SKIPS_FIRST,
                               Variant.DOMINATOR_SKIPS_FIRST]), st.just(0)),
)


@given(connected_graphs(max_n=6), _cfg_strategy, st.integers(0, 63))
@settings(max_examples=120, deadline=None)
def test_solver_matches_naive_oracle(g, variant_budget, pre_bits):
    variant, budget = variant_budget
    cfg = GameConfig(variant, budget, pre_bits & g.full_mask)
    stats = {}
    fast = solve(g, cfg)
    slow = solve_naive(g, cfg, stats)
    assert fast.value == slow
    assert fast.states_expanded <= stats["nodes"]


@given(arbitrary_graphs(max_n=6), _cfg_strategy, st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_solver_matches_naive_oracle_on_any_graph(g, variant_budget, pre_bits):
    # disconnected graphs reach the first-move exemption: after the opening
    # pick, a vertex of another component is never playable
    variant, budget = variant_budget
    cfg = GameConfig(variant, budget, pre_bits & g.full_mask)
    stats = {}
    report = solve(g, cfg)
    assert report.value == solve_naive(g, cfg, stats)
    assert report.states_expanded <= stats["nodes"]


@given(arbitrary_graphs(max_n=6), _cfg_strategy,
       st.lists(st.integers(0, 63), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_shared_search_matches_naive_oracle(g, variant_budget, pre_list):
    # game_values solves every predominated set from one search and memo
    variant, budget = variant_budget
    pres = [bits & g.full_mask for bits in pre_list]
    assert game_values(g, pres, variant, budget) == [
        solve_naive(g, GameConfig(variant, budget, pre)) for pre in pres]


@given(connected_graphs(max_n=6), _cfg_strategy, st.integers(0, 63))
@settings(max_examples=80, deadline=None)
def test_principal_line_replay_soundness(g, variant_budget, pre_bits):
    variant, budget = variant_budget
    cfg = GameConfig(variant, budget, pre_bits & g.full_mask)
    report = solve(g, cfg)
    st_ = GameState(0, cfg.pass_budget)
    for who, action in report.principal_line:
        assert who is Player.DOMINATOR or who is Player.STALLER
        if action == PASS:
            st_ = apply_pass(cfg, st_)
        else:
            st_ = apply_move(g, cfg, st_, action)
    end = status(g, cfg, st_)
    if is_never(report.value):
        assert end is Status.STUCK
    else:
        assert end is Status.WON
        assert st_.moves_made() == report.value


@given(connected_graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_value_sandwiches(g):
    d = game_value(g)
    s = game_value(g, VS)
    assert d - 1 <= s <= 2 * d
    d_skip = game_value(g, Variant.STALLER_SKIPS_FIRST)
    s_skip = game_value(g, Variant.DOMINATOR_SKIPS_FIRST)
    assert abs(d_skip - d) <= 1
    assert abs(s_skip - s) <= 1
    p1 = game_value(g, pass_budget=1)
    p2 = game_value(g, pass_budget=2)
    assert d <= p1 <= d + 1
    assert p1 <= p2 <= d + 2


def _is_count(value):
    return is_never(value) or type(value) is int


@given(arbitrary_graphs(max_n=6), _cfg_strategy, st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_values_are_ints_unless_never(g, variant_budget, pre_bits):
    # a float bound or start value still compares right, but a value such
    # as 4.0 would reach the records as "4.0"
    variant, budget = variant_budget
    pre = pre_bits & g.full_mask
    assert _is_count(solve(g, GameConfig(variant, budget, pre)).value)
    pres = [0, pre, g.full_mask] + [1 << v for v in range(g.n)]
    assert all(map(_is_count, game_values(g, pres, variant, budget)))
    scan = predomination_scan(g)
    assert all(map(_is_count, [scan.value, *scan.per_vertex]))


def _brute_options(g, cfg, played):
    """The dominated set and the legal picks, from the rules alone."""
    dom = cfg.predominated
    for u in bits(played):
        dom |= g.closed[u]
    return dom, [v for v in range(g.n)
                 if not played >> v & 1 and (not played or g.adj[v] & played)
                 and g.closed[v] & ~dom]


def _brute_value(g, cfg, played, passes_left):
    """Total vertex moves under optimal play."""
    dom, options = _brute_options(g, cfg, played)
    if dom == g.full_mask:
        return played.bit_count()
    if not options:
        return NEVER
    turn = played.bit_count() + cfg.pass_budget - passes_left + 1
    staller = mover_at(cfg.variant, turn) is Player.STALLER
    values = [_brute_value(g, cfg, played | 1 << v, passes_left) for v in options]
    if staller and passes_left > 0:
        values.append(_brute_value(g, cfg, played, passes_left - 1))
    return max(values) if staller else min(values)


def _brute_move(g, cfg, played, passes_left):
    """The lowest vertex that attains the value, else a pass."""
    target = _brute_value(g, cfg, played, passes_left)
    for v in _brute_options(g, cfg, played)[1]:
        if _brute_value(g, cfg, played | 1 << v, passes_left) == target:
            return v
    assert _brute_value(g, cfg, played, passes_left - 1) == target
    return PASS


_PRISM = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3),
                              (2, 5), (3, 4), (4, 5)])


@given(connected_graphs(max_n=6), _cfg_strategy, st.integers(0, 63),
       st.lists(st.integers(0, 63), max_size=8))
@settings(max_examples=150, deadline=None)
@example(path(5), (VS, 0), 1 << 2, [])      # value NEVER, Staller to move
@example(path(5), (VD, 0), 0b01110, [])     # value NEVER, Dominator to move
@example(_PRISM, (VS, 1), 0, [])            # Staller's only optimal action is a pass
@example(path(4), (VD, 1), 0, [1])          # a vertex ties with a pass
def test_optimal_move_matches_brute_force(g, variant_budget, pre_bits, choices):
    # walk to a random ongoing position; each choice picks an action among
    # the legal vertices, plus a pass when Staller has one
    variant, budget = variant_budget
    cfg = GameConfig(variant, budget, pre_bits & g.full_mask)
    pos = GameState(0, budget)
    if status(g, cfg, pos) is not Status.ONGOING:
        with pytest.raises(ValueError):
            optimal_move(g, cfg, pos)
        return
    for c in choices:
        actions = list(bits(legal_moves(g, cfg, pos)))
        if mover(cfg, pos) is Player.STALLER and pos.passes_left > 0:
            actions.append(PASS)
        action = actions[c % len(actions)]
        nxt = (apply_pass(cfg, pos) if action == PASS
               else apply_move(g, cfg, pos, action))
        if status(g, cfg, nxt) is not Status.ONGOING:
            break
        pos = nxt
    assert optimal_move(g, cfg, pos) == _brute_move(g, cfg, pos.played, pos.passes_left)


def _relabeled(g):
    return Graph(g.n, g.adj, [f"x{v}" for v in range(g.n)])


def test_optimal_move_keeps_its_search_for_equal_inputs():
    g = cycle(6)
    cfg = GameConfig(VS, pass_budget=1)
    root = GameState(0, 1)
    first = optimal_move(g, cfg, root)
    kept = solver._last_search
    # an equal graph with other labels and an equal config reuse the search
    assert optimal_move(_relabeled(g), GameConfig(VS, 1), root) == first
    assert solver._last_search is kept
    optimal_move(g, GameConfig(VS, 1, predominated=1), root)
    assert solver._last_search is not kept
    kept = solver._last_search
    optimal_move(path(6), GameConfig(VS, 1, predominated=1), root)
    assert solver._last_search is not kept


@given(connected_graphs(max_n=6), connected_graphs(max_n=6), _cfg_strategy,
       _cfg_strategy, st.integers(0, 63), st.integers(0, 63),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=30))
@settings(max_examples=60, deadline=None)
def test_kept_search_matches_brute_force_across_games(g, h, first, second, pre_a,
                                                      pre_b, steps):
    # Four games advance one action at a time in the order ``steps`` picks,
    # so optimal_move keeps its search between calls on the same graph and
    # config and replaces it on a switch: two configs on g, one on h, and
    # the first config on an equal copy of g with other labels.  Every
    # reply is checked; the game goes on with it or with another legal
    # action.  Once ``steps`` runs out, the engine plays every game out.
    games = [(g, GameConfig(*first, pre_a & g.full_mask)),
             (g, GameConfig(*second, pre_b & g.full_mask)),
             (h, GameConfig(*first, pre_b & h.full_mask)),
             (_relabeled(g), GameConfig(*first, pre_a & g.full_mask))]
    positions = [GameState(0, cfg.pass_budget) for _, cfg in games]
    steps = iter(steps)
    while True:
        ongoing = [i for i, (gr, cfg) in enumerate(games)
                   if status(gr, cfg, positions[i]) is Status.ONGOING]
        if not ongoing:
            break
        pick, deviate = next(steps, (0, None))
        i = ongoing[pick % len(ongoing)]
        gr, cfg = games[i]
        pos = positions[i]
        reply = optimal_move(gr, cfg, pos)
        assert reply == _brute_move(gr, cfg, pos.played, pos.passes_left)
        actions = list(bits(legal_moves(gr, cfg, pos)))
        if mover(cfg, pos) is Player.STALLER and pos.passes_left > 0:
            actions.append(PASS)
        if deviate is None:
            action = reply
        else:
            action = (actions + [reply])[deviate % (len(actions) + 1)]
        positions[i] = (apply_pass(cfg, pos) if action == PASS
                        else apply_move(gr, cfg, pos, action))
