import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgame.engine import (GameConfig, GameState, Player, Status,
                           Variant, apply_move, apply_pass, dominated,
                           initial_state, legal_moves, mover, mover_at, playable,
                           status)
from cdgame.families import complete, cycle, path
from cdgame.graph import Graph, bits, closed_neighborhood_set

from .conftest import (CHUNK_EDGES, arbitrary_graphs, closed_union, connected_graphs,
                       vertex_sets, wide_graphs)
from .domination import is_connected_induced, mask_of

D, S = Player.DOMINATOR, Player.STALLER


@pytest.mark.parametrize("variant,expected", [
    (Variant.DOMINATOR_START, [D, S, D, S, D, S]),
    (Variant.STALLER_START, [S, D, S, D, S, D]),
    (Variant.STALLER_SKIPS_FIRST, [D, D, S, D, S, D]),
    (Variant.DOMINATOR_SKIPS_FIRST, [S, S, D, S, D, S]),
])
def test_mover_at(variant, expected):
    assert [mover_at(variant, t) for t in range(1, 7)] == expected
    # each variant's turn rule written out on its own, against the opening table
    dominator_moves = {
        Variant.DOMINATOR_START: lambda t: t % 2 == 1,
        Variant.STALLER_START: lambda t: t % 2 == 0,
        Variant.STALLER_SKIPS_FIRST: lambda t: t <= 2 or t % 2 == 0,
        Variant.DOMINATOR_SKIPS_FIRST: lambda t: t > 2 and t % 2 == 1,
    }[variant]
    assert [mover_at(variant, t) for t in range(1, 101)] == [
        D if dominator_moves(t) else S for t in range(1, 101)]


def test_mover_at_rejects_zero():
    with pytest.raises(ValueError):
        mover_at(Variant.DOMINATOR_START, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        GameConfig(pass_budget=-1)
    with pytest.raises(ValueError):
        GameConfig(variant=Variant.STALLER_SKIPS_FIRST, pass_budget=1)
    with pytest.raises(ValueError):
        GameConfig(variant=Variant.DOMINATOR_SKIPS_FIRST, pass_budget=2)
    GameConfig(variant=Variant.STALLER_START, pass_budget=2)  # fine
    cfg = GameConfig(predominated=1 << 5)
    with pytest.raises(ValueError):
        cfg.validate_for(path(4))


_ONLY_PLAIN = "pass budget is only defined for the plain Dominator-start and Staller-start games"


@pytest.mark.parametrize("fields,message", [
    ((Variant.DOMINATOR_START, -1, 0), "pass budget must be nonnegative"),
    ((Variant.STALLER_SKIPS_FIRST, 1, 0), _ONLY_PLAIN),
    ((Variant.DOMINATOR_SKIPS_FIRST, 2, 0), _ONLY_PLAIN),
    ((Variant.STALLER_START, 0, -1), "predominated set must be a nonnegative bitmask"),
    (("d", 0, 0), "variant must be a Variant"),
    ((None, 0, 0), "variant must be a Variant"),
    ((Variant.DOMINATOR_START, 1.5, 0), "pass budget must be an int"),
    ((Variant.STALLER_START, "1", 0), "pass budget must be an int"),
    ((Variant.DOMINATOR_START, 0, 1.0), "predominated set must be an int bitmask"),
])
def test_config_checks_every_construction(fields, message):
    variant, k, pre = fields
    # _replace skips the checks, so it forges the bad config that is pickled
    forged = GameConfig()._replace(variant=variant, pass_budget=k, predominated=pre)
    makers = [lambda: GameConfig(*fields),
              lambda: GameConfig(variant=variant, pass_budget=k, predominated=pre)]
    makers += [lambda p=p: pickle.loads(pickle.dumps(forged, protocol=p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for make in makers:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def test_config_and_state_are_immutable_values():
    cfg, st_ = GameConfig(Variant.STALLER_START, 1, 4), GameState(3, 1)
    for obj, name in [(cfg, "variant"), (cfg, "pass_budget"), (cfg, "predominated"),
                      (st_, "played"), (st_, "passes_left"), (cfg, "extra"), (st_, "extra")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    same_cfg = GameConfig(variant=Variant.STALLER_START, pass_budget=1, predominated=4)
    same_st = GameState(played=3, passes_left=1)
    assert same_cfg == cfg and hash(same_cfg) == hash(cfg)
    assert same_st == st_ and hash(same_st) == hash(st_)
    assert GameConfig(Variant.STALLER_START, 1, 5) != cfg and GameState(3, 0) != st_
    again = pickle.loads(pickle.dumps(cfg))
    assert type(again) is GameConfig and again == cfg
    assert GameConfig() == GameConfig(Variant.DOMINATOR_START, 0, 0)


def test_playable_adjacency_and_opening_exemption():
    g = Graph.from_edges(2, [])  # 2K1: any vertex opens, nothing follows
    assert playable(g, 0, 0) == 0b11
    assert playable(g, g.closed[0], g.closed[0]) == 0
    p4 = path(4)
    reach = p4.closed[1]  # vertex 1 played
    assert playable(p4, reach, reach) == 0b0100  # 0 is adjacent but adds nothing
    assert playable(p4, reach, reach | 0b1000) == 0


@given(arbitrary_graphs(), st.integers(0, 127), st.integers(0, 127))
@settings(max_examples=200)
def test_playable_matches_definition(g, played_bits, pre_bits):
    # any played set, connected or not, and any predominated set
    played = played_bits & g.full_mask
    reach = closed_neighborhood_set(g, played)
    dom = reach | (pre_bits & g.full_mask)
    expected = mask_of(v for v in range(g.n)
                       if not played >> v & 1
                       and (played == 0 or g.adj[v] & played)
                       and g.closed[v] & ~dom)
    assert playable(g, reach, dom) == expected


@pytest.mark.parametrize("n", (None,) + CHUNK_EDGES)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_playable_is_its_docstring_formula(n, data):
    # (reach if reach else full) & N[V - dom], N[.] by a per-vertex OR, on
    # graphs across the chunk edges of the N[S] tables
    g = data.draw(wide_graphs(n))
    reach = closed_union(g, data.draw(vertex_sets(g)))
    dom = reach | data.draw(vertex_sets(g))
    full = g.full_mask
    assert playable(g, reach, dom) == (reach if reach else full) & closed_union(g, full & ~dom)


def test_legal_moves_opening():
    p4 = path(4)
    cfg = GameConfig()
    assert legal_moves(p4, cfg, initial_state(cfg)) == p4.full_mask


def test_legal_moves_forced_chain():
    p5 = path(5)
    cfg = GameConfig()
    st_ = GameState(played=1 << 0)
    assert legal_moves(p5, cfg, st_) == 1 << 1


def test_legal_moves_predominated_dead_end():
    # 0-1-2-3-4 with the middle predominated: from vertex 0 nothing is playable
    p5 = path(5)
    cfg = GameConfig(predominated=1 << 2)
    st_ = GameState(played=1 << 0)
    assert legal_moves(p5, cfg, st_) == 0
    assert dominated(p5, cfg, st_) != p5.full_mask
    assert status(p5, cfg, st_) is Status.STUCK


def test_legal_opening_must_dominate_something_new():
    p5 = path(5)
    cfg = GameConfig(predominated=mask_of((0, 1, 2)))
    opening = legal_moves(p5, cfg, initial_state(cfg))
    # vertex 0 only sees predominated vertices, so it is not playable
    assert not opening & 1
    assert opening & (1 << 2)  # playable: dominates 3


def test_apply_move():
    p4 = path(4)
    cfg = GameConfig()
    st_ = GameState(played=1 << 1)
    nxt = apply_move(p4, cfg, st_, 2)
    assert nxt.played == mask_of((1, 2))
    assert status(p4, cfg, nxt) is Status.WON
    assert nxt.moves_made() == 2
    with pytest.raises(ValueError):
        apply_move(p4, cfg, st_, 3)  # not adjacent to the played set
    with pytest.raises(ValueError):
        apply_move(p4, cfg, st_, 9)


def test_apply_pass():
    cfg = GameConfig(pass_budget=1)
    st_ = GameState(played=1 << 1, passes_left=1)
    assert mover(cfg, st_) is S
    passed = apply_pass(cfg, st_)
    assert passed.passes_left == 0 and passed.played == st_.played
    assert mover(cfg, passed) is D
    with pytest.raises(ValueError):
        apply_pass(cfg, passed)  # budget exhausted; also Dominator's turn
    with pytest.raises(ValueError):
        apply_pass(cfg, GameState(0, 1))  # Dominator to move in a D-game


def test_status_examples():
    p5 = path(5)
    stuck_cfg = GameConfig(predominated=mask_of((1, 2, 3)))
    assert status(p5, stuck_cfg, GameState(played=1 << 1)) is Status.STUCK
    assert status(complete(3), GameConfig(), GameState(played=1)) is Status.WON
    assert status(cycle(6), GameConfig(), GameState(played=0b11)) is Status.ONGOING


def test_no_stuck_states_without_predomination(corpus):
    """Exhaustive over the corpus: with nothing predominated, every
    reachable position of a connected graph has a legal continuation."""
    cfg = GameConfig()
    for g in corpus:
        seen = set()
        frontier = [0]
        while frontier:
            played = frontier.pop()
            if played in seen:
                continue
            seen.add(played)
            st_ = GameState(played=played)
            moves = legal_moves(g, cfg, st_)
            if dominated(g, cfg, st_) != g.full_mask:
                assert moves != 0, f"stuck at {played:b} on {g!r}"
            for v in bits(moves):
                frontier.append(played | (1 << v))


@given(connected_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_random_playthrough_invariants(g, rng):
    cfg = GameConfig()
    st_ = initial_state(cfg)
    dom_before = dominated(g, cfg, st_)
    while status(g, cfg, st_) is Status.ONGOING:
        moves = list(bits(legal_moves(g, cfg, st_)))
        v = rng.choice(moves)
        before = st_.moves_made()
        st_ = apply_move(g, cfg, st_, v)
        assert st_.moves_made() == before + 1
        assert is_connected_induced(g, st_.played)
        dom_after = dominated(g, cfg, st_)
        assert dom_after & dom_before == dom_before  # monotone
        assert dom_after != dom_before               # strictly grows
        dom_before = dom_after
    assert status(g, cfg, st_) is Status.WON
    assert st_.moves_made() <= g.n
