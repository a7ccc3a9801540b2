"""The solver's memo, audited as a proof of the value.

Every entry ``(lo, hi)`` bounds the vertex moves still to come from the
position its key names.  An entry is justified when its bounds follow
from its children's: a fully dominated child is exactly 0, a child with no
live vertex exactly NEVER, a child with no entry ``(1, NEVER)``, and every
other child its own entry.  Every child has a larger ``dom`` or fewer
passes left, so when every entry is justified, the root's exact entry
proves the value.  The audit decodes the keys and builds the children
with its own N[S]; it shares no code with the search.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgame import solver
from cdgame.engine import GameConfig, Player, Variant, mover_at
from cdgame.families import graph_from_spec
from cdgame.graph import Graph, bits
from cdgame.solver import NEVER, ORACLE_CONFIGS, solve

from .conftest import closed_union, connected_graphs


def unjustified(g: Graph, memo: dict) -> list[int]:
    """The keys of ``memo`` whose bounds do not follow from their children's."""
    n, full, closed = g.n, g.full_mask, g.closed

    def live(reach, dom):
        return (reach or full) & closed_union(g, full & ~dom)

    def bounds(dom, reach, cls, passes_left):
        if dom == full:
            return 0, 0
        if not live(reach, dom):
            return NEVER, NEVER
        return memo.get(((passes_left << 2 | cls) << n | reach) << n | dom, (1, NEVER))

    bad = []
    for key, (lo, hi) in memo.items():
        dom, reach = key & full, key >> n & full
        cls, passes_left = key >> 2 * n & 3, key >> 2 * n + 2
        after = 2 if cls & 1 else 1
        children = []
        for v in bits(live(reach, dom)):
            child_lo, child_hi = bounds(dom | closed[v], reach | closed[v], after, passes_left)
            children.append((child_lo + 1, child_hi + 1))
        if cls & 2:
            best = min
        else:
            best = max
            if passes_left:
                children.append(bounds(dom, reach, after, passes_left - 1))
        if not (lo <= best(c[0] for c in children) and hi >= best(c[1] for c in children)):
            bad.append(key)
    return bad


def root_key(g: Graph, cfg: GameConfig) -> int:
    """The memo key of the opening position of ``cfg``'s game."""
    cls = ((mover_at(cfg.variant, 1) is Player.DOMINATOR) << 1
           | (mover_at(cfg.variant, 2) is Player.DOMINATOR))
    return (cfg.pass_budget << 2 | cls) << 2 * g.n | cfg.predominated


def solve_with_memo(g: Graph, cfg: GameConfig):
    """``solve``'s report and its search's finished memo, the entries of
    the principal line's searches included."""
    memos = []

    class Recording(solver._Search):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self.memo)

    with mock.patch.object(solver, "_Search", Recording):
        report = solve(g, cfg)
    return report, memos[-1]


def audit(g: Graph, cfg: GameConfig, report, memo: dict) -> None:
    """Every entry justified, and the root's entry exact at the value."""
    assert unjustified(g, memo) == []
    if memo:
        assert memo[root_key(g, cfg)] == (report.value, report.value)


# (spec, variant, pass budget, predominated label)
_AUDITED = [
    ("cart:path:6,path:5", Variant.DOMINATOR_START, 0, None),
    ("fig3", Variant.STALLER_START, 1, None),
    ("cl:6", Variant.DOMINATOR_START, 2, None),
    ("fig3", Variant.DOMINATOR_START, 0, "c"),
]


def _instance(spec, variant, k, pre):
    g = graph_from_spec(spec)
    return g, GameConfig(variant, k, 0 if pre is None else 1 << g.vertex_by_label(pre))


@pytest.mark.parametrize("spec, variant, k, pre", _AUDITED)
def test_solve_memo_is_a_proof(spec, variant, k, pre):
    g, cfg = _instance(spec, variant, k, pre)
    audit(g, cfg, *solve_with_memo(g, cfg))


@given(connected_graphs(max_n=6), st.integers(0, 63))
@settings(max_examples=60, deadline=None)
def test_solve_memo_is_a_proof_on_small_graphs(g, pre_bits):
    for variant, budget in ORACLE_CONFIGS:
        cfg = GameConfig(variant, budget, pre_bits & g.full_mask)
        audit(g, cfg, *solve_with_memo(g, cfg))


@pytest.mark.parametrize("spec, variant, k, pre", [_AUDITED[1], _AUDITED[2]])
def test_audit_flags_every_moved_exact_entry(spec, variant, k, pre):
    g, cfg = _instance(spec, variant, k, pre)
    report, memo = solve_with_memo(g, cfg)
    exact = [key for key, (lo, hi) in memo.items() if lo == hi < NEVER]
    assert exact
    for key in exact:
        value = memo[key][0]
        for moved in (value - 1, value + 1):
            memo[key] = (moved, moved)
            with pytest.raises(AssertionError):
                audit(g, cfg, report, memo)
        memo[key] = (value, value)
