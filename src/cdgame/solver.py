"""Exact game values by memoized minimax, plus a naive reference oracle.

Values are move counts (ints); a game that cannot be finished has the
value :data:`NEVER`, encoded as ``math.inf`` so it orders above every
finite count and one comparison drives both players' choices.

The search walks one position ``(played, reach, passes_left)``, where
``reach`` is N[played]: the dominated set ``dom`` is ``reach`` plus the
predominated set, the moves are the bits of the mask
:func:`engine.playable` makes of the two, and the mover follows from the
turn index ``t = |played| + passes consumed + 1``.  The memo is a
transposition table: it stores the number of vertex moves still to come,
keyed on what decides them,

- ``dom``;
- the live frontier, that is the move mask itself: a dead frontier
  vertex never becomes live again, since ``dom`` only grows;
- the turn class ``t if t <= 2 else 3 + t % 2``, which fixes the mover
  from here on in all four variants;
- ``passes_left``.

An opening position's playable set holds an undominated vertex and a
started position's never does, so the key needs no started flag.  A
position's value is ``|played|`` plus its remaining moves.  The
predominated set enters only through ``dom``, so :func:`game_values`
serves several predominated sets from one search and one memo.

``solve`` is the production path; ``solve_naive`` is a deliberately
plain recursion with no memo and no shared move-generation code, used to
cross-check ``solve`` on small instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

from .engine import (PASS, GameConfig, GameState, Player, Variant,
                     mover_at, mover_for, playable)
from .graph import Graph, bits, closed_neighborhood_set

NEVER = math.inf

GameValue = float  # a nonnegative int, or NEVER


def is_never(value: GameValue) -> bool:
    return value == NEVER


def format_value(value: GameValue) -> str:
    return "NEVER" if is_never(value) else str(int(value))


class BudgetExceeded(Exception):
    """Raised when a solve runs past its wall-clock deadline."""


@dataclass
class SolveReport:
    value: GameValue
    principal_line: list[tuple[Player, int | str]] = field(default_factory=list)
    states_expanded: int = 0
    memo_hits: int = 0
    memo_entries: int = 0
    elapsed: float = 0.0


class _Search:
    """One memoized minimax search over a fixed graph, variant and pass
    budget.  The move choices start from ``cfg``'s predominated set, but
    the memo holds for every predominated set, since :meth:`remaining`
    takes it inside ``dom``.  The time budget, if any, runs from
    construction or :meth:`restart`."""

    def __init__(self, g: Graph, cfg: GameConfig, time_budget: float | None = None):
        cfg.validate_for(g)
        self.g = g
        self.cfg = cfg
        self.memo: dict[tuple[int, int, int, int], GameValue] = {}
        self.expanded = 0
        self.hits = 0
        self.restart(time_budget)

    def restart(self, time_budget: float | None) -> None:
        """Start the clock; the deadline is checked every 4096 expanded states."""
        self.start = time.monotonic()
        self.deadline = self.start + time_budget if time_budget is not None else None

    def remaining(self, played: int, reach: int, dom: int, passes_left: int) -> GameValue:
        """Vertex moves still to come under optimal play; ``dom`` is
        ``reach`` plus the predominated set."""
        g = self.g
        if dom == g.full_mask:
            return 0
        live = playable(g, reach, dom)
        if not live:
            return NEVER
        # engine.mover_for, inline: this runs once per state
        turn = played.bit_count() + (self.cfg.pass_budget - passes_left) + 1
        key = (dom, live, turn if turn <= 2 else 3 + turn % 2, passes_left)
        memo = self.memo
        cached = memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.expanded += 1
        if self.deadline is not None and self.expanded % 4096 == 1:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded
        dominator = mover_at(self.cfg.variant, turn) is Player.DOMINATOR
        best = NEVER if dominator else -1.0
        closed = g.closed
        moves = live
        while moves:
            low = moves & -moves
            moves ^= low
            near = closed[low.bit_length() - 1]
            child = 1 + self.remaining(played | low, reach | near, dom | near, passes_left)
            if dominator:
                if child < best:
                    best = child
            elif child > best:
                best = child
        if not dominator and passes_left > 0:
            child = self.remaining(played, reach, dom, passes_left - 1)
            if child > best:
                best = child
        memo[key] = best
        return best

    def best_action(self, played: int, reach: int, passes_left: int) -> int | str:
        """Value-achieving action: lowest playable vertex first, pass only
        if no vertex attains the value."""
        dom = reach | self.cfg.predominated
        moves = playable(self.g, reach, dom)
        if not moves:
            raise ValueError("no legal action: the game is over")
        target = self.remaining(played, reach, dom, passes_left)
        closed = self.g.closed
        for v in bits(moves):
            if 1 + self.remaining(played | (1 << v), reach | closed[v], dom | closed[v],
                                  passes_left) == target:
                return v
        if (mover_for(self.cfg, played, passes_left) is Player.STALLER and passes_left > 0
                and self.remaining(played, reach, dom, passes_left - 1) == target):
            return PASS
        raise ValueError("no legal action from this state")

    def principal_line(self, played: int, reach: int,
                       passes_left: int) -> list[tuple[Player, int | str]]:
        """Optimal play from the position until the game is won or stuck."""
        line = []
        while playable(self.g, reach, reach | self.cfg.predominated):
            action = self.best_action(played, reach, passes_left)
            line.append((mover_for(self.cfg, played, passes_left), action))
            if action == PASS:
                passes_left -= 1
            else:
                played |= 1 << action
                reach |= self.g.closed[action]
        return line


def solve(g: Graph, cfg: GameConfig, time_budget: float | None = None) -> SolveReport:
    """Exact optimal value with one optimal line of play and search stats.

    Raises :class:`BudgetExceeded` when ``time_budget`` (seconds) runs out.
    """
    search = _Search(g, cfg, time_budget)
    value = search.remaining(0, 0, cfg.predominated, cfg.pass_budget)
    line = search.principal_line(0, 0, cfg.pass_budget)
    return SolveReport(value=value, principal_line=line,
                       states_expanded=search.expanded, memo_hits=search.hits,
                       memo_entries=len(search.memo),
                       elapsed=time.monotonic() - search.start)


def game_value(g: Graph, variant: Variant = Variant.DOMINATOR_START,
               pass_budget: int = 0, predominated: int = 0,
               time_budget: float | None = None) -> GameValue:
    """The value alone, without :func:`solve`'s principal line."""
    return game_values(g, [predominated], variant, pass_budget, time_budget)[0]


def game_values(g: Graph, predominated_sets: Iterable[int],
                variant: Variant = Variant.DOMINATOR_START, pass_budget: int = 0,
                time_budget: float | None = None) -> list[GameValue]:
    """The game's value with each predominated set in turn, from one search
    whose memo they all share; ``time_budget`` applies to each solve."""
    search = _Search(g, GameConfig(variant=variant, pass_budget=pass_budget))
    values = []
    for pre in predominated_sets:
        GameConfig(variant, pass_budget, pre).validate_for(g)
        search.restart(time_budget)
        values.append(search.remaining(0, 0, pre, pass_budget))
    return values


def optimal_move(g: Graph, cfg: GameConfig, st: GameState) -> int | str:
    """A minimax-optimal action for the mover at ``st``; ties broken by
    smallest vertex index with pass considered last.  The game must be
    ongoing: a won or stuck position raises ``ValueError``."""
    reach = closed_neighborhood_set(g, st.played)
    return _Search(g, cfg).best_action(st.played, reach, st.passes_left)


def solve_naive(g: Graph, cfg: GameConfig, stats: dict | None = None) -> GameValue:
    """Reference oracle: bare recursive minimax, no memo, no pruning.

    Recomputes the dominated set and move legality from their definitions
    at every node; shares nothing with :func:`solve` beyond the graph
    representation.  ``stats``, when given, receives the node count.
    """
    cfg.validate_for(g)
    n = g.n
    full = g.full_mask
    budget = cfg.pass_budget
    start_dom = cfg.predominated
    nodes = 0

    def recurse(played: int, passes_used: int) -> GameValue:
        nonlocal nodes
        nodes += 1
        dom = start_dom
        for u in range(n):
            if played >> u & 1:
                dom |= g.closed[u]
        if dom == full:
            return played.bit_count()
        options = []
        for v in range(n):
            if played >> v & 1:
                continue
            if played and not g.adj[v] & played:
                continue
            if g.closed[v] & ~dom:
                options.append(v)
        if not options:
            return NEVER
        turn = played.bit_count() + passes_used + 1
        player = mover_at(cfg.variant, turn)
        values = [recurse(played | (1 << v), passes_used) for v in options]
        if player is Player.STALLER and passes_used < budget:
            values.append(recurse(played, passes_used + 1))
        return min(values) if player is Player.DOMINATOR else max(values)

    result = recurse(0, 0)
    if stats is not None:
        stats["nodes"] = nodes
    return result
