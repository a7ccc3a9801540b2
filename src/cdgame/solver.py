"""Exact game values by memoized minimax, plus a naive reference oracle.

Values are move counts (ints); a game that cannot be finished has the
value :data:`NEVER`, encoded as ``math.inf`` so it orders above every
finite count and one comparison drives both players' choices.  The memo
is keyed on ``(played, passes_left)`` alone: the dominated set follows
from the played set and the predominated set, and the mover follows from
the turn index ``|played| + passes consumed``.

``solve`` is the production path; ``solve_naive`` is a deliberately
plain recursion with no memo and no shared move-generation code, used to
cross-check ``solve`` on small instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .engine import (PASS, GameConfig, GameState, Player, Status, Variant,
                     mover_at, status)
from .graph import Graph, bits

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
    elapsed: float = 0.0


class _Search:
    """One memoized minimax search over a fixed graph and config."""

    def __init__(self, g: Graph, cfg: GameConfig, deadline: float | None = None):
        cfg.validate_for(g)
        self.g = g
        self.cfg = cfg
        self.deadline = deadline
        self.memo: dict[tuple[int, int], GameValue] = {}
        self.expanded = 0
        self.hits = 0

    def value(self, played: int, dom: int, frontier: int, passes_left: int) -> GameValue:
        g = self.g
        if dom == g.full_mask:
            return played.bit_count()
        key = (played, passes_left)
        memo = self.memo
        cached = memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.expanded += 1
        if self.deadline is not None and self.expanded % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded
        closed = g.closed
        adj = g.adj
        undom = g.full_mask & ~dom
        moves = []
        candidates = (frontier & ~played) if played else g.full_mask
        m = candidates
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if closed[v] & undom:
                moves.append(v)
        if not moves:
            memo[key] = NEVER
            return NEVER
        turn = played.bit_count() + (self.cfg.pass_budget - passes_left) + 1
        dominator = mover_at(self.cfg.variant, turn) is Player.DOMINATOR
        best = NEVER if dominator else -1.0
        for v in moves:
            bit = 1 << v
            child = self.value(played | bit, dom | closed[v], frontier | adj[v],
                               passes_left)
            if dominator:
                if child < best:
                    best = child
            elif child > best:
                best = child
        if not dominator and passes_left > 0:
            child = self.value(played, dom, frontier, passes_left - 1)
            if child > best:
                best = child
        memo[key] = best
        return best

    def root_args(self, st: GameState):
        g = self.g
        dom = self.cfg.predominated
        frontier = 0
        for v in bits(st.played):
            dom |= g.closed[v]
            frontier |= g.adj[v]
        return st.played, dom, frontier, st.passes_left

    def evaluate(self, st: GameState) -> GameValue:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded
        return self.value(*self.root_args(st))

    def best_action(self, st: GameState) -> int | str:
        """Value-achieving action at ``st``: lowest playable vertex first,
        pass only if no vertex attains the value."""
        played, dom, frontier, passes_left = self.root_args(st)
        target = self.value(played, dom, frontier, passes_left)
        g = self.g
        undom = g.full_mask & ~dom
        candidates = (frontier & ~played) if played else g.full_mask
        for v in bits(candidates):
            if g.closed[v] & undom:
                child = self.value(played | (1 << v), dom | g.closed[v],
                                   frontier | g.adj[v], passes_left)
                if child == target:
                    return v
        turn = played.bit_count() + (self.cfg.pass_budget - passes_left) + 1
        if (mover_at(self.cfg.variant, turn) is Player.STALLER and passes_left > 0
                and self.value(played, dom, frontier, passes_left - 1) == target):
            return PASS
        raise ValueError("no legal action from this state")

    def principal_line(self) -> list[tuple[Player, int | str]]:
        line = []
        st = GameState(0, self.cfg.pass_budget)
        while True:
            played, dom, frontier, passes_left = self.root_args(st)
            if dom == self.g.full_mask:
                return line
            undom = self.g.full_mask & ~dom
            candidates = (frontier & ~played) if played else self.g.full_mask
            if not any(self.g.closed[v] & undom for v in bits(candidates)):
                return line  # stuck
            turn = played.bit_count() + (self.cfg.pass_budget - passes_left) + 1
            who = mover_at(self.cfg.variant, turn)
            action = self.best_action(st)
            line.append((who, action))
            if action == PASS:
                st = GameState(st.played, st.passes_left - 1)
            else:
                st = GameState(st.played | (1 << action), st.passes_left)


def solve(g: Graph, cfg: GameConfig, time_budget: float | None = None) -> SolveReport:
    """Exact optimal value with one optimal line of play and search stats.

    Raises :class:`BudgetExceeded` when ``time_budget`` (seconds) runs out.
    """
    start = time.monotonic()
    deadline = start + time_budget if time_budget is not None else None
    search = _Search(g, cfg, deadline)
    value = search.evaluate(GameState(0, cfg.pass_budget))
    line = search.principal_line()
    return SolveReport(value=value, principal_line=line,
                       states_expanded=search.expanded, memo_hits=search.hits,
                       elapsed=time.monotonic() - start)


def game_value(g: Graph, variant: Variant = Variant.DOMINATOR_START,
               pass_budget: int = 0, predominated: int = 0,
               time_budget: float | None = None) -> GameValue:
    """Value-only convenience wrapper around :func:`solve`."""
    cfg = GameConfig(variant=variant, pass_budget=pass_budget,
                     predominated=predominated)
    start = time.monotonic()
    deadline = start + time_budget if time_budget is not None else None
    return _Search(g, cfg, deadline).evaluate(GameState(0, pass_budget))


def optimal_move(g: Graph, cfg: GameConfig, st: GameState) -> int | str:
    """A minimax-optimal action for the mover at ``st``; ties broken by
    smallest vertex index with pass considered last.  The game must be
    ongoing."""
    if status(g, cfg, st) is not Status.ONGOING:
        raise ValueError("no legal action: the game is over")
    return _Search(g, cfg).best_action(st)


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
