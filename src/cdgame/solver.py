"""Exact game values by alpha-beta search over a bound memo, plus a naive
reference oracle.

Values are move counts (ints); a game that cannot be finished has the
value :data:`NEVER`, encoded as ``math.inf`` so it orders above every
finite count and one comparison drives both players' choices.

The search walks one position ``(played, reach, passes_left)``, where
``reach`` is N[played]: the dominated set ``dom`` is ``reach`` plus the
predominated set, the moves are the bits of :func:`engine.playable` of
the two, and the mover at turn ``t = |played| + passes consumed + 1`` is
read from a ``mover_at`` table each search builds once.  The memo is a
transposition table: it stores bounds ``(lo, hi)`` on the number of
vertex moves still to come, keyed on what decides them,

- ``dom``;
- the live frontier, that is the move mask itself: a dead frontier
  vertex never becomes live again, since ``dom`` only grows;
- the turn class ``t if t <= 2 else 3 + t % 2``, which fixes the mover
  from here on in all four variants;
- ``passes_left``.

An opening position's playable set holds an undominated vertex and a
started position's never does, so the key needs no started flag.  A
position's value is ``|played|`` plus its remaining moves.

The search is fail-soft alpha-beta (Dominator minimizes, Staller
maximizes).  A position not yet dominated needs at least one more move,
so a new entry starts at ``(1, NEVER)``; a search within a window
``(alpha, beta)`` tightens ``hi`` when it fails low, ``lo`` when it fails
high, and both when it lands inside.  A stored pair that settles the
window answers at once; otherwise it narrows the window before the
position is expanded again.  Dominator tries the moves that newly
dominate the most vertices first and Staller the fewest, lowest vertex
first on ties.  Bounds hold for every window, and the predominated set
enters only through ``dom``, so :func:`game_values` serves several
predominated sets from one search and one memo.

An optimal move keeps a fixed tie-break, the lowest vertex that attains
the value and a pass only when none does: after one full-window search
for the value, each child is tested with a null window, a search whose
window holds no integer and so only answers whether the child reaches
the value.

:func:`optimal_move` keeps its last search, memo included, and builds a
new one only for another graph (labels aside) or config, so the replies
of a game share one memo; its memory lives until such a call.

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
    """A solve's value, one optimal line and its search stats.
    ``states_expanded`` counts every expansion, including a position's
    re-expansion under a new window, so ``memo_entries`` can be lower;
    ``memo_hits`` counts the lookups whose stored bounds settled the
    window."""
    value: GameValue
    principal_line: list[tuple[Player, int | str]] = field(default_factory=list)
    states_expanded: int = 0
    memo_hits: int = 0
    memo_entries: int = 0
    elapsed: float = 0.0


class _Search:
    """One alpha-beta search over a fixed graph, variant and pass budget.
    The move choices start from ``cfg``'s predominated set, but the memo
    holds for every predominated set, since :meth:`remaining` takes it
    inside ``dom``.  The time budget, if any, runs from construction or
    :meth:`restart`."""

    def __init__(self, g: Graph, cfg: GameConfig, time_budget: float | None = None):
        cfg.validate_for(g)
        self.g = g
        self.cfg = cfg
        # dominator_at[t - 1]: whether Dominator makes the t-th move
        self.dominator_at = [mover_at(cfg.variant, t) is Player.DOMINATOR
                             for t in range(1, g.n + cfg.pass_budget + 2)]
        self.memo: dict[tuple[int, int, int, int], GameValue] = {}
        self.expanded = 0
        self.hits = 0
        self.restart(time_budget)

    def restart(self, time_budget: float | None) -> None:
        """Start the clock; the deadline is checked every 4096 expanded states."""
        self.start = time.monotonic()
        self.deadline = self.start + time_budget if time_budget is not None else None

    def remaining(self, played: int, reach: int, dom: int, passes_left: int,
                  alpha: GameValue = -1, beta: GameValue = NEVER) -> GameValue:
        """Vertex moves still to come under optimal play, fail-soft within
        the window ``(alpha, beta)``: a result at or below ``alpha`` is an
        upper bound, one at or above ``beta`` a lower bound, and one
        strictly between them exact, so the default full window gives the
        exact value.  ``dom`` is ``reach`` plus the predominated set."""
        g = self.g
        full = g.full_mask
        if dom == full:
            return 0
        if beta <= 1:  # an undominated position needs a move, or is NEVER
            return 1
        live = playable(g, reach, dom)
        if not live:
            return NEVER
        # engine.mover_for, inline: this runs once per state
        turn = played.bit_count() + (self.cfg.pass_budget - passes_left) + 1
        key = (dom, live, turn if turn <= 2 else 3 + turn % 2, passes_left)
        memo = self.memo
        entry = memo.get(key)
        if entry is None:
            lo, hi = 1, NEVER
        else:
            lo, hi = entry
            if lo >= beta or lo == hi:
                self.hits += 1
                return lo
            if hi <= alpha:
                self.hits += 1
                return hi
        if alpha < lo:
            alpha = lo
        if beta > hi:
            beta = hi
        self.expanded += 1
        if self.deadline is not None and self.expanded % 4096 == 1:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded
        dominator = self.dominator_at[turn - 1]
        closed = g.closed
        # Dominator tries the moves that newly dominate the most first,
        # Staller the fewest; each packed as rank << 6 | v, so ties go to
        # the lowest vertex
        undom = full & ~dom
        order = []
        moves = live
        while moves:
            low = moves & -moves
            moves ^= low
            v = low.bit_length() - 1
            gain = (closed[v] & undom).bit_count()
            order.append((64 - gain if dominator else gain) << 6 | v)
        order.sort()
        window_lo, window_hi = alpha, beta
        if dominator:
            best = NEVER
            for m in order:
                v = m & 63
                near = closed[v]
                child = 1 + self.remaining(played | 1 << v, reach | near, dom | near,
                                           passes_left, alpha - 1, beta - 1)
                if child < best:
                    best = child
                    if best <= alpha:
                        break
                    if best < beta:
                        beta = best
        else:
            best = 0
            for m in order:
                v = m & 63
                near = closed[v]
                child = 1 + self.remaining(played | 1 << v, reach | near, dom | near,
                                           passes_left, alpha - 1, beta - 1)
                if child > best:
                    best = child
                    if best >= beta:
                        break
                    if best > alpha:
                        alpha = best
            if best < beta and passes_left > 0:
                child = self.remaining(played, reach, dom, passes_left - 1, alpha, beta)
                if child > best:
                    best = child
        if best <= window_lo:
            hi = best
        elif best >= window_hi:
            lo = best
        else:
            lo = hi = best
        memo[key] = (lo, hi)
        return best

    def best_action(self, played: int, reach: int, passes_left: int) -> int | str:
        """Value-achieving action: lowest playable vertex first, pass only
        if no vertex attains the value.  One full-window search finds the
        value, then a null window around it tests each child in turn."""
        g = self.g
        dom = reach | self.cfg.predominated
        moves = playable(g, reach, dom)
        if not moves:
            raise ValueError("no legal action: the game is over")
        target = self.remaining(played, reach, dom, passes_left)
        staller = mover_for(self.cfg, played, passes_left) is Player.STALLER
        # windows on a vertex child's remaining moves, which attains the
        # target when it equals t = target - 1
        if is_never(target):
            alpha, beta = g.n, NEVER  # a finite remaining is at most n
        elif staller:  # every child is at most t: is it at least t?
            alpha, beta = target - 2, target - 1
        else:  # every child is at least t: is it at most t?
            alpha, beta = target - 1, target
        # a child attains at or above beta, except Dominator's below it
        high = staller or is_never(target)
        closed = g.closed
        for v in bits(moves):
            child = self.remaining(played | (1 << v), reach | closed[v], dom | closed[v],
                                   passes_left, alpha, beta)
            if (child >= beta) == high:
                return v
        # a pass keeps the move count, so its window is one higher
        if (staller and passes_left > 0 and self.remaining(
                played, reach, dom, passes_left - 1, alpha + 1, beta + 1) >= target):
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


_last_search: _Search | None = None


def optimal_move(g: Graph, cfg: GameConfig, st: GameState) -> int | str:
    """A minimax-optimal action for the mover at ``st``; ties broken by
    smallest vertex index with pass considered last.  The game must be
    ongoing: a won or stuck position raises ``ValueError``.  The search
    and its memo are kept between calls; a call with another graph or
    config replaces them, so their memory lives until then."""
    global _last_search
    if _last_search is None or _last_search.g != g or _last_search.cfg != cfg:
        _last_search = _Search(g, cfg)
    reach = closed_neighborhood_set(g, st.played)
    return _last_search.best_action(st.played, reach, st.passes_left)


def solve_naive(g: Graph, cfg: GameConfig, stats: dict | None = None,
                time_budget: float | None = None) -> GameValue:
    """Reference oracle: bare recursive minimax, no memo, no pruning.

    Rebuilds the dominated set from the played vertices, and tests every
    unplayed vertex against its own copy of the move rule, at every node;
    shares nothing with :func:`solve` beyond the graph and ``mover_at``.
    ``stats``, when given, receives the node count.  Raises
    :class:`BudgetExceeded` once ``time_budget`` seconds have passed,
    checking the clock every 4096 nodes.
    """
    cfg.validate_for(g)
    adj, closed, full = g.adj, g.closed, g.full_mask
    budget = cfg.pass_budget
    start_dom = cfg.predominated
    # whether Dominator makes the move that follows `made` moves and passes
    dominator_next = [mover_at(cfg.variant, made + 1) is Player.DOMINATOR
                      for made in range(g.n + budget + 1)]
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    nodes = 0

    def recurse(played: int, passes_used: int) -> GameValue:
        nonlocal nodes
        nodes += 1
        if not nodes & 4095 and deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded
        dom = start_dom
        rest = played
        while rest:
            low = rest & -rest
            rest ^= low
            dom |= closed[low.bit_length() - 1]
        if dom == full:
            return played.bit_count()
        undom = full & ~dom
        options = []
        rest = full & ~played
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if (not played or adj[v] & played) and closed[v] & undom:
                options.append(low)
        if not options:
            return NEVER
        if dominator_next[played.bit_count() + passes_used]:
            return min([recurse(played | low, passes_used) for low in options])
        values = [recurse(played | low, passes_used) for low in options]
        if passes_used < budget:
            values.append(recurse(played, passes_used + 1))
        return max(values)

    result = recurse(0, 0)
    if stats is not None:
        stats["nodes"] = nodes
    return result
