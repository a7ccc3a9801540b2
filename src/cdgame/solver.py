"""Exact game values by alpha-beta search over a bound memo, plus a naive
reference oracle.

Values are move counts (ints); a game that cannot be finished has the
value :data:`NEVER`, encoded as ``math.inf`` so it orders above every
finite count and one comparison drives both players' choices.

The search walks one position ``(reach, passes_left, class)``, where
``reach`` is N[played]: the dominated set ``dom`` is ``reach`` plus the
predominated set, and the moves are the bits of :func:`engine.playable`
of the two.  The 2-bit mover class has bit 1 set when Dominator moves
now and bit 0 when Dominator moves next.  The opening class is the
variant's entry in :data:`engine.OPENING_CLASS`; every variant alternates
after the opening exchange, so after any move or pass the class becomes
``2 if cls & 1 else 1``.  The memo is a transposition table of bounds
``(lo, hi)`` on the vertex moves still to come, keyed on the position
itself, packed into one int as
``((passes_left << 2 | cls) << n | reach) << n | dom`` with the pass
budget in the top field, since nothing bounds it.  The key needs no
N[S]: a stored bound answers before :func:`engine.playable` runs, and a
vertex child's key is built from ``reach | N[v]`` and ``dom | N[v]``.
``reach`` is empty only at the opening, so the key needs no started
flag.  No key names the variant, the pass budget or the predominated
set, and bounds hold for every window, so one search and its memo serve
every game on a graph.

The search is fail-soft alpha-beta (Dominator minimizes, Staller
maximizes).  A position not yet dominated needs at least one more move,
so a new entry starts at ``(1, NEVER)``; a search within a window
``(alpha, beta)`` tightens ``hi`` when it fails low, ``lo`` when it fails
high, and both when it lands inside.  A stored pair that settles the
window answers at once; otherwise it narrows the window before the
position is expanded again.  Dominator tries the moves that newly
dominate the most vertices first and Staller the fewest, lowest vertex
first on ties.

Before it searches any child, a node probes the entry of each vertex
child (an enhanced transposition cutoff), but only where a child's
stored bound can cut it off: at a Dominator node when ``alpha >= 2``,
since every child that does not end the game is worth at least 2 there,
by a child whose ``hi + 1 <= alpha``; at a Staller node when ``beta`` is
finite, by a child whose ``lo + 1 >= beta``.  Elsewhere a probe could
only cost a lookup.  A cutoff is stored in the node's entry, so every
stored bound follows from the entries of its children.  The pass child is
never probed.  One child alone is scored in place: a Dominator move that
dominates everything left makes the node exactly 1, stored as ``(1, 1)``
before any child is searched, a cut that changes what the memo holds.
Every other child is searched through :meth:`_Search.remaining`, whose
first two checks answer at once, with no counter or memo: 0 for a
Staller move that dominates everything left, and 1 for every other child
once the node's ``beta <= 2``.

An optimal move, from the engine's config and state, keeps a fixed
tie-break, the lowest vertex attaining the value and a pass only when
none does: after one full-window search for the value, each child is
tested with a null window, a search whose window holds no integer and
so only answers whether the child reaches the value.

:func:`optimal_move` keeps one search, memo included, per graph (labels
aside), so every game's replies on a graph share one memo, also when
games on other graphs come between them.  A ``functools.lru_cache`` keeps
the searches of the 32 most recently used graphs; the current one is the
most recent, so it is never dropped.

``solve`` is the production path; the engine steps its line, each action
through ``apply_move`` or ``apply_pass``.  ``solve_naive`` is a plain
recursion with its own copy of the move rule (a frontier of the played
vertices' neighbours), no memo and no pruning, to cross-check ``solve``.
``naive_values`` walks the same tree once for all eight oracle-sweep
configs of a predominated set: unpruned, the tree does not depend on who
moves, so each node returns its value for every mover and every number
of passes left.  It is what the oracle sweep runs.  ``solve_naive`` stays
the per-config reference: the tests compare the walk with it, and its
node counts, pass nodes included, bound the states the solver expands
on each config, which the shared walk's count cannot.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from typing import Iterable, NamedTuple

from .engine import (OPENING_CLASS, PASS, GameConfig, GameState, Player, Status, Variant,
                     apply_move, apply_pass, initial_state, mover, mover_at, playable, status)
from .graph import Graph, bits, closed_neighborhood_set

NEVER = math.inf

GameValue = float  # a nonnegative int, or NEVER


def format_value(value: GameValue) -> str:
    return "NEVER" if value == NEVER else str(int(value))


class BudgetExceeded(Exception):
    """Raised when a solve runs past its wall-clock deadline."""


class SolveReport(NamedTuple):
    """A solve's value, one optimal line and its search stats; immutable.
    ``states_expanded`` counts every expansion, including a position's
    re-expansion under a new window, so ``memo_entries`` can be lower;
    ``memo_hits`` counts the lookups whose stored bounds settled the
    window, a child's probed bound that cuts off its parent included (the
    parent still counts as expanded)."""
    value: GameValue
    principal_line: list[tuple[Player, int | str]]
    states_expanded: int = 0
    memo_hits: int = 0
    memo_entries: int = 0
    elapsed: float = 0.0


class _Search:
    """One alpha-beta search over a fixed graph.  The memo holds for every
    variant, pass budget and predominated set, since :meth:`remaining`
    takes them as the mover class, ``passes_left`` and inside ``dom``.
    The time budget, if any, runs from construction or :meth:`restart`."""

    def __init__(self, g: Graph, time_budget: float | None = None):
        self.g = g
        self.memo: dict[int, tuple[GameValue, GameValue]] = {}
        self.expanded = self.hits = 0
        self.restart(time_budget)

    def restart(self, time_budget: float | None) -> None:
        """Start the clock; the deadline is checked every 4096 expanded states."""
        self.start = time.monotonic()
        self.deadline = self.start + time_budget if time_budget is not None else None

    def remaining(self, reach: int, dom: int, passes_left: int, cls: int,
                  alpha: GameValue = -1, beta: GameValue = NEVER) -> GameValue:
        """Vertex moves still to come under optimal play, fail-soft within
        the window ``(alpha, beta)``: a result at or below ``alpha`` is an
        upper bound, one at or above ``beta`` a lower bound, and one
        strictly between them exact, so the default full window gives the
        exact value.  ``dom`` is ``reach`` plus the predominated set, and
        ``cls`` the mover class."""
        g = self.g
        full = g.full_mask
        if dom == full:
            return 0
        if beta <= 1:  # an undominated position needs a move, or is NEVER
            return 1
        n = g.n
        key = ((passes_left << 2 | cls) << n | reach) << n | dom
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
        live = playable(g, reach, dom)
        if not live:
            return NEVER
        if alpha < lo:
            alpha = lo
        if beta > hi:
            beta = hi
        self.expanded += 1
        if self.deadline is not None and self.expanded % 4096 == 1:
            if time.monotonic() > self.deadline:
                raise BudgetExceeded
        dominator = cls & 2
        after = 2 if cls & 1 else 1
        head = (passes_left << 2 | after) << n  # the top of every vertex child's key
        closed = g.closed
        probe = alpha >= 2 if dominator else beta < NEVER  # can a child's bound cut?
        # Dominator tries the moves that newly dominate the most first,
        # Staller the fewest; each packed as rank << 6 | v, so ties go to
        # the lowest vertex
        undom = full & ~dom
        left = undom.bit_count()
        order = []
        moves = live
        while moves:
            low = moves & -moves
            moves ^= low
            v = low.bit_length() - 1
            near = closed[v]
            gain = (near & undom).bit_count()
            if dominator and gain == left:  # v dominates everything left
                memo[key] = (1, 1)
                return 1
            if probe:
                entry = memo.get((head | reach | near) << n | dom | near)
                if entry is not None:
                    if dominator:
                        if entry[1] < alpha:
                            self.hits += 1
                            memo[key] = (lo, entry[1] + 1)
                            return entry[1] + 1
                    elif entry[0] + 1 >= beta:
                        self.hits += 1
                        memo[key] = (entry[0] + 1, hi)
                        return entry[0] + 1
            order.append((64 - gain if dominator else gain) << 6 | v)
        order.sort()
        window_lo, window_hi = alpha, beta
        if dominator:
            best = NEVER
            for m in order:
                near = closed[m & 63]
                child = 1 + self.remaining(reach | near, dom | near, passes_left, after,
                                           alpha - 1, beta - 1)
                if child < best:
                    best = child
                    if best <= alpha:
                        break
                    if best < beta:
                        beta = best
        else:
            best = 0  # below every child, as each is at least 1
            for m in order:
                near = closed[m & 63]
                child = 1 + self.remaining(reach | near, dom | near, passes_left, after,
                                           alpha - 1, beta - 1)
                if child > best:
                    best = child
                    if best >= beta:
                        break
                    if best > alpha:
                        alpha = best
            if best < beta and passes_left > 0:
                child = self.remaining(reach, dom, passes_left - 1, after, alpha, beta)
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

    def best_action(self, cfg: GameConfig, st: GameState) -> int | str:
        """Value-achieving action at the engine's state ``st``: lowest
        playable vertex first, pass only if no vertex attains the value.
        One full-window search finds the value, then a null window around
        it tests each child in turn."""
        g = self.g
        reach = closed_neighborhood_set(g, st.played)
        dom = reach | cfg.predominated
        moves = playable(g, reach, dom)
        if not moves:
            raise ValueError("no legal action: the game is over")
        passes_left = st.passes_left
        if st.played or passes_left < cfg.pass_budget:  # past the opening, play alternates
            cls = 2 if mover(cfg, st) is Player.DOMINATOR else 1
        else:
            cls = OPENING_CLASS[cfg.variant]
        target = self.remaining(reach, dom, passes_left, cls)
        staller = not cls & 2
        after = 2 if cls & 1 else 1
        # windows on a vertex child's remaining moves, which attains the
        # target when it equals t = target - 1
        if target == NEVER:
            alpha, beta = g.n, NEVER  # a finite remaining is at most n
        elif staller:  # every child is at most t: is it at least t?
            alpha, beta = target - 2, target - 1
        else:  # every child is at least t: is it at most t?
            alpha, beta = target - 1, target
        # a child attains at or above beta, except Dominator's below it
        high = staller or target == NEVER
        closed = g.closed
        for v in bits(moves):
            child = self.remaining(reach | closed[v], dom | closed[v], passes_left, after,
                                   alpha, beta)
            if (child >= beta) == high:
                return v
        # a pass keeps the move count, so its window is one higher
        if (staller and passes_left > 0 and self.remaining(
                reach, dom, passes_left - 1, after, alpha + 1, beta + 1) >= target):
            return PASS
        raise ValueError("no legal action from this state")


def solve(g: Graph, cfg: GameConfig, time_budget: float | None = None) -> SolveReport:
    """Exact optimal value with one optimal line of play and search stats.

    Raises :class:`BudgetExceeded` when ``time_budget`` (seconds) runs out.
    """
    cfg.validate_for(g)
    search = _Search(g, time_budget)
    value = search.remaining(0, cfg.predominated, cfg.pass_budget, OPENING_CLASS[cfg.variant])
    line, st = [], initial_state(cfg)
    while status(g, cfg, st) is Status.ONGOING:
        action = search.best_action(cfg, st)
        line.append((mover(cfg, st), action))
        st = apply_pass(cfg, st) if action == PASS else apply_move(g, cfg, st, action)
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
    whose memo they all share; ``time_budget`` applies to each solve.  The
    union of the sets is checked before the first solve."""
    sets = list(predominated_sets)
    GameConfig(variant, pass_budget, functools.reduce(operator.or_, sets, 0)).validate_for(g)
    search, cls = _Search(g), OPENING_CLASS[variant]
    values = []
    for pre in sets:
        search.restart(time_budget)
        values.append(search.remaining(0, pre, pass_budget, cls))
    return values


@functools.lru_cache(maxsize=32)
def _kept_search(g: Graph) -> _Search:
    """:func:`optimal_move`'s search on ``g``, one per graph (labels aside)."""
    return _Search(g)


def optimal_move(g: Graph, cfg: GameConfig, st: GameState) -> int | str:
    """A minimax-optimal action for the mover at ``st``; ties broken by
    smallest vertex index with pass considered last.  The game must be
    ongoing: a won or stuck position raises ``ValueError``.  One search,
    memo included, is kept per graph (labels aside) whatever the config,
    so a graph that comes back reuses what every earlier reply on it
    found; :func:`_kept_search` keeps the 32 most recently used."""
    cfg.validate_for(g)
    return _kept_search(g).best_action(cfg, st)


@functools.lru_cache(maxsize=64)
def _dominator_next(variant: Variant, length: int) -> tuple[bool, ...]:
    """Whether Dominator moves after ``made`` moves and passes, for each made < length."""
    return tuple(mover_at(variant, made + 1) is Player.DOMINATOR for made in range(length))


def solve_naive(g: Graph, cfg: GameConfig, stats: dict | None = None,
                time_budget: float | None = None) -> GameValue:
    """Reference oracle: bare recursive minimax, no memo, no pruning.

    Its own copy of the move rule: after the opening pick, a move is a
    vertex of the frontier (the union of the played vertices' neighbours,
    carried down with the dominated set) that dominates something new.
    A move that dominates all that is left is counted and scored in place,
    and each node keeps a running best.  Shares nothing with :func:`solve`
    beyond the graph and ``mover_at``.  ``stats``, when given, receives
    the node count.  Raises :class:`BudgetExceeded` once ``time_budget``
    seconds have passed, checking the clock once per 4096 nodes.
    """
    cfg.validate_for(g)
    adj, closed, full = g.adj, g.closed, g.full_mask
    budget = cfg.pass_budget
    # passes come only in d and s, which alternate, so a game holds at most
    # one more pass than Dominator moves: n + 1 passes at most
    dominator_next = _dominator_next(cfg.variant, g.n + min(budget, g.n + 1) + 1)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    nodes = 0
    check_at = 4096

    def recurse(played: int, front: int, dom: int, moves: int, passes_used: int) -> GameValue:
        nonlocal nodes, check_at
        nodes += 1
        if nodes >= check_at:
            check_at += 4096
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded
        undom = full & ~dom
        if not undom:
            return moves
        minimize = dominator_next[moves + passes_used]
        best = NEVER if minimize else -1  # Staller's -1: no child yet
        rest = front & ~played if played else full
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            new = closed[v] & undom
            if new:
                if new == undom:
                    nodes += 1
                    value = moves + 1
                else:
                    value = recurse(played | low, front | adj[v], dom | new,
                                    moves + 1, passes_used)
                if (value < best) if minimize else (value > best):
                    best = value
        if not minimize and best >= 0 and passes_used < budget:
            best = max(best, recurse(played, front, dom, moves, passes_used + 1))
        return NEVER if best < 0 else best

    result = recurse(0, 0, cfg.predominated, 0, 0)
    if stats is not None:
        stats["nodes"] = nodes
    return result


#: the (variant, pass budget) combinations the oracle sweep covers: the
#: keys of :func:`naive_values`, in the sweep's order
ORACLE_CONFIGS = ((Variant.DOMINATOR_START, 0), (Variant.DOMINATOR_START, 1),
                  (Variant.DOMINATOR_START, 2), (Variant.STALLER_START, 0),
                  (Variant.STALLER_START, 1), (Variant.STALLER_START, 2),
                  (Variant.STALLER_SKIPS_FIRST, 0), (Variant.DOMINATOR_SKIPS_FIRST, 0))


def naive_values(g: Graph, predominated: int, stats: dict | None = None,
                 time_budget: float | None = None) -> dict[tuple[Variant, int], GameValue]:
    """Reference oracle for every config of :data:`ORACLE_CONFIGS` at once:
    the value of each, keyed by ``(variant, pass budget)``.

    With no memo and no pruning the tree of legal move sequences does not
    depend on who moves, so one walk of it scores every config.  It keeps
    :func:`solve_naive`'s move rule and node count; every child, won ones
    too, goes through the walk, which reads the clock every 4096th node.
    A node returns the vertex moves still to come in the sweep's order:
    for each number ``b`` of passes left, 0 to 2, ``D[b]`` with Dominator
    to move, ``1 +`` the least ``S[b]`` of its children, and ``S[b]`` with
    Staller to move, ``1 +`` the greatest ``D[b]`` of its children or,
    when ``b > 0``, a pass to the node's own ``D[b - 1]``; then ``DD`` and
    ``SS``, where the mover moves twice before play alternates, ``1 +``
    the least ``D[0]`` and the greatest ``S[0]`` of its children.  So the
    root's entries are the values of ``d``/k, ``s``/k, ``dd`` and ``ss``.
    A node with no vertex move is NEVER throughout, so a stuck Staller
    never passes.
    """
    GameConfig(predominated=predominated).validate_for(g)
    adj, closed, full = g.adj, g.closed, g.full_mask
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    nodes = 0
    won = (0,) * 8  # a won node: every child, won or not, goes through walk

    def walk(played: int, front: int, dom: int) -> tuple[GameValue, ...]:
        """``(D[0], D[1], D[2], S[0], S[1], S[2], DD, SS)`` after ``played``."""
        nonlocal nodes
        nodes += 1
        if not nodes & 4095 and deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded
        undom = full & ~dom
        if not undom:
            return won
        d0 = d1 = d2 = dd = NEVER
        s0 = s1 = s2 = ss = -1  # no child yet
        rest = front & ~played if played else full
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            new = closed[v] & undom
            if not new:
                continue
            c0, c1, c2, c3, c4, c5, _, _ = walk(played | low, front | adj[v], dom | new)
            if c3 < d0:
                d0 = c3
            if c4 < d1:
                d1 = c4
            if c5 < d2:
                d2 = c5
            if c0 < dd:
                dd = c0
            if c0 > s0:
                s0 = c0
            if c1 > s1:
                s1 = c1
            if c2 > s2:
                s2 = c2
            if c3 > ss:
                ss = c3
        if s0 < 0:
            return (NEVER,) * 8
        return (d0 + 1, d1 + 1, d2 + 1, s0 + 1, max(s1, d0) + 1, max(s2, d1) + 1,
                dd + 1, ss + 1)

    values = dict(zip(ORACLE_CONFIGS, walk(0, 0, predominated)))
    if stats is not None:
        stats["nodes"] = nodes
    return values
