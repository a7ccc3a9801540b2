"""Rules of the connected domination game: legal-move masks and transitions.

Two players, Dominator (minimizing the total number of vertex moves) and
Staller (maximizing it), alternately pick vertices.  Every pick must
dominate at least one vertex that nothing previously dominated, and must
be adjacent to an already played vertex (the very first vertex move is
exempt from the adjacency requirement).  The game ends when the played
set dominates everything, or sticks when undominated vertices remain but
no legal pick exists.

Variants change who moves on which turn; Staller may additionally hold a
pass budget, and a set of vertices may be predominated (counted as
dominated from the start but still playable).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graph import Graph, closed_neighborhood_set

PASS = "pass"


class Player(enum.Enum):
    DOMINATOR = "D"
    STALLER = "S"


class Variant(enum.Enum):
    DOMINATOR_START = "d"
    STALLER_START = "s"
    # Staller sits out the opening exchange: Dominator makes moves 1 and 2,
    # then strict alternation resumes.
    STALLER_SKIPS_FIRST = "dd"
    # Mirror image: Staller makes moves 1 and 2.
    DOMINATOR_SKIPS_FIRST = "ss"


#: variants that admit a nonzero Staller pass budget
PASS_VARIANTS = (Variant.DOMINATOR_START, Variant.STALLER_START)


def mover_at(variant: Variant, t: int) -> Player:
    """Player making the t-th move of the game (t >= 1, passes included)."""
    if t < 1:
        raise ValueError("turn index starts at 1")
    if variant is Variant.DOMINATOR_START:
        dom = t % 2 == 1
    elif variant is Variant.STALLER_START:
        dom = t % 2 == 0
    elif variant is Variant.STALLER_SKIPS_FIRST:
        dom = t <= 2 or t % 2 == 0
    else:
        dom = t > 2 and t % 2 == 1
    return Player.DOMINATOR if dom else Player.STALLER


@dataclass(frozen=True)
class GameConfig:
    """Which game is played: variant, Staller pass budget, predominated set."""
    variant: Variant = Variant.DOMINATOR_START
    pass_budget: int = 0
    predominated: int = 0

    def __post_init__(self):
        if self.pass_budget < 0:
            raise ValueError("pass budget must be nonnegative")
        if self.pass_budget > 0 and self.variant not in PASS_VARIANTS:
            raise ValueError("pass budget is only defined for the plain "
                             "Dominator-start and Staller-start games")
        if self.predominated < 0:
            raise ValueError("predominated set must be a nonnegative bitmask")

    def validate_for(self, g: Graph) -> None:
        if self.predominated & ~g.full_mask:
            raise ValueError("predominated set contains vertices outside the graph")


@dataclass(frozen=True)
class GameState:
    """Played set and remaining passes; everything else is derived."""
    played: int = 0
    passes_left: int = 0

    def moves_made(self) -> int:
        return self.played.bit_count()


def initial_state(cfg: GameConfig) -> GameState:
    return GameState(played=0, passes_left=cfg.pass_budget)


def mover_for(cfg: GameConfig, played: int, passes_left: int) -> Player:
    """Player about to move; the turn index counts moves and passes made."""
    return mover_at(cfg.variant, played.bit_count() + (cfg.pass_budget - passes_left) + 1)


def mover(cfg: GameConfig, st: GameState) -> Player:
    return mover_for(cfg, st.played, st.passes_left)


def dominated(g: Graph, cfg: GameConfig, st: GameState) -> int:
    """Everything dominated so far: N[played] plus the predominated set."""
    return closed_neighborhood_set(g, st.played) | cfg.predominated


def playable(g: Graph, reach: int, dom: int) -> int:
    """The legality rule, the one copy the engine and the solver share.

    The mask ``(reach if reach else full) & N[V - dom]`` of the legal
    picks, where ``reach`` is N[played] and ``dom`` the dominated set.
    N[V - dom], from the :func:`closed_neighborhood_set` kernel, holds the
    picks that dominate something new.  ``reach`` is empty only at the
    opening, which may pick any vertex.  No played p is in N[V - dom], as
    ``closed[p] <= reach <= dom``, so the rule needs no ``played``.
    """
    return (reach if reach else g.full_mask) & closed_neighborhood_set(g, g.full_mask & ~dom)


def legal_moves(g: Graph, cfg: GameConfig, st: GameState) -> int:
    """Mask of the :func:`playable` vertices at ``st``."""
    reach = closed_neighborhood_set(g, st.played)
    return playable(g, reach, reach | cfg.predominated)


class Status(enum.Enum):
    WON = "won"          # everything dominated; move count is moves_made()
    STUCK = "stuck"      # undominated vertices remain, no legal move exists
    ONGOING = "ongoing"


def status(g: Graph, cfg: GameConfig, st: GameState) -> Status:
    """A pass never rescues a stuck position: with no playable vertex for
    either player, remaining pass budget is irrelevant."""
    if dominated(g, cfg, st) == g.full_mask:
        return Status.WON
    if legal_moves(g, cfg, st) == 0:
        return Status.STUCK
    return Status.ONGOING


def apply_move(g: Graph, cfg: GameConfig, st: GameState, v: int) -> GameState:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
    if not legal_moves(g, cfg, st) & (1 << v):
        raise ValueError(f"illegal move: vertex {g.label(v)}")
    return GameState(played=st.played | (1 << v), passes_left=st.passes_left)


def apply_pass(cfg: GameConfig, st: GameState) -> GameState:
    if mover(cfg, st) is not Player.STALLER:
        raise ValueError("only Staller may pass")
    if st.passes_left <= 0:
        raise ValueError("no passes left")
    return GameState(played=st.played, passes_left=st.passes_left - 1)
