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
from typing import NamedTuple

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


#: each variant's opening, as the 2-bit mover class of turn 1: bit 1 is set
#: when Dominator moves now and bit 0 when Dominator moves next; play
#: alternates after that
OPENING_CLASS = {Variant.DOMINATOR_START: 0b10, Variant.STALLER_START: 0b01,
                 Variant.STALLER_SKIPS_FIRST: 0b11, Variant.DOMINATOR_SKIPS_FIRST: 0b00}


def mover_at(variant: Variant, t: int) -> Player:
    """Player making the t-th move of the game (t >= 1, passes included):
    turn 1 is bit 1 of the opening class, and from turn 2 on Dominator
    moves on the even turns when bit 0 is set, on the odd turns when not."""
    if t < 1:
        raise ValueError("turn index starts at 1")
    cls = OPENING_CLASS[variant]
    dom = cls & 2 if t == 1 else (cls & 1) == (t % 2 == 0)
    return Player.DOMINATOR if dom else Player.STALLER


class GameConfig(NamedTuple("_ConfigFields", [("variant", Variant), ("pass_budget", int),
                                               ("predominated", int)])):
    """Which game is played: variant, Staller pass budget, predominated set.
    Immutable, with field-wise ``==`` and ``hash``; like any tuple it equals
    the plain tuple of its fields.  ``__new__`` checks every construction and,
    through ``__reduce__``, every unpickling; ``_replace`` and ``_make`` skip it."""
    __slots__ = ()

    def __reduce__(self):
        return GameConfig, tuple(self)

    def __new__(cls, variant: Variant = Variant.DOMINATOR_START, pass_budget: int = 0,
                predominated: int = 0):
        if not isinstance(variant, Variant):
            raise ValueError("variant must be a Variant")
        if not isinstance(pass_budget, int):
            raise ValueError("pass budget must be an int")
        if not isinstance(predominated, int):
            raise ValueError("predominated set must be an int bitmask")
        if pass_budget < 0:
            raise ValueError("pass budget must be nonnegative")
        if pass_budget > 0 and variant not in PASS_VARIANTS:
            raise ValueError("pass budget is only defined for the plain "
                             "Dominator-start and Staller-start games")
        if predominated < 0:
            raise ValueError("predominated set must be a nonnegative bitmask")
        return tuple.__new__(cls, (variant, pass_budget, predominated))

    def validate_for(self, g: Graph) -> None:
        if self.predominated & ~g.full_mask:
            raise ValueError("predominated set contains vertices outside the graph")


class GameState(NamedTuple):
    """Played set and remaining passes, immutable; everything else is derived."""
    played: int = 0
    passes_left: int = 0

    def moves_made(self) -> int:
        return self.played.bit_count()


def initial_state(cfg: GameConfig) -> GameState:
    return GameState(played=0, passes_left=cfg.pass_budget)


def mover(cfg: GameConfig, st: GameState) -> Player:
    """Player about to move; the turn index counts moves and passes made."""
    return mover_at(cfg.variant, st.played.bit_count() + (cfg.pass_budget - st.passes_left) + 1)


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
