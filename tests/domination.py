"""Exact domination numbers by size-increasing subset search, induced
connectivity, and the vertex-list-to-mask helper the tests build sets with.

The package does not need these: the game's values come from the solver.
The tests use them as independent bounds (γ ≤ γc ≤ the game's value).
"""

from itertools import combinations
from typing import Iterable

from cdgame.graph import Graph, closed_neighborhood_set, is_connected


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def is_connected_induced(g: Graph, s: int) -> bool:
    """Whether the subgraph induced by the nonempty set ``s`` is connected,
    by a breadth-first search of its own."""
    if s == 0:
        raise ValueError("connectivity of the empty set is undefined")
    seen = frontier = s & -s
    while frontier:
        grow = 0
        for v in range(g.n):
            if frontier >> v & 1:
                grow |= g.adj[v]
        frontier = grow & s & ~seen
        seen |= frontier
    return seen == s


def _is_dominating(g: Graph, s: int) -> bool:
    return closed_neighborhood_set(g, s) == g.full_mask


def minimum_dominating_set(g: Graph) -> int:
    """Lexicographically first dominating set of minimum size, as a mask."""
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            s = mask_of(combo)
            if _is_dominating(g, s):
                return s
    raise AssertionError("unreachable: V(G) dominates G")


def minimum_connected_dominating_set(g: Graph) -> int:
    """Smallest connected dominating set (first in order); g must be connected."""
    if not is_connected(g):
        raise ValueError("connected domination requires a connected graph")
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            s = mask_of(combo)
            if _is_dominating(g, s) and is_connected_induced(g, s):
                return s
    raise AssertionError("unreachable: V(G) is a connected dominating set")


def domination_number(g: Graph) -> int:
    """Smallest size of a dominating set."""
    return minimum_dominating_set(g).bit_count()


def connected_domination_number(g: Graph) -> int:
    """Smallest size of a connected dominating set; requires g connected."""
    return minimum_connected_dominating_set(g).bit_count()
