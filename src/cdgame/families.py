"""Deterministic generators for the named graph families used in the
verification suite, each with the labeling the analysis refers to.

Every generator returns an immutable :class:`~cdgame.graph.Graph`; labels
are attached where the suite addresses vertices by name (gadget spines,
ladders, the predomination example).  Each generator checks its vertex
count against the 64-vertex cap before it builds anything (``hamming``
through ``complete`` and ``cartesian_product``, which check each factor
and each product first).

``graph_from_spec`` reads the CLI family syntax, e.g. ``path:7``,
``fan:2,8``, ``lex:cycle:5,complete:2``.  Each tag is one entry of
``_FAMILIES`` (parameter count and generator) or ``_COMBINATORS`` (a
binary construction on two nested specs).
"""

from __future__ import annotations

import random
import re

from .graph import (Graph, cartesian_product, check_vertex_count, join,
                    lexicographic_product)


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    check_vertex_count(n)
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    check_vertex_count(n)
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    check_vertex_count(n)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star(leaves: int) -> Graph:
    """Hub at index 0 with the given number of leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    check_vertex_count(leaves + 1)
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def doubling_gadget(n: int) -> Graph:
    """Spine u0..un with a pendant cell x_i-y_i-z_i on each interior rung.

    Cell i hangs between u_i and u_{i+1}: u_i-x_i, the cell path
    x_i-y_i-z_i, and u_{i+1} adjacent to all of x_i, y_i, z_i.  The
    Staller-start game on this family takes exactly twice as many moves
    as the Dominator-start game, which is the extreme ratio.
    """
    if n < 2:
        raise ValueError("doubling gadget needs n >= 2")
    check_vertex_count(4 * n - 2)
    labels = [f"u{i}" for i in range(n + 1)]
    labels += [f"x{i}" for i in range(1, n)]
    labels += [f"y{i}" for i in range(1, n)]
    labels += [f"z{i}" for i in range(1, n)]
    x0 = n + 1
    y0 = x0 + (n - 1)
    z0 = y0 + (n - 1)
    edges = [(i, i + 1) for i in range(n)]
    for i in range(1, n):
        x, y, z = x0 + i - 1, y0 + i - 1, z0 + i - 1
        edges += [(i, x), (x, y), (y, z), (i + 1, x), (i + 1, y), (i + 1, z)]
    return Graph.from_edges(4 * n - 2, edges, labels)


def _fan_chain_parts(blocks: int, n: int, per_block: int):
    # The rims of consecutive fans share an end vertex, so the whole rim
    # is one path; hub j spans local rim 1..n-1 of its block.  Each block
    # adds per_block vertices after the rim.
    per = n - 1
    rim_count = per + (per - 1) * (blocks - 1)
    check_vertex_count(rim_count + per_block * blocks)
    rim_edges = [(m, m + 1) for m in range(rim_count - 1)]
    hub_edges = []
    for j in range(blocks):
        hub = rim_count + j
        lo = j * (per - 1)
        hub_edges += [(hub, lo + t) for t in range(per)]
    return rim_count, rim_edges + hub_edges


def fan_chain(i: int, n: int = 8) -> Graph:
    """Chain of i fans on n vertices each, consecutive fans sharing a rim
    end vertex.  Rim vertices are labeled r1.. left to right, hubs h1..hi."""
    if i < 1:
        raise ValueError("fan chain needs i >= 1")
    if n < 7:
        raise ValueError("fan chain needs fans on n >= 7 vertices")
    rim_count, edges = _fan_chain_parts(i, n, 1)
    labels = [f"r{m + 1}" for m in range(rim_count)] + [f"h{j + 1}" for j in range(i)]
    return Graph.from_edges(rim_count + i, edges, labels)


def hat_chain(i: int) -> Graph:
    """Chain of i+1 hatted fans on 8 vertices: each block is a fan plus a
    degree-2 "hat" vertex over its 3rd and 4th rim vertices."""
    if i < 0:
        raise ValueError("hat chain needs i >= 0")
    blocks = i + 1
    rim_count, edges = _fan_chain_parts(blocks, 8, 2)
    hat0 = rim_count + blocks
    for j in range(blocks):
        lo = j * 6
        edges += [(hat0 + j, lo + 2), (hat0 + j, lo + 3)]
    labels = [f"r{m + 1}" for m in range(rim_count)]
    labels += [f"h{j + 1}" for j in range(blocks)]
    labels += [f"w{j + 1}" for j in range(blocks)]
    return Graph.from_edges(hat0 + blocks, edges, labels)


def circular_ladder(n: int) -> Graph:
    """C_n box K_2 with vertices labeled (i,j), i in 1..n, j in 1..2."""
    if n < 3:
        raise ValueError("circular ladder needs n >= 3")
    check_vertex_count(2 * n)
    edges = []
    for a in range(n):
        b = (a + 1) % n
        edges += [(2 * a, 2 * b), (2 * a + 1, 2 * b + 1), (2 * a, 2 * a + 1)]
    labels = [f"({a + 1},{j + 1})" for a in range(n) for j in range(2)]
    return Graph.from_edges(2 * n, edges, labels)


def mobius_ladder(n: int) -> Graph:
    """C_{2n} plus the n chords between opposite vertices."""
    if n < 3:
        raise ValueError("Mobius ladder needs n >= 3")
    check_vertex_count(2 * n)
    edges = [(v, (v + 1) % (2 * n)) for v in range(2 * n)]
    edges += [(v, v + n) for v in range(n)]
    return Graph.from_edges(2 * n, edges)


def hamming(*dims: int) -> Graph:
    """Cartesian product of complete graphs, left associative."""
    if not dims:
        raise ValueError("hamming graph needs at least one dimension")
    if any(d < 2 for d in dims):
        raise ValueError("hamming dimensions must be >= 2")
    g = complete(dims[0])
    for d in dims[1:]:
        g = cartesian_product(g, complete(d))
    return g


def predomination_penalty_graph() -> Graph:
    """The 11-vertex graph on which predominating vertex c makes the
    Dominator-start game one move longer: path a'-a-b-c-d-e-f-g-g' with a
    square e-e'-f'-f hanging off the middle."""
    labels = ["a'", "a", "b", "c", "d", "e", "e'", "f", "f'", "g", "g'"]
    ix = {name: i for i, name in enumerate(labels)}
    chain = ["a'", "a", "b", "c", "d", "e", "f", "g", "g'"]
    edges = [(ix[u], ix[v]) for u, v in zip(chain, chain[1:])]
    edges += [(ix["e"], ix["e'"]), (ix["e'"], ix["f'"]), (ix["f'"], ix["f"])]
    return Graph.from_edges(11, edges, labels)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree from a seeded Pruefer-sequence draw."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    check_vertex_count(n)
    if n == 1:
        return Graph(1, [0])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = (v for v in range(n) if degree[v] == 1)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# CLI family-spec syntax

class FamilySpecError(ValueError):
    """Malformed family spec; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# tag -> (parameter count, generator); hamming's count None means one or more
_FAMILIES = {
    "path": (1, path), "cycle": (1, cycle), "complete": (1, complete),
    "star": (1, star), "gn": (1, doubling_gadget), "fan": (2, fan_chain),
    "hat": (1, hat_chain), "cl": (1, circular_ladder), "ml": (1, mobius_ladder),
    "hamming": (None, hamming), "tree": (2, random_tree),
    "fig3": (0, predomination_penalty_graph),
}
_COMBINATORS = {"lex": lexicographic_product, "cart": cartesian_product, "join": join}
# an integer, an alphanumeric tag (digits allowed after the first character,
# as in fig3), or any other single character
_TOKEN = re.compile(r"(?P<int>-?\d+)|(?P<tag>[^\W_]+)|.", re.DOTALL)


def graph_from_spec(text: str) -> Graph:
    """Parse and build a family spec like ``cl:5`` or ``lex:path:3,path:4``.

    The whole spec is parsed before any generator runs, so a syntax error
    anywhere is reported ahead of a parameter a generator rejects.
    """
    text = text.strip()
    tokens = [(m.lastgroup or m.group(), m.group(), m.start())
              for m in _TOKEN.finditer(text)] + [("end", "", len(text))]
    pos = 0

    def take(kind: str, what: str) -> tuple[str, int]:
        nonlocal pos
        got, token, at = tokens[pos]
        if got != kind:
            raise FamilySpecError(f"expected {what}", at)
        pos += 1
        return token, at

    def spec():
        tag, at = take("tag", "a family tag")
        if tag in _COMBINATORS:
            take(":", "':'")
            left = spec()
            take(",", "','")
            right = spec()
            return lambda: _COMBINATORS[tag](left(), right())
        if tag not in _FAMILIES:
            raise FamilySpecError(f"unknown family tag {tag!r}", at)
        count, make = _FAMILIES[tag]
        args = []
        # hamming's dimensions bind greedily while ',' is followed by an integer
        while len(args) < (1 if count is None else count) or (
                count is None and tokens[pos][0] == "," and tokens[pos + 1][0] == "int"):
            sep = "," if args else ":"
            take(sep, repr(sep))
            args.append(int(take("int", "an integer parameter")[0]))
        return lambda: make(*args)

    build = spec()
    if tokens[pos][0] != "end":
        raise FamilySpecError("trailing characters after family spec", tokens[pos][2])
    return build()
