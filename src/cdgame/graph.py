"""Simple undirected graphs on at most 64 vertices, stored as bit vectors.

A vertex set is a plain Python int used as a bitmask (bit v set means
vertex v is in the set), so set algebra is machine-word arithmetic and a
solver memo key is a tuple of ints.  A ``Graph`` is immutable: vertex
count ``n``, per-vertex adjacency masks, and optional display labels.

N[S] is read from tables a graph builds on first use: N[S] for every
subset S of each 8-vertex chunk, so a union costs one lookup per chunk.

Also provides the classical invariants the game analysis needs
(connectivity, diameter, join splits), the graph constructions
used to build test instances (join, Cartesian and lexicographic
products), and graph6 reading for corpus files.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit indices of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_vertex_count(n: int) -> None:
    """Reject a vertex count outside 1..MAX_VERTICES; generators call this
    before building anything, so an over-size request costs nothing."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


class Graph:
    """Immutable simple graph with bitmask adjacency.

    ``adj[v]`` is the open neighborhood of v as a mask, ``closed[v]``
    additionally includes v itself.  Adjacency is validated to be
    symmetric and loop-free on construction.
    """

    __slots__ = ("n", "adj", "closed", "full_mask", "labels", "_union_tables")

    def __init__(self, n: int, adj: Iterable[int], labels: Iterable[str] | None = None):
        check_vertex_count(n)
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency masks, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {v} has bits beyond index {n - 1}")
            if row & (1 << v):
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not adj[u] & (1 << v):
                    raise ValueError(f"adjacency not symmetric: {v}->{u} but not {u}->{v}")
        self.n = n
        self.adj = adj
        self.closed = tuple(row | (1 << v) for v, row in enumerate(adj))
        self.full_mask = full
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels must cover every vertex")
        self.labels = labels
        self._union_tables = None  # built by closed_neighborhood_set

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: Iterable[str] | None = None) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def vertex_by_label(self, name: str) -> int:
        """Resolve a display label (or a plain integer index) to a vertex.

        Accepts an underscore before a numeric suffix, so ``u_3`` finds a
        vertex labeled ``u3``.
        """
        if self.labels is not None:
            if name in self.labels:
                return self.labels.index(name)
            squashed = name.replace("_", "")
            if squashed in self.labels:
                return self.labels.index(squashed)
        try:
            v = int(name)
        except ValueError:
            raise KeyError(f"no vertex labeled {name!r}") from None
        if not 0 <= v < self.n:
            raise KeyError(f"vertex index {v} out of range 0..{self.n - 1}")
        return v

    def format_set(self, mask: int) -> str:
        return "{" + ",".join(self.label(v) for v in bits(mask)) + "}"

    def __eq__(self, other: object) -> bool:
        # labels are display-only and intentionally excluded
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# ---------------------------------------------------------------------------
# neighborhoods and basic invariants

def closed_neighborhood_set(g: Graph, s: int) -> int:
    """N[S] = union of N[v] over v in S; N[empty] is empty.  One table
    lookup per 8-vertex chunk of the graph."""
    out = 0
    for table in g._union_tables or _build_union_tables(g):
        out |= table[s & 255]
        s >>= 8
    return out


def _build_union_tables(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Per chunk of vertices 8c .. 8c + 7, N[S] for each subset S, indexed by
    S >> 8c; vertex v doubles the table as ``t[s | bit] = t[s] | closed[v]``."""
    tables = []
    for base in range(0, g.n, 8):
        table = [0]
        for row in g.closed[base:base + 8]:
            table += [union | row for union in table]
        tables.append(tuple(table))
    g._union_tables = tuple(tables)
    return g._union_tables


def _bfs_layers(adj: Sequence[int], start: int, within: int) -> Iterator[int]:
    """Breadth-first layers, as disjoint masks, from the vertex set ``start``
    (the first layer) through the vertices of ``within``; ``adj[v]`` is the
    neighbor mask of v."""
    seen = frontier = start
    while frontier:
        yield frontier
        grow = 0
        for v in bits(frontier):
            grow |= adj[v]
        frontier = grow & within & ~seen
        seen |= frontier


def is_connected_induced(g: Graph, s: int) -> bool:
    """Whether the subgraph induced by the nonempty set ``s`` is connected."""
    if s == 0:
        raise ValueError("connectivity of the empty set is undefined")
    return sum(_bfs_layers(g.adj, s & -s, s)) == s


def is_connected(g: Graph) -> bool:
    return is_connected_induced(g, g.full_mask)


def diameter(g: Graph) -> int:
    """Largest shortest-path distance; raises on a disconnected graph."""
    best = 0
    for v in range(g.n):
        layers = list(_bfs_layers(g.adj, 1 << v, g.full_mask))
        if sum(layers) != g.full_mask:
            raise ValueError("diameter is undefined on a disconnected graph")
        best = max(best, len(layers) - 1)
    return best


# ---------------------------------------------------------------------------
# constructions

def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every cross edge; g's vertices first."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join would have {n} > {MAX_VERTICES} vertices")
    h_block = ((1 << h.n) - 1) << g.n
    g_block = (1 << g.n) - 1
    rows = [g.adj[v] | h_block for v in range(g.n)]
    rows += [(h.adj[v] << g.n) | g_block for v in range(h.n)]
    return Graph(n, rows)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex (a, b) gets index a * |V(h)| + b."""
    n = g.n * h.n
    if n > MAX_VERTICES:
        raise ValueError(f"product would have {n} > {MAX_VERTICES} vertices")
    edges = []
    for a in range(g.n):
        for b in range(h.n):
            i = a * h.n + b
            for b2 in bits(h.adj[b]):
                if b2 > b:
                    edges.append((i, a * h.n + b2))
            for a2 in bits(g.adj[a]):
                if a2 > a:
                    edges.append((i, a2 * h.n + b))
    return Graph.from_edges(n, edges)


def lexicographic_product(g: Graph, h: Graph) -> Graph:
    """g[h]: copies of h substituted for g's vertices; copy of a is the
    contiguous index block a * |V(h)| .. a * |V(h)| + |V(h)| - 1."""
    n = g.n * h.n
    if n > MAX_VERTICES:
        raise ValueError(f"product would have {n} > {MAX_VERTICES} vertices")
    edges = []
    for a in range(g.n):
        base = a * h.n
        for b in range(h.n):
            for b2 in bits(h.adj[b]):
                if b2 > b:
                    edges.append((base + b, base + b2))
        for a2 in bits(g.adj[a]):
            if a2 > a:
                base2 = a2 * h.n
                for b in range(h.n):
                    for b2 in range(h.n):
                        edges.append((base + b, base2 + b2))
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# structure predicates

def is_complete(g: Graph) -> bool:
    return all(row.bit_count() == g.n - 1 for row in g.adj)


def has_universal_vertex(g: Graph) -> bool:
    return g.full_mask in g.closed


def _complement_components(g: Graph) -> list[int]:
    comp_adj = [g.full_mask & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    comps = []
    left = g.full_mask
    while left:
        comps.append(sum(_bfs_layers(comp_adj, left & -left, g.full_mask)))
        left &= ~comps[-1]
    return comps


# G = A v B iff A is a nonempty proper union of complement components.  A
# side induces a complete graph iff each of its components is one vertex
# (a larger component has a non-edge; distinct components are adjacent).

def is_join_two_noncomplete(g: Graph) -> bool:
    """Whether g splits as a join of two non-complete graphs."""
    return sum(c.bit_count() > 1 for c in _complement_components(g)) >= 2


def is_join_some_noncomplete(g: Graph) -> bool:
    """Whether g splits as a join with at least one non-complete side."""
    comps = _complement_components(g)
    return len(comps) >= 2 and any(c.bit_count() > 1 for c in comps)


# ---------------------------------------------------------------------------
# graph6 input (standard format, single-byte size field: n <= 62)

def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line into a Graph."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 line")
    data = [ord(ch) - 63 for ch in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("graph6 characters must be in the range 63..126")
    n = data[0]
    if n > 62:
        raise ValueError("only single-byte sizes (n <= 62) are supported")
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} groups, expected {need}")
    bitstream = 0
    for b in body:
        bitstream = (bitstream << 6) | b
    total = need * 6
    pad = total - nbits
    if pad and bitstream & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 body")
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bitstream >> (total - 1 - idx) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            idx += 1
    return Graph(n, rows)


def read_graph6_lines(path) -> list[tuple[int, str, Graph]]:
    """``(line number, text, graph)`` for every nonempty line of a graph6
    corpus file.  Each line is decoded on its own, so a non-ASCII byte,
    like a malformed line, raises ``ValueError`` naming ``path:line``."""
    entries = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii").strip()
                if line:
                    entries.append((lineno, line, parse_graph6(line)))
            except ValueError as exc:  # a UnicodeDecodeError is a ValueError
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return entries


def read_graph6_file(path) -> list[Graph]:
    """Parse every nonempty line of a graph6 corpus file."""
    return [g for _, _, g in read_graph6_lines(path)]
