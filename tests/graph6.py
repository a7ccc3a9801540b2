"""The graph6 encoder the tests write corpus files and round trips with.

The package only reads graph6; the tests need the inverse to build
corpus files and to check the reader against it and against networkx.
"""

from cdgame.graph import Graph


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as one graph6 line (inverse of parse_graph6)."""
    if g.n > 62:
        raise ValueError("only single-byte sizes (n <= 62) are supported")
    nbits = g.n * (g.n - 1) // 2
    need = (nbits + 5) // 6
    bitstream = 0
    for col in range(1, g.n):
        for row in range(col):
            bitstream = (bitstream << 1) | (g.adj[row] >> col & 1)
    bitstream <<= need * 6 - nbits
    out = [chr(g.n + 63)]
    for i in range(need - 1, -1, -1):
        out.append(chr((bitstream >> (6 * i) & 63) + 63))
    return "".join(out)
