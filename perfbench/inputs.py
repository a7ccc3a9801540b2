"""Seeded inputs for every workload, made with the standard library only.

Nothing here imports ``cdgame``: the inputs must not change when the
program under test changes, so two commits compared with the same seed
provably receive the same bytes (see :func:`digest`).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_CORPUS = ROOT / "src" / "cdgame" / "data" / "graphs7.g6"

#: graphs the engine plays on in play-replies; None is the seeded G(18, 0.25)
PLAY_GRAPHS = ("cl:8", "ml:8", "fan:3,8", "hamming:3,5", "cart:cycle:4,path:4",
               "cart:cycle:5,path:4", "cart:path:4,path:5", None)

#: verify-suite runs ``cdgame verify`` over every VERIFY_STRIDE-th graph of
#: the bundled corpus: 107 of the 853 graphs, so that a job takes about 2.5 s
#: and a run holds a dozen of them (the whole corpus takes 20 s, one sample a run)
VERIFY_STRIDE = 8

SCAN_RANDOM_GRAPHS = 156
PLAY_PASS_PROBABILITY = 0.3
PLAY_ROUNDS = 18


def rng(seed: int, purpose: str) -> random.Random:
    """An independent generator per purpose, so adding one input kind
    never shifts the draws of another."""
    return random.Random(f"{seed}/{purpose}")


def _connected(n: int, adj: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def connected_gnp(r: random.Random, n: int, p: float) -> list[int]:
    """Adjacency bitmasks of a connected G(n, p) graph, by rejection."""
    while True:
        adj = [0] * n
        for j in range(1, n):
            for i in range(j):
                if r.random() < p:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        if _connected(n, adj):
            return adj


def graph6(n: int, adj: list[int]) -> str:
    """Standard graph6 encoding (single-byte size, n <= 62)."""
    out, acc, k = [chr(n + 63)], 0, 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | (adj[i] >> j & 1)
            k += 1
            if k == 6:
                out.append(chr(acc + 63))
                acc, k = 0, 0
    if k:
        out.append(chr((acc << (6 - k)) + 63))
    return "".join(out)


def bundled_lines() -> list[str]:
    return [ln.strip() for ln in BUNDLED_CORPUS.read_text(encoding="ascii").splitlines()
            if ln.strip()]


def verify_corpus() -> list[str]:
    """The verify-suite corpus: a fixed, evenly spread eighth of the bundled
    corpus (graphs 0, 8, 16, ...).  It does not depend on the seed."""
    return bundled_lines()[::VERIFY_STRIDE]


def scan_corpus(seed: int) -> list[str]:
    """The bundled 853 lines followed by connected G(n, p) graphs with
    n in 11..16 and p in [0.15, 0.5], in seeded order.

    The draws are stratified: every n gets the same number of graphs and
    each graph's p is drawn from its own slice of [0.15, 0.5].  Solve cost
    grows steeply with n and falls with p, so plain independent draws make
    the corpus cost swing by a sixth from seed to seed; the strata keep
    the distribution and remove most of that swing."""
    lines = bundled_lines()
    r = rng(seed, "scan-corpus")
    sizes = range(11, 17)
    per_size = SCAN_RANDOM_GRAPHS // len(sizes)
    extra = []
    for n in sizes:
        for j in range(per_size):
            p = 0.15 + 0.35 * (j + r.random()) / per_size
            extra.append(graph6(n, connected_gnp(r, n, p)))
    r.shuffle(extra)
    return lines + extra


def play_games(seed: int) -> list[dict]:
    """``PLAY_ROUNDS`` rounds; each round plays both sides on every graph,
    plus the ``s`` variant with one pass where the engine plays Dominator.

    The replies that cost most are the early ones, so their positions are
    stratified rather than left to chance: where the opponent moves first,
    round k opens at the k-th vertex of a seeded permutation of the
    graph's vertices (``opening``), so the rounds open at distinct
    vertices.  Every round draws its own G(18, 0.25).  The engine makes
    the first move of the first game, so the time to its first reply does
    not depend on the opponent's draws.  ``script`` seeds the rest of the
    opponent's choices in that game."""
    r = rng(seed, "play-script")
    configs = (("d", 0, "D"), ("d", 0, "S"), ("s", 1, "D"))
    order = {(spec, c): r.getrandbits(32) for spec in PLAY_GRAPHS for c in configs}
    games = []
    for k in range(PLAY_ROUNDS):
        g18 = graph6(18, connected_gnp(r, 18, 0.25))
        for spec in PLAY_GRAPHS:
            source = {"family": spec, "graph6": None} if spec else {"family": None, "graph6": g18}
            for c in configs:
                variant, passes, engine = c
                games.append(dict(source, variant=variant, passes=passes, engine=engine,
                                  opening={"order": order[spec, c], "rank": k},
                                  script=r.getrandbits(32)))
    return games


def digest(obj) -> str:
    """Short hash of the generated inputs, recorded with every result."""
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
