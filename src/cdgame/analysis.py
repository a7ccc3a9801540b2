"""Claim-level checkers: each turns solver output into pass/fail records.

A :class:`ClaimResult` pairs an expected value with an observed one and
passes only on exact match.  The named suite groups the claims the
verification harness runs: exact path/cycle/ladder/product values, the
small-value and diameter characterizations, the Staller-start and
skip/pass sandwiches over a graph corpus, predomination behavior, and
the solver-vs-oracle agreement sweep.  The corpus claims are predicates
over one table of per-graph game values, filled on demand, so a suite
run solves each value of each corpus graph at most once.

``predomination_scan`` is the search tool for the open questions about
vertices whose predomination shifts the game value; it reports findings
and never claims (non-)existence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from typing import Any, Callable, Iterable

from . import families
from .engine import GameConfig, Variant
from .graph import (Graph, bits, diameter, has_universal_vertex, is_complete,
                    is_join_some_noncomplete, is_join_two_noncomplete,
                    lexicographic_product, read_graph6_file)
from .solver import (NEVER, BudgetExceeded, GameValue, game_value, game_values,
                     is_never, solve_naive)

PASS, FAIL, BUDGET = "pass", "fail", "budget-exceeded"

Solver = Callable[..., GameValue]  # game_value, or it with a time budget bound


@dataclass
class ClaimResult:
    claim: str
    instance: str
    expected: Any
    observed: Any
    verdict: str
    elapsed: float = 0.0

    def to_record(self) -> dict:
        return {
            "claim": self.claim,
            "instance": self.instance,
            "expected": _jsonable(self.expected),
            "observed": _jsonable(self.observed),
            "verdict": self.verdict,
            "elapsed": round(self.elapsed, 6),
        }


def _jsonable(value):
    if isinstance(value, float) and is_never(value):
        return "never"
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _claim(claim: str, instance: str, expected, observed, elapsed: float = 0.0) -> ClaimResult:
    verdict = PASS if expected == observed else FAIL
    return ClaimResult(claim, instance, expected, observed, verdict, elapsed)


def _over_budget(claim: str, instance: str, expected, start: float) -> ClaimResult:
    """The record of a claim whose solve ran past the time budget."""
    return ClaimResult(claim, instance, expected, "budget exceeded", BUDGET,
                       time.monotonic() - start)


def _timed_claim(claim: str, instance: str, expected,
                 compute: Callable[[], Any]) -> ClaimResult:
    start = time.monotonic()
    try:
        observed = compute()
    except BudgetExceeded:
        return _over_budget(claim, instance, expected, start)
    return _claim(claim, instance, expected, observed, time.monotonic() - start)


def load_corpus(path=None) -> list[Graph]:
    """Graphs from a graph6 corpus file; the bundled corpus by default."""
    if path is None:
        ref = resources.files("cdgame").joinpath("data/graphs7.g6")
        with resources.as_file(ref) as real:
            return read_graph6_file(real)
    return read_graph6_file(path)


# ---------------------------------------------------------------------------
# individual checkers

def check_gadget_family(n: int, value: Solver = game_value) -> list[ClaimResult]:
    """Doubling gadget: d-game n, s-game 2n, the extreme s/d ratio."""
    g = families.doubling_gadget(n)
    instance = f"gn:{n}"
    expected = {"gadget/d": n, "gadget/s": 2 * n, "gadget/ratio": True}
    start = time.monotonic()
    try:
        d = value(g)
        s = value(g, Variant.STALLER_START)
    except BudgetExceeded:
        return [_over_budget(claim, instance, e, start) for claim, e in expected.items()]
    elapsed = time.monotonic() - start
    return [_claim(claim, instance, e, observed, elapsed)
            for (claim, e), observed in zip(expected.items(), (d, s, s == 2 * d))]


def check_lexicographic(g: Graph, h: Graph, g_name: str, h_name: str,
                        value: Solver = game_value) -> list[ClaimResult]:
    """Exact composition values of g[h] for both starting players, plus the
    two-sided range bound for the Dominator-start game when it applies.
    Past the time budget the two case claims are reported with no expected
    value, since the expectations are solved too."""
    if g.n * h.n > 20:
        raise ValueError("direct product solving is limited to 20 vertices")
    instance = f"lex:{g_name},{h_name}"
    start = time.monotonic()
    try:
        gd = value(g)
        hd = value(h)
        g_skip = value(g, Variant.STALLER_SKIPS_FIRST)
        gs = value(g, Variant.STALLER_START)
        hs = value(h, Variant.STALLER_START)
        product = lexicographic_product(g, h)
        obs_d = value(product)
        obs_s = value(product, Variant.STALLER_START)
    except BudgetExceeded:
        return [_over_budget(claim, instance, None, start)
                for claim in ("lex/d-case", "lex/s-case")]
    elapsed = time.monotonic() - start

    if g.n == 1:
        expect_d = hd
    elif hd == 1:
        expect_d = gd
    else:
        expect_d = g_skip + 1

    if g.n == 1:
        expect_s = hs
    elif gs >= 2:
        expect_s = gs
    elif hs >= 2:
        expect_s = 2
    else:
        expect_s = hs

    claims = [
        _claim("lex/d-case", instance, expect_d, obs_d, elapsed),
        _claim("lex/s-case", instance, expect_s, obs_s, elapsed),
    ]
    if hd >= 2 and g.n >= 2:
        claims.append(_claim("lex/d-range", instance, True, gd <= obs_d <= gd + 2, elapsed))
    return claims


def check_ladders(n: int, value: Solver = game_value) -> list[ClaimResult]:
    """Circular and Mobius ladder values, plain and with every single
    vertex predominated (vertex-transitivity is checked, not assumed)."""
    claims = []
    for tag, g in (("circular", families.circular_ladder(n)),
                   ("mobius", families.mobius_ladder(n))):
        instance = f"{'cl' if tag == 'circular' else 'ml'}:{n}"
        claims.append(_timed_claim(f"ladder/{tag}", instance, 2 * (n - 2), lambda: value(g)))
        claims.append(_timed_claim(
            f"ladder/{tag}-predominated", instance, [2 * (n - 2) - 1] * g.n,
            lambda: [value(g, predominated=1 << v) for v in range(g.n)]))
    return claims


def cut_vertices(g: Graph) -> int:
    """Mask of articulation vertices, by the usual DFS low-link walk."""
    disc = [-1] * g.n
    low = [0] * g.n
    result = 0
    timer = 0

    def walk(u: int, parent: int):
        nonlocal timer, result
        disc[u] = low[u] = timer
        timer += 1
        children = 0
        for w in bits(g.adj[u]):
            if disc[w] == -1:
                children += 1
                walk(w, u)
                low[u] = min(low[u], low[w])
                if parent != -1 and low[w] >= disc[u]:
                    result |= 1 << u
            elif w != parent:
                low[u] = min(low[u], disc[w])
        if parent == -1 and children > 1:
            result |= 1 << u

    for v in range(g.n):
        if disc[v] == -1:
            walk(v, -1)
    return result


@dataclass
class ScanResult:
    """Per-vertex predomination survey of one graph."""
    instance: str
    value: GameValue
    per_vertex: list[GameValue] = field(default_factory=list)
    never_vertices: list[int] = field(default_factory=list)
    max_increase: int | None = None
    max_decrease: int | None = None
    all_vertices_shift: bool = False
    candidate: bool = False

    def to_record(self) -> dict:
        return {
            "instance": self.instance,
            "value": _jsonable(self.value),
            "per_vertex": [_jsonable(v) for v in self.per_vertex],
            "never_vertices": self.never_vertices,
            "max_increase": self.max_increase,
            "max_decrease": self.max_decrease,
            "all_vertices_shift": self.all_vertices_shift,
            "candidate": self.candidate,
        }


def predomination_scan(g: Graph, instance: str = "",
                       time_budget: float | None = None) -> ScanResult:
    """Survey the game value with each single vertex predominated.

    ``candidate`` flags graphs where every vertex shifts the value and at
    least one vertex strictly increases it; such graphs answer an open
    question, so they are reported, never asserted to (not) exist.  Stuck
    outcomes are listed separately and excluded from the shift extremes;
    when the base game itself is stuck, no vertex has a shift.  The n+1
    solves share one search and memo; ``time_budget`` applies to each.
    """
    base, *per_vertex = game_values(g, [0] + [1 << v for v in range(g.n)],
                                    time_budget=time_budget)
    nevers = [v for v, val in enumerate(per_vertex) if is_never(val)]
    shifts = [] if is_never(base) else [int(val - base) for val in per_vertex
                                        if not is_never(val)]
    max_inc = max(shifts, default=None)
    max_dec = max((-shift for shift in shifts), default=None)
    all_shift = not is_never(base) and all(val != base for val in per_vertex)
    candidate = all_shift and max_inc is not None and max_inc > 0
    return ScanResult(instance=instance, value=base, per_vertex=per_vertex,
                      never_vertices=nevers, max_increase=max_inc,
                      max_decrease=max_dec, all_vertices_shift=all_shift,
                      candidate=candidate)


# ---------------------------------------------------------------------------
# the corpus value table

@dataclass
class _Row:
    """Game values of one corpus graph, solved on first use and cached
    under the plain tuple ``(variant, k, pre)``."""
    g: Graph
    name: str
    time_budget: float | None
    values: dict[tuple[Variant, int, int], GameValue] = field(default_factory=dict)

    def value(self, variant: Variant = Variant.DOMINATOR_START, k: int = 0,
              pre: int = 0) -> GameValue:
        key = (variant, k, pre)
        if key not in self.values:
            self.values[key] = game_value(self.g, variant, k, pre, self.time_budget)
        return self.values[key]


def _small_values(row: _Row):
    """The four exact characterizations of game values 1 and 2."""
    g, d, s = row.g, row.value(), row.value(Variant.STALLER_START)
    yield "small-value/d-one", row.name, has_universal_vertex(g) == (d == 1)
    yield "small-value/s-one", row.name, is_complete(g) == (s == 1)
    yield "small-value/d-two", row.name, is_join_two_noncomplete(g) == (d == 2)
    yield "small-value/s-two", row.name, is_join_some_noncomplete(g) == (s == 2)


def _diameter_bounds(row: _Row):
    """diam(G) <= d-game value + 1 and diam(G) <= s-game value."""
    dia = diameter(row.g)
    yield "diameter/d-bound", row.name, dia <= row.value() + 1
    yield "diameter/s-bound", row.name, dia <= row.value(Variant.STALLER_START)


def _staller_start(row: _Row):
    """d - 1 <= s-game value <= 2d."""
    d, s = row.value(), row.value(Variant.STALLER_START)
    yield "staller-start/sandwich", row.name, d - 1 <= s <= 2 * d


def _skip(row: _Row):
    """Skip variants stay within one move of the plain games."""
    d, s = row.value(), row.value(Variant.STALLER_START)
    d_skip = row.value(Variant.STALLER_SKIPS_FIRST)
    s_skip = row.value(Variant.DOMINATOR_SKIPS_FIRST)
    yield "skip/d-sandwich", row.name, d - 1 <= d_skip <= d + 1
    yield "skip/s-sandwich", row.name, s - 1 <= s_skip <= s + 1


def _pass(row: _Row):
    """Pass budgets help Staller by at most one move each and never hurt her."""
    d, p1, p2 = row.value(), row.value(k=1), row.value(k=2)
    yield "pass/bound-k1", row.name, d <= p1 <= d + 1
    yield "pass/bound-k2", row.name, d <= p2 <= d + 2
    yield "pass/monotone", row.name, p1 <= p2


def _predomination(row: _Row):
    """Predominating a cut vertex never shortens the game, and some vertex
    predominates without lengthening it."""
    base = row.value()
    per_vertex = [row.value(pre=1 << v) for v in range(row.g.n)]
    for u in bits(cut_vertices(row.g)):
        yield "predomination/cut-vertex", f"{row.name}|{u}", per_vertex[u] >= base
    yield ("predomination/opening-not-worse", row.name,
           any(val <= base for val in per_vertex))


#: the (variant, pass budget) combinations the oracle sweep covers
ORACLE_CONFIGS = ((Variant.DOMINATOR_START, 0), (Variant.DOMINATOR_START, 1),
                  (Variant.DOMINATOR_START, 2), (Variant.STALLER_START, 0),
                  (Variant.STALLER_START, 1), (Variant.STALLER_START, 2),
                  (Variant.STALLER_SKIPS_FIRST, 0), (Variant.DOMINATOR_SKIPS_FIRST, 0))


def oracle_configs_for(g: Graph) -> list[GameConfig]:
    """Every oracle-sweep config for one graph: all variant/budget pairs,
    predominated ranging over the empty set and all singletons."""
    configs = []
    for variant, k in ORACLE_CONFIGS:
        for pre in [0] + [1 << v for v in range(g.n)]:
            configs.append(GameConfig(variant, k, pre))
    return configs


def _oracle(row: _Row):
    """The row's values, the ones every other corpus claim reads, agree
    with the naive oracle."""
    for cfg in oracle_configs_for(row.g):
        value = row.value(cfg.variant, cfg.pass_budget, cfg.predominated)
        yield ("oracle/agreement",
               f"{row.name}/{cfg.variant.value}/k{cfg.pass_budget}/p{cfg.predominated}",
               value == solve_naive(row.g, cfg))


#: the corpus claims of each group that has them, in record order, and the
#: predicate yielding ``(claim, instance, holds)`` for one table row
_CORPUS_CLAIMS: dict[str, tuple[tuple[str, ...], Callable[[_Row], Iterable]]] = {
    "small-values": (("small-value/d-one", "small-value/d-two",
                      "small-value/s-one", "small-value/s-two"), _small_values),
    "diameter": (("diameter/d-bound", "diameter/s-bound"), _diameter_bounds),
    "staller-start": (("staller-start/sandwich",), _staller_start),
    "skip": (("skip/d-sandwich", "skip/s-sandwich"), _skip),
    "pass": (("pass/bound-k1", "pass/bound-k2", "pass/monotone"), _pass),
    "predomination": (("predomination/cut-vertex",
                       "predomination/opening-not-worse"), _predomination),
    "oracle": (("oracle/agreement",), _oracle),
}


def _aggregate(claim: str, bad: list[str], elapsed: float) -> ClaimResult:
    observed = "0 violations" if not bad else f"{len(bad)} violations: " + ", ".join(bad[:5])
    return _claim(claim, "corpus", "0 violations", observed, elapsed)


def _corpus_claims(group: str, table: list[_Row]) -> list[ClaimResult]:
    """One aggregate record per corpus claim of ``group``, its predicate
    applied to every row.  A solve past the time budget reports each of
    the group's corpus claims as budget-exceeded."""
    claims, predicate = _CORPUS_CLAIMS[group]
    start = time.monotonic()
    bad: dict[str, list[str]] = {claim: [] for claim in claims}
    try:
        for row in table:
            for claim, instance, holds in predicate(row):
                if not holds:
                    bad[claim].append(instance)
    except BudgetExceeded:
        return [_over_budget(claim, "corpus", "0 violations", start) for claim in claims]
    elapsed = time.monotonic() - start
    return [_aggregate(claim, bad[claim], elapsed) for claim in claims]


# ---------------------------------------------------------------------------
# the named suite

def _group_paths_cycles(table, value) -> list[ClaimResult]:
    claims = []
    for n in range(3, 11):
        g = families.path(n)
        claims.append(_timed_claim("path/d", f"path:{n}", n - 2, lambda: value(g)))
        claims.append(_timed_claim("path/s", f"path:{n}", n - 1,
                                   lambda: value(g, Variant.STALLER_START)))
    for n in range(4, 9):
        g = families.cycle(n)
        claims.append(_timed_claim("cycle/d", f"cycle:{n}", n - 2, lambda: value(g)))
        claims.append(_timed_claim("cycle/predominated", f"cycle:{n}", [n - 3] * n,
                                   lambda: [value(g, predominated=1 << v) for v in range(n)]))
    return claims


def _group_small_values(table, value) -> list[ClaimResult]:
    return _corpus_claims("small-values", table)


def _group_diameter(table, value) -> list[ClaimResult]:
    claims = _corpus_claims("diameter", table)
    p8 = families.path(8)
    claims.append(_timed_claim("diameter/tight-d", "path:8", diameter(p8) - 1,
                               lambda: value(p8)))
    claims.append(_timed_claim("diameter/tight-s", "path:8", diameter(p8),
                               lambda: value(p8, Variant.STALLER_START)))
    return claims


def _group_hamming(table, value) -> list[ClaimResult]:
    claims = []
    for dims in ((2, 4), (2, 5)):
        g = families.hamming(*dims)
        instance = "hamming:" + ",".join(map(str, dims))
        claims.append(_timed_claim("hamming/d", instance, 3, lambda: value(g)))
        claims.append(_timed_claim("hamming/s", instance, 2,
                                   lambda: value(g, Variant.STALLER_START)))
    return claims


def _group_staller_start(table, value) -> list[ClaimResult]:
    claims = _corpus_claims("staller-start", table)
    for n in (2, 3, 4):
        claims.extend(check_gadget_family(n, value))
    return claims


def _group_skip(table, value) -> list[ClaimResult]:
    claims = _corpus_claims("skip", table)
    for n in range(3, 9):
        claims.append(_timed_claim(
            "skip/path", f"path:{n}", n - 2,
            lambda: value(families.path(n), Variant.STALLER_SKIPS_FIRST)))
    f2 = families.fan_chain(2, 8)
    claims.append(_timed_claim("fan/d", "fan:2,8", 3, lambda: value(f2)))
    claims.append(_timed_claim("skip/fan", "fan:2,8", 4,
                               lambda: value(f2, Variant.STALLER_SKIPS_FIRST)))
    h1 = families.hat_chain(1)
    claims.append(_timed_claim("hat/d", "hat:1", 6, lambda: value(h1)))
    claims.append(_timed_claim("skip/hat", "hat:1", 5,
                               lambda: value(h1, Variant.STALLER_SKIPS_FIRST)))
    return claims


def _group_pass(table, value) -> list[ClaimResult]:
    return _corpus_claims("pass", table)


_LEX_LEFT = ["path:2", "path:3", "path:4", "cycle:4", "cycle:5", "complete:2", "complete:3"]
_LEX_RIGHT = ["complete:1", "complete:2", "complete:3", "path:3", "path:4", "cycle:4"]


def _group_lexicographic(table, value) -> list[ClaimResult]:
    claims = []
    rights = [(h_name, families.graph_from_spec(h_name)) for h_name in _LEX_RIGHT]
    for g_name in _LEX_LEFT:
        g = families.graph_from_spec(g_name)
        for h_name, h in rights:
            if g.n * h.n <= 20:
                claims.extend(check_lexicographic(g, h, g_name, h_name, value))
    return claims


def _group_predomination(table, value) -> list[ClaimResult]:
    fig = families.predomination_penalty_graph()
    c = 1 << fig.vertex_by_label("c")
    claims = [
        _timed_claim("predomination/penalty-base", "fig3", 7, lambda: value(fig)),
        _timed_claim("predomination/penalty-shifted", "fig3|c", 8,
                     lambda: value(fig, predominated=c)),
    ]
    p5 = families.path(5)
    mid = 1 << 2
    interior = 0b01110
    claims.append(_timed_claim("predomination/path-stuck-s", "path:5|2", NEVER,
                               lambda: value(p5, Variant.STALLER_START, predominated=mid)))
    claims.append(_timed_claim("predomination/path-stuck-d", "path:5|1,2,3", NEVER,
                               lambda: value(p5, predominated=interior)))
    return claims + _corpus_claims("predomination", table)


def _group_ladders(table, value) -> list[ClaimResult]:
    claims = []
    for n in (4, 5, 6, 7):
        claims.extend(check_ladders(n, value))
    return claims


def _group_oracle(table, value) -> list[ClaimResult]:
    return _corpus_claims("oracle", table)


GROUPS: dict[str, Callable] = {
    "paths-cycles": _group_paths_cycles,
    "small-values": _group_small_values,
    "diameter": _group_diameter,
    "hamming": _group_hamming,
    "staller-start": _group_staller_start,
    "skip": _group_skip,
    "pass": _group_pass,
    "lexicographic": _group_lexicographic,
    "predomination": _group_predomination,
    "ladders": _group_ladders,
    "oracle": _group_oracle,
}


def run_suite(names: Iterable[str] | None = None, corpus: list[Graph] | None = None,
              time_budget: float = 60.0) -> list[ClaimResult]:
    """Run named claim groups (all of them by default) and collect results.

    Every solve runs under ``time_budget``; a claim whose solve runs past
    it is reported as budget-exceeded."""
    selected = list(names) if names is not None else list(GROUPS)
    unknown = [n for n in selected if n not in GROUPS]
    if unknown:
        raise ValueError(f"unknown claim groups: {', '.join(unknown)}")
    if corpus is None and any(n in _CORPUS_CLAIMS for n in selected):
        corpus = load_corpus()
    table = [_Row(g, f"corpus[{i}]", time_budget) for i, g in enumerate(corpus or [])]
    value = partial(game_value, time_budget=time_budget)
    results = []
    for name in selected:
        results.extend(GROUPS[name](table, value))
    return results
