"""Claim-level checkers: each turns solver output into pass/fail records.

A :class:`ClaimResult` pairs an expected value with an observed one and
passes only on exact match.  The named suite groups the claims the
verification harness runs: exact path/cycle/ladder/product values, the
small-value and diameter characterizations, the Staller-start and
skip/pass sandwiches over a graph corpus, predomination behavior, and
the solver-vs-oracle agreement sweep.  Each group is a generator that
yields a claim as soon as it is decided, so a caller can report it at
once.  Every claim reads its values from one table of per-graph rows:
a row per corpus graph, and a row per family spec (``path:8``,
``lex:cycle:5,complete:2``) for the named graphs, keyed by that spec,
which is also the instance of its claims (followed by ``|`` and vertex
labels when a set is predominated).  A read solves what its column lacks
in one search, so a suite run solves each value of each graph at most
once, and of a named graph only the values its claims read.

Every record comes from :func:`_records`: expected values in record
order against one timed ``observe`` call for the observed ones; a solve
past the time budget makes all of them budget-exceeded records.

``predomination_scan`` is the search tool for the open questions about
vertices whose predomination shifts the game value; it reports findings
and never claims (non-)existence.
"""

from __future__ import annotations

import os
import time
from functools import cache
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import families
from .engine import Variant
from .graph import (Graph, bits, cut_vertices, diameter, has_universal_vertex, is_complete,
                    is_join_some_noncomplete, is_join_two_noncomplete, read_graph6_file)
from .solver import (NEVER, ORACLE_CONFIGS, BudgetExceeded, GameValue, game_values, is_never,
                     naive_values)

PASS, FAIL, BUDGET = "pass", "fail", "budget-exceeded"


class ClaimResult(NamedTuple):
    """One claim's record; immutable, fields in record order."""
    claim: str
    instance: str
    expected: Any
    observed: Any
    verdict: str
    elapsed: float = 0.0

    def to_record(self) -> dict:
        record = {k: _jsonable(v) for k, v in self._asdict().items()}
        record["elapsed"] = round(self.elapsed, 6)
        return record


def _jsonable(value):
    if isinstance(value, float) and is_never(value):
        return "never"
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _records(instance: str, expected: dict[str, Any],
             observe: Callable[[], Iterable]) -> list[ClaimResult]:
    """One record per claim of ``expected`` (claim -> expected value, in
    record order), against the values ``observe()`` returns in that order.
    ``expected`` is read after ``observe`` returns, so a claim whose
    expectation is itself solved is added by ``observe``.  A solve past
    the time budget turns every claim of ``expected`` into a
    budget-exceeded record; each record carries the time of the whole call."""
    start = time.monotonic()
    try:
        observed = list(observe())
    except BudgetExceeded:
        return [ClaimResult(claim, instance, e, "budget exceeded", BUDGET,
                            time.monotonic() - start) for claim, e in expected.items()]
    elapsed = time.monotonic() - start
    return [ClaimResult(claim, instance, e, o, PASS if e == o else FAIL, elapsed)
            for (claim, e), o in zip(expected.items(), observed)]


def _timed_claim(claim: str, instance: str, expected,
                 compute: Callable[[], Any]) -> ClaimResult:
    return _records(instance, {claim: expected}, lambda: [compute()])[0]


def load_corpus(path=None) -> list[Graph]:
    """Graphs from a graph6 corpus file; the bundled corpus by default."""
    return read_graph6_file(os.path.join(os.path.dirname(__file__), "data", "graphs7.g6")
                            if path is None else path)


def _opening_sets(g: Graph) -> list[int]:
    """The empty set, then every singleton in vertex order."""
    return [0, *(1 << v for v in range(g.n))]


# ---------------------------------------------------------------------------
# the value table

class _Row:
    """Game values of one graph, named ``corpus[i]`` or by its family spec,
    by ``(variant, k)`` column and then predominated set.  A read solves
    the sets it asks for that the column lacks in one :func:`game_values`
    search, together with ``fills`` on a column's first read: the empty
    set, and in a corpus row every singleton too, since its oracle and
    predomination claims read them all.  A solve past ``time_budget``
    adds none of that search's sets."""

    def __init__(self, g: Graph, name: str, time_budget: float | None,
                 fills: Sequence[int] = (0,)):
        self.g, self.name, self.time_budget, self.fills = g, name, time_budget, fills
        self.columns: dict[tuple[Variant, int], dict[int, GameValue]] = {}

    def values(self, variant: Variant, k: int, sets: Sequence[int]) -> list[GameValue]:
        column = self.columns.setdefault((variant, k), {})
        wanted = sets if column else [*self.fills, *sets]
        missing = [p for p in dict.fromkeys(wanted) if p not in column]
        if missing:
            column.update(zip(missing, game_values(self.g, missing, variant, k, self.time_budget)))
        return [column[p] for p in sets]

    def value(self, variant: Variant = Variant.DOMINATOR_START, k: int = 0,
              pre: int = 0) -> GameValue:
        return self.values(variant, k, [pre])[0]

    def opening(self) -> list[GameValue]:
        """The plain game's values over :func:`_opening_sets`, in one read."""
        return self.values(Variant.DOMINATOR_START, 0, _opening_sets(self.g))


def _value_claim(claim: str, row: _Row, expected, variant: Variant = Variant.DOMINATOR_START,
                 pre: int = 0) -> ClaimResult:
    """One claimed value of a named row; the instance is the row's spec,
    followed by ``|`` and the labels of ``pre`` when a set is predominated."""
    labels = "|" + ",".join(map(row.g.label, bits(pre))) if pre else ""
    return _timed_claim(claim, row.name + labels, expected, lambda: row.value(variant, 0, pre))


class ScanResult(NamedTuple):
    """Per-vertex predomination survey of one graph; immutable, fields in
    record order."""
    value: GameValue
    per_vertex: list[GameValue]
    never_vertices: list[int]
    max_increase: int | None
    max_decrease: int | None
    all_vertices_shift: bool
    candidate: bool

    def to_record(self) -> dict:
        return {k: _jsonable(v) for k, v in self._asdict().items()}


def predomination_scan(g: Graph, time_budget: float | None = None) -> ScanResult:
    """Survey the game value with each single vertex predominated.

    ``candidate`` flags graphs where every vertex shifts the value and at
    least one vertex strictly increases it; such graphs answer an open
    question, so they are reported, never asserted to (not) exist.  Stuck
    outcomes are listed separately and excluded from the shift extremes;
    when the base game itself is stuck, no vertex has a shift.  The n+1
    solves are one :func:`game_values` call, so they share one search and
    memo; ``time_budget`` applies to each.
    """
    base, *per_vertex = game_values(g, _opening_sets(g), time_budget=time_budget)
    nevers = [v for v, val in enumerate(per_vertex) if is_never(val)]
    shifts = [] if is_never(base) else [int(val - base) for val in per_vertex
                                        if not is_never(val)]
    max_inc = max(shifts, default=None)
    max_dec = max((-shift for shift in shifts), default=None)
    all_shift = not is_never(base) and all(val != base for val in per_vertex)
    candidate = all_shift and max_inc is not None and max_inc > 0
    return ScanResult(value=base, per_vertex=per_vertex,
                      never_vertices=nevers, max_increase=max_inc,
                      max_decrease=max_dec, all_vertices_shift=all_shift,
                      candidate=candidate)


# ---------------------------------------------------------------------------
# the corpus claims

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
    base, *per_vertex = row.opening()
    for u in bits(cut_vertices(row.g)):
        yield "predomination/cut-vertex", f"{row.name}|{u}", per_vertex[u] >= base
    yield ("predomination/opening-not-worse", row.name,
           any(val <= base for val in per_vertex))


def _oracle(row: _Row):
    """The row's values, the ones every other corpus claim reads, agree
    with the naive oracle: one walk of the move tree per predominated set
    scores all of its configs, and the time budget bounds each walk.  Only
    the disagreements are yielded, one column at a time."""
    sets = _opening_sets(row.g)
    naive = [naive_values(row.g, pre, time_budget=row.time_budget) for pre in sets]
    for variant, k in ORACLE_CONFIGS:
        for pre, value, walk in zip(sets, row.values(variant, k, sets), naive):
            if value != walk[variant, k]:
                yield "oracle/agreement", f"{row.name}/{variant.value}/k{k}/p{pre}", False


def _corpus_claims(table: list[_Row], names: tuple[str, ...],
                   predicate: Callable[[_Row], Iterable]) -> list[ClaimResult]:
    """One aggregate record per claim of ``names``, in that order, over the
    ``(claim, instance, holds)`` triples ``predicate`` yields for each row."""
    def observe():
        bad: dict[str, list[str]] = {claim: [] for claim in names}
        for row in table:
            for claim, instance, holds in predicate(row):
                if not holds:
                    bad[claim].append(instance)
        return ["0 violations" if not b else f"{len(b)} violations: " + ", ".join(b[:5])
                for b in bad.values()]

    return _records("corpus", dict.fromkeys(names, "0 violations"), observe)


# ---------------------------------------------------------------------------
# the named suite

S, D_SKIP = Variant.STALLER_START, Variant.STALLER_SKIPS_FIRST


def _group_paths_cycles(table, named) -> Iterator[ClaimResult]:
    for n in range(3, 11):
        row = named(f"path:{n}")
        yield _value_claim("path/d", row, n - 2)
        yield _value_claim("path/s", row, n - 1, S)
    for n in range(4, 9):
        row = named(f"cycle:{n}")
        yield _timed_claim("cycle/d", row.name, n - 2, lambda: row.opening()[0])
        yield _timed_claim("cycle/predominated", row.name, [n - 3] * n, lambda: row.opening()[1:])


def _group_small_values(table, named) -> Iterator[ClaimResult]:
    yield from _corpus_claims(table(), ("small-value/d-one", "small-value/d-two",
                                        "small-value/s-one", "small-value/s-two"),
                              _small_values)


def _group_diameter(table, named) -> Iterator[ClaimResult]:
    yield from _corpus_claims(table(), ("diameter/d-bound", "diameter/s-bound"),
                              _diameter_bounds)
    p8 = named("path:8")
    dia = diameter(p8.g)
    yield _value_claim("diameter/tight-d", p8, dia - 1)
    yield _value_claim("diameter/tight-s", p8, dia, S)


def _group_hamming(table, named) -> Iterator[ClaimResult]:
    for spec in ("hamming:2,4", "hamming:2,5"):
        row = named(spec)
        yield _value_claim("hamming/d", row, 3)
        yield _value_claim("hamming/s", row, 2, S)


def _group_staller_start(table, named) -> Iterator[ClaimResult]:
    """The corpus sandwich, then the doubling gadget: d-game n, s-game 2n,
    the extreme s/d ratio."""
    yield from _corpus_claims(table(), ("staller-start/sandwich",), _staller_start)
    for n in (2, 3, 4):
        row = named(f"gn:{n}")

        def observe():
            d, s = row.value(), row.value(S)
            return d, s, s == 2 * d

        yield from _records(row.name, {"gadget/d": n, "gadget/s": 2 * n,
                                       "gadget/ratio": True}, observe)


def _group_skip(table, named) -> Iterator[ClaimResult]:
    yield from _corpus_claims(table(), ("skip/d-sandwich", "skip/s-sandwich"), _skip)
    for n in range(3, 9):
        yield _value_claim("skip/path", named(f"path:{n}"), n - 2, D_SKIP)
    f2, h1 = named("fan:2,8"), named("hat:1")
    yield _value_claim("fan/d", f2, 3)
    yield _value_claim("skip/fan", f2, 4, D_SKIP)
    yield _value_claim("hat/d", h1, 6)
    yield _value_claim("skip/hat", h1, 5, D_SKIP)


def _group_pass(table, named) -> Iterator[ClaimResult]:
    yield from _corpus_claims(table(), ("pass/bound-k1", "pass/bound-k2", "pass/monotone"),
                              _pass)


_LEX_LEFT = ["path:2", "path:3", "path:4", "cycle:4", "cycle:5", "complete:2", "complete:3"]
_LEX_RIGHT = ["complete:1", "complete:2", "complete:3", "path:3", "path:4", "cycle:4"]


def _group_lexicographic(table, named) -> Iterator[ClaimResult]:
    """Exact composition values of G[H] for both starting players, plus the
    two-sided range bound for the Dominator-start game when it applies,
    over every pair of ``_LEX_LEFT`` and ``_LEX_RIGHT``.  Past the time budget
    the two case claims are reported with no expected value, since the
    expectations are solved too."""
    for g_name in _LEX_LEFT:
        g = named(g_name)
        for h_name in _LEX_RIGHT:
            h = named(h_name)
            product = named(f"lex:{g_name},{h_name}")
            expected: dict[str, Any] = {"lex/d-case": None, "lex/s-case": None}

            def observe():
                gd, hd, g_skip = g.value(), h.value(), g.value(D_SKIP)
                gs, hs = g.value(S), h.value(S)
                obs_d, obs_s = product.value(), product.value(S)
                expected["lex/d-case"] = gd if hd == 1 else g_skip + 1
                expected["lex/s-case"] = gs if gs >= 2 else 2 if hs >= 2 else hs
                if hd >= 2:
                    expected["lex/d-range"] = True
                    return obs_d, obs_s, gd <= obs_d <= gd + 2
                return obs_d, obs_s

            yield from _records(product.name, expected, observe)


def _group_predomination(table, named) -> Iterator[ClaimResult]:
    fig, p5 = named("fig3"), named("path:5")
    c = 1 << fig.g.vertex_by_label("c")
    yield _value_claim("predomination/penalty-base", fig, 7)
    yield _value_claim("predomination/penalty-shifted", fig, 8, pre=c)
    yield _value_claim("predomination/path-stuck-s", p5, NEVER, S, pre=1 << 2)
    yield _value_claim("predomination/path-stuck-d", p5, NEVER, pre=0b01110)
    yield from _corpus_claims(table(), ("predomination/cut-vertex",
                                        "predomination/opening-not-worse"), _predomination)


def _group_ladders(table, named) -> Iterator[ClaimResult]:
    """Circular and Mobius ladder values, plain and with every single
    vertex predominated (vertex-transitivity is checked, not assumed)."""
    for n in (4, 5, 6, 7):
        for tag, spec in (("circular", f"cl:{n}"), ("mobius", f"ml:{n}")):
            row = named(spec)
            yield _timed_claim(f"ladder/{tag}", row.name, 2 * (n - 2), lambda: row.opening()[0])
            yield _timed_claim(f"ladder/{tag}-predominated", row.name,
                               [2 * (n - 2) - 1] * row.g.n, lambda: row.opening()[1:])


def _group_oracle(table, named) -> Iterator[ClaimResult]:
    yield from _corpus_claims(table(), ("oracle/agreement",), _oracle)


#: each group is a generator of its claims, each yielded as soon as it is
#: decided; it takes ``table()``, the corpus rows built on first call, and
#: ``named(spec)``, the row of a family spec built on its first call
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
              time_budget: float = 60.0) -> Iterator[ClaimResult]:
    """Run named claim groups (all of them by default; a repeated name runs
    once, at its first mention), yielding each claim as soon as it is
    decided.

    The names are checked at the call: an unknown one raises
    ``ValueError`` before any claim runs.  Every solve runs under
    ``time_budget``; a claim whose solve runs past it is reported as
    budget-exceeded."""
    selected = list(dict.fromkeys(names)) if names is not None else list(GROUPS)
    unknown = [n for n in selected if n not in GROUPS]
    if unknown:
        raise ValueError(f"unknown claim groups: {', '.join(unknown)}")
    table = cache(lambda: [_Row(g, f"corpus[{i}]", time_budget, _opening_sets(g))
                           for i, g in enumerate(load_corpus() if corpus is None else corpus)])
    named = cache(lambda spec: _Row(families.graph_from_spec(spec), spec, time_budget))
    return (claim for name in selected for claim in GROUPS[name](table, named))
