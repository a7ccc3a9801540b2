import json
from collections import Counter

import pytest
from hypothesis import given, settings

from cdgame import analysis
from cdgame.analysis import (BUDGET, FAIL, PASS, cut_vertices, load_corpus,
                             predomination_scan, run_suite)
from cdgame.engine import GameConfig, Variant
from cdgame.families import (complete, cycle, fan_chain, graph_from_spec, hat_chain,
                             path, predomination_penalty_graph, random_tree, star)
from cdgame.graph import bits, parse_graph6
from cdgame.solver import NEVER, BudgetExceeded, game_value, solve, solve_naive

from .conftest import arbitrary_graphs
from .domination import connected_domination_number, mask_of


def _all_pass(claims):
    return all(c.verdict == PASS for c in claims)


def test_small_values_on_named_graphs():
    assert _all_pass(run_suite(["small-values"], corpus=[cycle(4)]))
    assert _all_pass(run_suite(["small-values"], corpus=[complete(6)]))
    # frozen solver values for P_6: d-game 4, s-game 5; all four biconditionals
    # then hold with both sides false
    assert game_value(path(6)) == 4
    assert game_value(path(6), Variant.STALLER_START) == 5
    assert _all_pass(run_suite(["small-values"], corpus=[path(6)]))


def test_diameter_bounds_on_named_graphs():
    for g in (path(8), complete(1), cycle(7), star(4)):
        assert _all_pass(run_suite(["diameter"], corpus=[g]))


def test_gadget_family_claims():
    claims = [c for c in run_suite(["staller-start"], corpus=[])
              if c.claim.startswith("gadget/")]
    assert [(c.claim, c.instance, c.observed) for c in claims] == [
        (f"gadget/{part}", f"gn:{n}", value) for n in (2, 3, 4)
        for part, value in (("d", n), ("s", 2 * n), ("ratio", True))]
    assert _all_pass(claims)


def test_lexicographic_cases():
    claims = {(c.claim, c.instance): c for c in run_suite(["lexicographic"])}
    c1 = claims["lex/d-case", "lex:path:3,path:4"]
    c2 = claims["lex/d-case", "lex:cycle:5,complete:2"]
    c3 = claims["lex/s-case", "lex:complete:2,path:4"]
    assert (c1.expected, c2.expected, c3.expected) == (2, 3, 2)
    assert _all_pass(c for c in claims.values() if c.instance in (
        "lex:path:3,path:4", "lex:cycle:5,complete:2", "lex:complete:2,path:4"))


def test_ladder_claims_match_search_not_formula():
    claims = list(run_suite(["ladders"]))
    ok = [c for c in claims if c.instance[-1] in "45"]
    assert len(ok) == 8 and _all_pass(ok)
    # For n >= 6 the predominated formula value is one above what exhaustive
    # search finds; the claims must report that honestly.
    diverging = [c for c in claims
                 if c.instance[-1] in "67" and c.claim.endswith("predominated")]
    assert len(diverging) == 4
    for c in diverging:
        assert c.verdict == FAIL
        assert set(c.expected) == {c.observed[0] + 1}
        assert len(set(c.observed)) == 1  # vertex-transitivity, observed


def test_cut_vertices():
    p6 = path(6)
    assert cut_vertices(p6) == mask_of(range(1, 5))
    assert cut_vertices(cycle(5)) == 0
    hub_and_leaves = star(5)
    assert cut_vertices(hub_and_leaves) == 1
    fig = predomination_penalty_graph()
    cuts = {fig.label(v) for v in bits(cut_vertices(fig))}
    assert "c" in cuts and "e'" not in cuts


def test_check_cut_vertex():
    fig = predomination_penalty_graph()
    for g in (path(6), star(5), fig):
        assert _all_pass(run_suite(["predomination"], corpus=[g]))
        # stronger than the suite's opening-not-worse claim: predominating
        # the principal line's own first move does not lengthen the game
        opening = solve(g, GameConfig(Variant.DOMINATOR_START)).principal_line[0][1]
        assert game_value(g, predominated=1 << opening) <= game_value(g)
    c = fig.vertex_by_label("c")
    assert cut_vertices(fig) >> c & 1
    assert game_value(fig, predominated=1 << c) > game_value(fig)


def test_check_skip_and_pass():
    assert _all_pass(run_suite(["skip", "pass"], corpus=[path(6)]))
    assert _all_pass(run_suite(["skip", "pass"], corpus=[fan_chain(2, 8)]))


def test_corpus_values_are_solved_once(monkeypatch):
    # the table fills one (variant, k) column per search, over the empty
    # set and then every singleton, so each (variant, k, pre) is solved once
    graphs = [path(4), cycle(5), complete(3)]
    calls = Counter()
    real = analysis.game_values

    def counting(g, predominated_sets, variant=Variant.DOMINATOR_START,
                 pass_budget=0, time_budget=None):
        sets = list(predominated_sets)
        for i, h in enumerate(graphs):
            if g is h:
                assert sets == [0] + [1 << v for v in range(g.n)]
                calls[i, variant, pass_budget] += 1
        return real(g, sets, variant, pass_budget, time_budget)

    monkeypatch.setattr(analysis, "game_values", counting)
    assert _all_pass(list(run_suite(corpus=graphs))[-1:])  # the oracle agrees
    assert set(calls.values()) == {1}
    assert set(calls) == {(i, v, k) for i in range(3) for v, k in analysis.ORACLE_CONFIGS}
    calls.clear()
    list(run_suite(["small-values"], corpus=graphs))
    assert set(calls) == {(i, v, 0) for i in range(3)
                          for v in (Variant.DOMINATOR_START, Variant.STALLER_START)}
    assert set(calls.values()) == {1}


def test_named_values_are_solved_once(monkeypatch):
    # a named graph's row is shared by every group that reads its spec, and
    # a read solves only the sets its column lacks, with the empty set on
    # the column's first read: each (graph, variant, k, set) is solved at
    # most once, and only the values some claim reads
    searches = []
    real = analysis.game_values

    def recording(g, predominated_sets, variant=Variant.DOMINATOR_START,
                  pass_budget=0, time_budget=None):
        searches.append((g, variant, pass_budget, list(predominated_sets)))
        return real(g, searches[-1][3], variant, pass_budget, time_budget)

    monkeypatch.setattr(analysis, "game_values", recording)
    groups = ["paths-cycles", "ladders", "diameter", "lexicographic"]
    claims = list(run_suite(groups, corpus=[]))
    # rows are keyed by spec, and two specs may name equal graphs
    # (path:2, complete:2), so a row is told apart by its graph object
    solved = Counter((id(g), v, k, pre) for g, v, k, sets in searches for pre in sets)
    assert set(solved.values()) == {1}

    def searched(spec):
        return [(v, k, sets) for g, v, k, sets in searches if g == graph_from_spec(spec)]

    d, s = Variant.DOMINATOR_START, Variant.STALLER_START
    # read by paths-cycles and diameter, d and s only
    assert {"diameter/tight-d", "path/d"} <= {c.claim for c in claims if c.instance == "path:8"}
    assert searched("path:8") == [(d, 0, [0]), (s, 0, [0])]
    # a plain-only product row solves nothing but the empty set
    assert searched("lex:cycle:5,path:4") == [(d, 0, [0]), (s, 0, [0])]
    # the plain read solves the empty set and every singleton in one search
    assert searched("cycle:6") == [(d, 0, [0, *(1 << v for v in range(6))])]
    specs = {c.instance.partition("|")[0] for c in claims if c.instance != "corpus"}
    factors = {*analysis._LEX_LEFT, *analysis._LEX_RIGHT}
    assert {g for g, *_ in searches} == {graph_from_spec(spec) for spec in specs | factors}


def test_named_row_adds_a_larger_set_to_its_column(monkeypatch):
    row = analysis._Row(graph_from_spec("path:5"), "path:5", None)
    searched = []
    real = analysis.game_values

    def recording(g, predominated_sets, *args):
        searched.append(list(predominated_sets))
        return real(g, searched[-1], *args)

    monkeypatch.setattr(analysis, "game_values", recording)
    interior = 0b01110
    assert row.value(pre=interior) == solve_naive(row.g, GameConfig(predominated=interior))
    assert row.value(pre=interior) == NEVER
    # the first read of a column adds the empty set, and no singleton
    assert searched == [[0, interior]]
    assert row.opening()[1:] == [2, 3, 3, 3, 2]
    assert searched[1:] == [[1, 2, 4, 8, 16]]
    # a batch read solves only what the column lacks, in one search
    assert row.value(pre=0b00011) == solve_naive(row.g, GameConfig(predominated=0b00011)) == 1
    assert row.values(Variant.DOMINATOR_START, 0, [0b00011, 0, 0b11000, 1]) == [1, 3, 1, 2]
    assert searched[2:] == [[0b00011], [0b11000]]
    # a corpus row fills the empty set and every singleton on a column's
    # first read, whatever that read asks for
    corpus_row = analysis._Row(row.g, "corpus[0]", None, (0, 1, 2, 4, 8, 16))
    assert corpus_row.value(Variant.STALLER_START, pre=interior) == solve_naive(
        row.g, GameConfig(Variant.STALLER_START, predominated=interior)) == NEVER
    assert searched[4:] == [[0, 1, 2, 4, 8, 16, interior]]


def test_named_instances_are_family_specs():
    labelled = []
    for c in run_suite(corpus=[]):
        if c.instance != "corpus":
            spec, _, labels = c.instance.partition("|")
            g = graph_from_spec(spec)
            if labels:
                labelled.append(c.instance)
                # vertex_by_label raises KeyError for a label g does not have
                assert len({g.vertex_by_label(label) for label in labels.split(",")}) == \
                    len(labels.split(","))
    assert labelled == ["fig3|c", "path:5|2", "path:5|1,2,3"]


def test_skip_family_values():
    f2 = fan_chain(2, 8)
    assert game_value(f2) == 3
    assert game_value(f2, Variant.STALLER_SKIPS_FIRST) == 4
    h1 = hat_chain(1)
    assert game_value(h1) == 6
    assert game_value(h1, Variant.STALLER_SKIPS_FIRST) == 5


def test_predomination_scan_cycle():
    scan = predomination_scan(cycle(6))
    assert scan.value == 4
    assert scan.per_vertex == [3] * 6
    assert scan.all_vertices_shift and not scan.candidate
    assert scan.max_decrease == 1 and scan.max_increase == -1
    assert scan.never_vertices == []


def test_predomination_scan_penalty_graph():
    fig = predomination_penalty_graph()
    scan = predomination_scan(fig)
    assert scan.value == 7
    # per-vertex values cross-checked against the naive oracle
    assert scan.per_vertex == [6, 8, 8, 8, 7, 7, 7, 7, 7, 7, 7]
    assert scan.per_vertex[fig.vertex_by_label("c")] == 8
    assert scan.max_increase == 1 and scan.max_decrease == 1
    assert not scan.all_vertices_shift  # d through g' keep the base value
    record = scan.to_record()
    json.dumps(record)  # schema is JSON-clean
    assert record["per_vertex"][fig.vertex_by_label("c")] == 8


def test_records_keep_their_key_order():
    claim = analysis.ClaimResult("c", "path:4", 2, NEVER, FAIL, 0.1234567)
    assert list(claim.to_record()) == ["claim", "instance", "expected", "observed",
                                       "verdict", "elapsed"]
    assert claim.to_record()["observed"] == "never" and claim.to_record()["elapsed"] == 0.123457
    scan = analysis.ScanResult(2, [3, NEVER], [1], 1, None, False, False)
    assert list(scan.to_record()) == ["value", "per_vertex", "never_vertices", "max_increase",
                                      "max_decrease", "all_vertices_shift", "candidate"]
    assert scan.to_record()["per_vertex"] == [3, "never"]


def test_predomination_scan_stuck_base_game():
    # two isolated vertices: the plain game is stuck, yet predominating
    # either vertex lets one move finish it
    record = predomination_scan(parse_graph6("A?")).to_record()
    assert record["value"] == "never" and record["per_vertex"] == [1, 1]
    assert record["max_increase"] is None and record["max_decrease"] is None
    assert not record["all_vertices_shift"] and not record["candidate"]


@given(arbitrary_graphs(max_n=6))
@settings(max_examples=120, deadline=None)
def test_predomination_scan_matches_naive_oracle(g):
    # the base game and all n predominations share one search and memo, so
    # a memo key that leaks between them gives a wrong value here
    scan = predomination_scan(g)
    assert scan.value == solve_naive(g, GameConfig())
    assert scan.per_vertex == [solve_naive(g, GameConfig(predominated=1 << v))
                               for v in range(g.n)]


def test_predomination_scan_honours_time_budget():
    with pytest.raises(BudgetExceeded):
        predomination_scan(path(12), time_budget=1e-9)


def test_predomination_scan_reports_never_distinctly():
    scan = predomination_scan(path(5))
    # interior predomination keeps the d-game finishable on paths
    assert scan.never_vertices == []
    assert scan.per_vertex == [2, 3, 3, 3, 2]


def test_tree_predomination_property():
    for seed in range(50):
        n = 4 + seed % 9  # 4..12
        t = random_tree(n, seed)
        base = connected_domination_number(t)
        assert game_value(t) == base
        for v in range(t.n):
            if t.adj[v].bit_count() > 1:
                assert game_value(t, predominated=1 << v) == base, (seed, v)


def test_cycles_scan_range():
    for n in range(4, 9):
        scan = predomination_scan(cycle(n))
        assert scan.per_vertex == [n - 3] * n


def test_run_suite_selection_and_unknown():
    claims = list(run_suite(["hamming"]))
    assert len(claims) == 4 and _all_pass(claims)
    with pytest.raises(ValueError):
        run_suite(["no-such-group"])


def test_exhausted_budget_is_reported_distinctly():
    claims = list(run_suite(["skip"], corpus=[], time_budget=1e-9))
    budgeted = [c for c in claims if c.verdict == BUDGET]
    assert {c.claim for c in budgeted} == {"skip/path", "fan/d", "skip/fan",
                                           "hat/d", "skip/hat"}
    assert all(c.observed == "budget exceeded" for c in budgeted)
    # the corpus claims over an empty corpus solve nothing
    assert [c.claim for c in claims if c.verdict != BUDGET] == ["skip/d-sandwich",
                                                                "skip/s-sandwich"]
    assert not any(c.verdict == FAIL for c in claims)


@pytest.mark.parametrize("group", list(analysis.GROUPS))
def test_every_group_honours_time_budget(group):
    # every claim solves something; the corpus matters only to corpus claims
    claims = list(run_suite([group], corpus=[path(4)], time_budget=1e-9))
    assert claims
    assert all(c.verdict == BUDGET and c.observed == "budget exceeded" for c in claims)


def test_corpus_claims_honour_time_budget():
    claims = list(run_suite(["pass"], corpus=[path(6)], time_budget=1e-9))
    assert [c.verdict for c in claims] == [BUDGET] * 3
    assert all(c.observed == "budget exceeded" for c in claims)


def test_budget_records_keep_their_expected_values():
    # a budget stop keeps each claim's expectation, except that a solved
    # expectation (the lexicographic cases) is reported as None
    claims = list(run_suite(None, corpus=[path(4)], time_budget=1e-9))
    assert all(c.verdict == BUDGET for c in claims)
    lex = [c for c in claims if c.claim.startswith("lex/")]
    assert len(lex) == 2 * 42
    assert all(c.claim in ("lex/d-case", "lex/s-case") and c.expected is None for c in lex)
    assert [(c.claim, c.instance, c.expected) for c in claims
            if c.claim.startswith("gadget/")] == [
        (f"gadget/{part}", f"gn:{n}", e) for n in (2, 3, 4)
        for part, e in (("d", n), ("s", 2 * n), ("ratio", True))]
    assert [(c.claim, c.expected) for c in claims if c.instance == "corpus"] == [
        (claim, "0 violations") for claim in (
            "small-value/d-one", "small-value/d-two", "small-value/s-one",
            "small-value/s-two", "diameter/d-bound", "diameter/s-bound",
            "staller-start/sandwich", "skip/d-sandwich", "skip/s-sandwich",
            "pass/bound-k1", "pass/bound-k2", "pass/monotone",
            "predomination/cut-vertex", "predomination/opening-not-worse",
            "oracle/agreement")]


def test_oracle_sweep_honours_time_budget():
    # the naive oracle on the 16-vertex grid runs far past any test's patience
    grid = graph_from_spec("cart:path:4,path:4")
    claims = run_suite(["oracle"], corpus=[grid], time_budget=0.2)
    assert [(c.claim, c.verdict, c.observed) for c in claims] == [
        ("oracle/agreement", BUDGET, "budget exceeded")]


def test_claim_records_are_stable():
    claims = run_suite(["paths-cycles"])
    records = [c.to_record() for c in claims]
    assert all(list(r) == ["claim", "instance", "expected", "observed",
                           "verdict", "elapsed"] for r in records)
    again = [c.to_record() for c in run_suite(["paths-cycles"])]
    for a, b in zip(records, again):
        a2 = {k: v for k, v in a.items() if k != "elapsed"}
        b2 = {k: v for k, v in b.items() if k != "elapsed"}
        assert a2 == b2


def test_load_corpus_explicit_path(tmp_path):
    target = tmp_path / "tiny.g6"
    target.write_text("A_\nD?{\n")
    graphs = load_corpus(target)
    assert [g.n for g in graphs] == [2, 5]
