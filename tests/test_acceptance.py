"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2 and 10 cover the two claim families whose stated values
exhaustive search refutes (see README "Verification status").  They
assert the searched values and that the suite keeps reporting those
claims as FAIL with their stated expected values unchanged: criterion 2
pins the violation counts of ``small-value/d-two`` and ``s-two`` and
accepts only the two documented kinds of violation, and criterion 10
pins the predominated ladder values 2(n-2)-1 for n in {4, 5} and
2(n-2)-2 for n in {6, 7}.  Both also check witnesses against the naive
oracle, so the refutations do not rest on the memoized solver alone.
Run with ``pytest -s`` to see the per-criterion lines.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from cdgame import analysis
from cdgame.analysis import FAIL, PASS, run_suite
from cdgame.cli import _scan_one
from cdgame.engine import GameConfig, Variant
from cdgame.families import (circular_ladder, complete, cycle,
                             doubling_gadget, fan_chain, hamming, hat_chain,
                             mobius_ladder, path, predomination_penalty_graph)
from cdgame.graph import (Graph, bits, diameter, has_universal_vertex,
                          is_join_some_noncomplete, is_join_two_noncomplete, join)
from cdgame.solver import NEVER, game_value, naive_values, solve, solve_naive

from .conftest import complement, oracle_configs
from .graph6 import emit_graph6

VD, VS = Variant.DOMINATOR_START, Variant.STALLER_START


def _finish(criterion: str, failures: list[str], elapsed: float,
            budget: float | None = None):
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {criterion}: {verdict} ({elapsed:.1f} s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded {budget} s budget"
    assert not failures, f"criterion {criterion}: " + "; ".join(failures[:6])


def _claim_failures(claims) -> list[str]:
    return [f"{c.claim}[{c.instance}] expected {c.expected} observed {c.observed}"
            for c in claims if c.verdict != PASS]


@pytest.fixture(scope="module")
def corpus_values(corpus):
    values = []
    for g in corpus:
        values.append({
            "d": game_value(g),
            "s": game_value(g, VS),
            "d_skip": game_value(g, Variant.STALLER_SKIPS_FIRST),
            "s_skip": game_value(g, Variant.DOMINATOR_SKIPS_FIRST),
            "p1": game_value(g, pass_budget=1),
            "p2": game_value(g, pass_budget=2),
        })
    return values


def test_criterion_01_paths_and_cycles():
    start = time.monotonic()
    failures = []
    for n in range(3, 11):
        if game_value(path(n)) != n - 2:
            failures.append(f"path {n} d-game")
        if game_value(path(n), VS) != n - 1:
            failures.append(f"path {n} s-game")
    for n in range(4, 9):
        g = cycle(n)
        if game_value(g) != n - 2:
            failures.append(f"cycle {n}")
        for v in range(n):
            if game_value(g, predominated=1 << v) != n - 3:
                failures.append(f"cycle {n} predominated {v}")
    _finish("01 paths-cycles", failures, time.monotonic() - start, budget=1.0)


#: corpus violations of the refuted value-2 characterizations (README)
D_TWO_VIOLATIONS, S_TWO_VIOLATIONS = 373, 15


def _small_value_violation_kinds(g: Graph, vals: dict) -> dict[str, str]:
    """Which value-2 characterizations ``g`` violates, and how.

    The documented kinds are "non-join" (not a join, yet value 2) and,
    for d-two only, "universal" (a join of two non-complete graphs that
    has a universal vertex, so value 1).  Anything else is "other".
    """
    d, s = vals["d"], vals["s"]
    kinds = {}
    if is_join_two_noncomplete(g) != (d == 2):
        if d == 2 and not is_join_some_noncomplete(g):
            kinds["small-value/d-two"] = "non-join"
        elif d == 1 and has_universal_vertex(g):
            kinds["small-value/d-two"] = "universal"
        else:
            kinds["small-value/d-two"] = "other"
    if is_join_some_noncomplete(g) != (s == 2):
        kinds["small-value/s-two"] = "non-join" if s == 2 else "other"
    return kinds


def test_criterion_02_small_value_characterizations(corpus, corpus_values):
    start = time.monotonic()
    claims = {c.claim: c for c in run_suite(["small-values"], corpus=corpus)}
    failures = _claim_failures(claims[name] for name in
                               ("small-value/d-one", "small-value/s-one"))

    violations: dict[str, list[str]] = {"small-value/d-two": [],
                                        "small-value/s-two": []}
    for i, (g, vals) in enumerate(zip(corpus, corpus_values)):
        for name, kind in _small_value_violation_kinds(g, vals).items():
            violations[name].append(f"corpus[{i}]")
            if kind == "other":
                failures.append(f"{name} corpus[{i}]: undocumented violation "
                                f"(d={vals['d']}, s={vals['s']})")
    for name, count in (("small-value/d-two", D_TWO_VIOLATIONS),
                        ("small-value/s-two", S_TWO_VIOLATIONS)):
        bad = violations[name]
        if len(bad) != count:
            failures.append(f"{name}: {len(bad)} violations, documented {count}")
        claim = claims[name]
        observed = f"{count} violations: " + ", ".join(bad[:5])
        if (claim.verdict, claim.expected, claim.observed) != (FAIL, "0 violations", observed):
            failures.append(f"{name} reports {claim.verdict}: expected "
                            f"{claim.expected} observed {claim.observed}")

    # The refutations, checked against the naive oracle.  The double star
    # (centers 5-6, leaves 1,2 on 5 and 3,4 on 6, vertex 0 on both
    # centers) is no join but has d-value 2; join(P3, 2K1) is a join of
    # two non-complete graphs but has a universal vertex, so d-value 1.
    d_game = GameConfig()
    double_star = Graph.from_edges(7, [(0, 5), (0, 6), (1, 5), (2, 5),
                                       (3, 6), (4, 6), (5, 6)])
    if is_join_some_noncomplete(double_star) or solve_naive(double_star, d_game) != 2:
        failures.append("double star witness")
    p3_join = join(path(3), complement(complete(2)))
    if not (is_join_two_noncomplete(p3_join) and has_universal_vertex(p3_join)
            and solve_naive(p3_join, d_game) == 1):
        failures.append("join(P3, 2K1) witness")
    _finish("02 small-values", failures, time.monotonic() - start, budget=300.0)


def test_criterion_03_diameter_bounds(corpus, corpus_values):
    start = time.monotonic()
    failures = []
    for i, (g, vals) in enumerate(zip(corpus, corpus_values)):
        dia = diameter(g)
        if not (dia <= vals["d"] + 1 and dia <= vals["s"]):
            failures.append(f"corpus[{i}]")
    p8 = path(8)
    if not (diameter(p8) == game_value(p8) + 1 == game_value(p8, VS)):
        failures.append("path 8 tightness")
    _finish("03 diameter", failures, time.monotonic() - start)


def test_criterion_04_hamming_values():
    start = time.monotonic()
    failures = []
    for dims in ((2, 4), (2, 5)):
        g = hamming(*dims)
        got = (game_value(g), game_value(g, VS))
        if got != (3, 2):
            failures.append(f"hamming{dims}: {got}")
    _finish("04 hamming", failures, time.monotonic() - start, budget=10.0)


def test_criterion_05_staller_start_bound(corpus, corpus_values):
    start = time.monotonic()
    failures = []
    for i, vals in enumerate(corpus_values):
        if not vals["d"] - 1 <= vals["s"] <= 2 * vals["d"]:
            failures.append(f"corpus[{i}]")
    for n in (2, 3, 4):
        g = doubling_gadget(n)
        tick = time.monotonic()
        got = (game_value(g), game_value(g, VS))
        gadget_elapsed = time.monotonic() - tick
        if got != (n, 2 * n):
            failures.append(f"gadget {n}: {got}")
        if n == 4 and gadget_elapsed >= 60:
            failures.append(f"gadget 4 took {gadget_elapsed:.0f} s")
    _finish("05 staller-start", failures, time.monotonic() - start)


def test_criterion_06_skip_variants(corpus, corpus_values):
    start = time.monotonic()
    failures = []
    for i, vals in enumerate(corpus_values):
        if abs(vals["d_skip"] - vals["d"]) > 1 or abs(vals["s_skip"] - vals["s"]) > 1:
            failures.append(f"corpus[{i}]")
    for n in range(3, 9):
        if game_value(path(n), Variant.STALLER_SKIPS_FIRST) != n - 2:
            failures.append(f"path {n} skip")
    f2 = fan_chain(2, 8)
    if (game_value(f2), game_value(f2, Variant.STALLER_SKIPS_FIRST)) != (3, 4):
        failures.append("fan chain 2")
    h1 = hat_chain(1)
    if (game_value(h1, time_budget=60.0),
            game_value(h1, Variant.STALLER_SKIPS_FIRST, time_budget=60.0)) != (6, 5):
        failures.append("hat chain 1")
    _finish("06 skip-variants", failures, time.monotonic() - start)


def test_criterion_07_pass_bounds(corpus_values):
    start = time.monotonic()
    failures = []
    for i, vals in enumerate(corpus_values):
        d, p1, p2 = vals["d"], vals["p1"], vals["p2"]
        if not (d <= p1 <= d + 1 and d <= p2 <= d + 2 and p1 <= p2):
            failures.append(f"corpus[{i}]")
    _finish("07 pass-bounds", failures, time.monotonic() - start)


def test_criterion_08_lexicographic_products():
    start = time.monotonic()
    claims = run_suite(["lexicographic"])
    _finish("08 lexicographic", _claim_failures(claims),
            time.monotonic() - start, budget=600.0)


def test_criterion_09_predomination(corpus, corpus_values):
    start = time.monotonic()
    failures = []
    fig = predomination_penalty_graph()
    c = 1 << fig.vertex_by_label("c")
    if (game_value(fig), game_value(fig, predominated=c)) != (7, 8):
        failures.append("penalty graph values")
    p5 = path(5)
    if game_value(p5, VS, predominated=1 << 2) != NEVER:
        failures.append("path 5 staller-start stuck")
    if game_value(p5, predominated=0b01110) != NEVER:
        failures.append("path 5 interior stuck")
    for i, (g, vals) in enumerate(zip(corpus, corpus_values)):
        base = vals["d"]
        per_vertex = [game_value(g, predominated=1 << v) for v in range(g.n)]
        for u in bits(analysis.cut_vertices(g)):
            if per_vertex[u] < base:
                failures.append(f"corpus[{i}] cut vertex {u}")
        if not any(val <= base for val in per_vertex):
            failures.append(f"corpus[{i}] no harmless vertex")
    _finish("09 predomination", failures, time.monotonic() - start)


#: searched value of CL_n and ML_n with any single vertex predominated; the
#: stated 2(n-2)-1 holds for n in {4, 5} only (README)
PREDOMINATED_LADDER_VALUES = {4: 3, 5: 5, 6: 6, 7: 8}


def test_criterion_10_ladder_values():
    start = time.monotonic()
    failures = []
    for n, searched in PREDOMINATED_LADDER_VALUES.items():
        for name, g in (("CL", circular_ladder(n)), ("ML", mobius_ladder(n))):
            if game_value(g) != 2 * (n - 2):
                failures.append(f"{name}_{n} plain")
            for v in range(g.n):
                got = game_value(g, predominated=1 << v)
                if got != searched:
                    failures.append(f"{name}_{n}|v{v} expected {searched} observed {got}")
            if n >= 6:
                naive = solve_naive(g, GameConfig(predominated=1))
                if naive != searched:
                    failures.append(f"{name}_{n}|v0 expected {searched} oracle {naive}")

    # The suite keeps reporting the refuted claims as FAIL, stated values intact.
    refuted = {("ladder/circular-predominated", "cl:6"),
               ("ladder/mobius-predominated", "ml:6"),
               ("ladder/circular-predominated", "cl:7"),
               ("ladder/mobius-predominated", "ml:7")}
    failing = {(c.claim, c.instance): c
               for c in run_suite(["ladders"]) if c.verdict != PASS}
    if set(failing) != refuted:
        failures.append(f"failing ladder claims {sorted(failing)}")
    for c in failing.values():
        n = int(c.instance.split(":")[1])
        if (c.verdict, c.expected, c.observed) != (
                FAIL, [2 * (n - 2) - 1] * 2 * n, [PREDOMINATED_LADDER_VALUES[n]] * 2 * n):
            failures.append(f"{c.claim}[{c.instance}] reports {c.verdict}: "
                            f"expected {c.expected} observed {c.observed}")
    _finish("10 ladders", failures, time.monotonic() - start, budget=120.0)


def test_criterion_11_oracle_equivalence(corpus):
    start = time.monotonic()
    failures = []
    for i, g in enumerate(corpus):
        walks = {pre: naive_values(g, pre) for pre in [0] + [1 << v for v in range(g.n)]}
        for cfg in oracle_configs(g):
            stats = {}
            report = solve(g, cfg)
            naive = solve_naive(g, cfg, stats)
            walked = walks[cfg.predominated][cfg.variant, cfg.pass_budget]
            if report.value != naive:
                failures.append(f"corpus[{i}] {cfg}: {report.value} vs {naive}")
            elif report.states_expanded > stats["nodes"]:
                failures.append(f"corpus[{i}] {cfg}: memo expanded more than oracle")
            if walked != naive:
                failures.append(f"corpus[{i}] {cfg}: one walk gave {walked} vs {naive}")
    _finish("11 oracle-equivalence", failures, time.monotonic() - start)


def test_criterion_12_determinism(corpus):
    start = time.monotonic()
    failures = []

    def stripped(claims):
        return [{k: v for k, v in c.to_record().items() if k != "elapsed"}
                for c in claims]

    first = stripped(run_suite(corpus=corpus))
    second = stripped(run_suite(corpus=corpus))
    if first != second:
        failures.append("two verify runs differ")

    jobs = [(i, emit_graph6(g), g, None) for i, g in enumerate(corpus[:60], start=1)]
    serial = [_scan_one(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=2) as pool:
        parallel = list(pool.map(_scan_one, jobs, chunksize=4))
    if serial != parallel:
        failures.append("parallel scan differs from sequential")
    _finish("12 determinism", failures, time.monotonic() - start)
