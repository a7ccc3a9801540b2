"""Command-line front end: solve one instance, run the named verification
suite, scan a graph6 corpus for predomination behavior, or play a game
against the solver.

Exit codes for ``solve``: 0 finite value, 2 unfinishable game, 1 bad
input, 3 time budget exceeded.  ``verify`` exits 1 when any claim fails.
Corpus scans can fan out over a process pool (``--threads`` or the
``CDGAME_THREADS`` environment variable) and always emit results in
input line order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import ExitStack

from . import analysis, families
from .engine import (PASS, GameConfig, GameState, Player, Status, Variant, apply_move,
                     apply_pass, dominated, initial_state, legal_moves, mover, status)
from .graph import Graph, is_connected, parse_graph6, read_graph6_lines
from .solver import BudgetExceeded, format_value, is_never, optimal_move, solve

class CliError(Exception):
    pass


def _read_corpus(path: str) -> list[tuple[int, str, Graph]]:
    """The numbered lines of a graph6 file; a missing file, bad line or no graph is bad input."""
    if not os.path.exists(path):
        raise CliError(f"file not found: {path}")
    try:
        entries = read_graph6_lines(path)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if not entries:
        raise CliError(f"{path}: no graphs found")
    return entries


def _open_output(stack: ExitStack, path: str):
    """``path`` opened for writing, before any solve, so a bad path fails fast."""
    try:
        return stack.enter_context(open(path, "w", encoding="ascii"))
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from None


def _load_graph(args) -> Graph:
    sources = [s for s in (args.family, args.graph6, args.input) if s]
    if len(sources) != 1:
        raise CliError("exactly one of --family, --graph6, --input is required")
    try:
        if args.family:
            return families.graph_from_spec(args.family)
        if args.graph6:
            return parse_graph6(args.graph6)
        return _read_corpus(args.input)[0][2]
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _predominated_mask(g: Graph, specs: list[str]) -> int:
    mask = 0
    for spec in specs:
        # a comma inside parentheses belongs to a coordinate label like (1,2)
        for name in filter(str.strip, re.split(r",(?![^(]*\))", spec)):
            try:
                mask |= 1 << g.vertex_by_label(name.strip())
            except KeyError as exc:  # str() would quote the message
                raise CliError(exc.args[0]) from None
    return mask


def _config(g: Graph, args) -> GameConfig:
    try:
        cfg = GameConfig(variant=Variant(args.variant),
                         pass_budget=args.passes,
                         predominated=_predominated_mask(g, args.predominate))
        cfg.validate_for(g)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return cfg


def _time_budget(args) -> float:
    # NaN compares False with every clock reading, so it would never expire
    budget = args.time_budget
    if not budget > 0:
        raise CliError(f"--time-budget must be a positive number of seconds, got {budget:g}")
    return budget


def _format_line(g: Graph, line) -> str:
    return " ".join(
        f"{who.value}:{action if action == PASS else g.label(action)}"
        for who, action in line)


def cmd_solve(args) -> int:
    budget = _time_budget(args)
    g = _load_graph(args)
    cfg = _config(g, args)
    try:
        report = solve(g, cfg, time_budget=budget)
    except BudgetExceeded:
        print(f"budget exceeded ({budget:g} s)")
        return 3
    print(f"value = {format_value(report.value)}")
    print(f"line: {_format_line(g, report.principal_line)}")
    rate = report.states_expanded / report.elapsed if report.elapsed > 0 else 0.0
    print(f"states expanded = {report.states_expanded}, memo hits = {report.memo_hits}, "
          f"memo entries = {report.memo_entries}, states/s = {rate:.0f}, "
          f"elapsed = {report.elapsed:.3f} s")
    return 2 if is_never(report.value) else 0


def cmd_verify(args) -> int:
    budget = _time_budget(args)
    corpus = None
    names = args.only or None
    with ExitStack() as stack:
        try:
            if args.corpus:
                corpus = []
                for lineno, _, g in _read_corpus(args.corpus):
                    if not is_connected(g):  # the game is defined on connected graphs
                        raise CliError(f"{args.corpus}:{lineno}: graph is disconnected")
                    corpus.append(g)
            out = _open_output(stack, args.output) if args.output else None
            claims = failures = 0
            for c in analysis.run_suite(names, corpus=corpus, time_budget=budget):
                record = c.to_record()
                claims += 1
                if c.verdict == analysis.PASS:
                    print(f"PASS  {c.claim:36s} {c.instance}", flush=True)
                else:
                    failures += 1
                    print(f"{c.verdict.upper():5s} {c.claim:36s} {c.instance} "
                          f"expected={json.dumps(record['expected'])} "
                          f"observed={json.dumps(record['observed'])}", flush=True)
                if out:
                    out.write(json.dumps(record) + "\n")
                    out.flush()  # an interrupted verify keeps every claim finished so far
        except ValueError as exc:
            raise CliError(str(exc)) from None
        print(f"{claims} claims, {failures} not passing")
    return 1 if failures else 0


def _scan_one(job):
    index, line, g, time_budget = job
    record = {"line": index, "graph6": line}
    try:
        record.update(analysis.predomination_scan(g, time_budget=time_budget).to_record())
    except BudgetExceeded:
        record["verdict"] = "budget-exceeded"
    return record


def _scan_threads(args) -> int:
    """Worker processes: ``--threads``, else ``CDGAME_THREADS``, else 1."""
    if args.threads < 0:
        raise CliError(f"--threads must be nonnegative, got {args.threads}")
    if args.threads:
        return args.threads
    raw = os.environ.get("CDGAME_THREADS") or "1"
    try:
        threads = int(raw)
    except ValueError:
        threads = -1
    if threads < 0:
        raise CliError(f"CDGAME_THREADS must be a nonnegative integer, got {raw!r}")
    return threads


def cmd_scan(args) -> int:
    threads = _scan_threads(args)
    budget = _time_budget(args)
    entries = _read_corpus(args.corpus)  # a bad line stops the scan before any record
    jobs = [(i, line, g, budget) for i, (_, line, g) in enumerate(entries, start=1)]
    records = []
    with ExitStack() as stack:
        out = _open_output(stack, args.output) if args.output else sys.stdout
        # a fork pool starts all its workers at once: no more than lines or CPUs
        workers = min(threads, len(jobs), os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_scan_one, jobs, chunksize=8)
        else:
            results = map(_scan_one, jobs)
        for record in results:
            out.write(json.dumps(record) + "\n")
            out.flush()  # a killed scan keeps every record finished so far
            records.append(record)
    scanned = [r for r in records if "max_increase" in r]
    increases = [r["max_increase"] for r in scanned if r["max_increase"] is not None]
    decreases = [r["max_decrease"] for r in scanned if r["max_decrease"] is not None]
    candidates = [r["line"] for r in scanned if r["candidate"]]
    print(f"scanned {len(records)} graphs: "
          f"max increase {max(increases) if increases else 'n/a'}, "
          f"max decrease {max(decreases) if decreases else 'n/a'}, "
          f"{len(candidates)} all-shift-with-increase candidates"
          + (f" at lines {candidates[:20]}" if candidates else ""),
          file=sys.stderr)
    return 0


def _read_action(g: Graph, cfg: GameConfig, st: GameState) -> int | str:
    legal = legal_moves(g, cfg, st)
    may_pass = (mover(cfg, st) is Player.STALLER and st.passes_left > 0)
    while True:
        prompt = "your move (vertex"
        prompt += " or 'pass'): " if may_pass else "): "
        try:
            raw = input(prompt).strip()
        except EOFError:
            raise CliError("input ended before the game finished") from None
        if raw == PASS:
            if may_pass:
                return PASS
            print("you cannot pass now")
            continue
        try:
            v = g.vertex_by_label(raw)
        except KeyError as exc:
            print(exc.args[0])
            continue
        if not legal & (1 << v):
            print(f"{g.label(v)} is not a legal move")
            continue
        return v


def cmd_play(args) -> int:
    g = _load_graph(args)
    cfg = _config(g, args)
    human = Player.DOMINATOR if args.human == "d" else Player.STALLER
    st = initial_state(cfg)
    print(f"playing on {g.n} vertices; you are "
          f"{'Dominator' if human is Player.DOMINATOR else 'Staller'}")
    while True:
        state = status(g, cfg, st)
        if state is Status.WON:
            print(f"game over in {st.moves_made()} moves")
            return 0
        if state is Status.STUCK:
            print("game cannot be finished: NEVER")
            return 2
        print(f"played {g.format_set(st.played)}, "
              f"dominated {g.format_set(dominated(g, cfg, st))}")
        who = mover(cfg, st)
        if who is human:
            action = _read_action(g, cfg, st)
        else:
            action = optimal_move(g, cfg, st)
            shown = action if action == PASS else g.label(action)
            print(f"engine ({who.value}) plays {shown}")
        if action == PASS:
            st = apply_pass(cfg, st)
        else:
            st = apply_move(g, cfg, st, action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdgame",
        description="exact solver and verification harness for the connected "
                    "domination game")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--family", help="family spec, e.g. path:7 or lex:cycle:5,complete:2")
        p.add_argument("--graph6", help="one graph6 line")
        p.add_argument("--input", help="graph6 file (first graph is used)")

    def add_game(p):
        p.add_argument("--variant", choices=sorted(v.value for v in Variant), default="d",
                       help="d/s: Dominator/Staller starts; dd/ss: the starter's "
                            "opponent skips the opening exchange")
        p.add_argument("--passes", type=int, default=0, metavar="K",
                       help="Staller pass budget")
        p.add_argument("--predominate", action="append", default=[], metavar="V",
                       help="vertex (label or index) predominated from the start; "
                            "repeatable or comma separated")

    p = sub.add_parser("solve", help="solve a single instance")
    add_input(p)
    add_game(p)
    p.add_argument("--time-budget", type=float, default=60.0, metavar="S")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the named claim suite")
    p.add_argument("--only", action="append", metavar="GROUP",
                   help=f"claim group(s) out of: {', '.join(analysis.GROUPS)}")
    p.add_argument("--corpus", help="graph6 corpus (bundled corpus by default)")
    p.add_argument("--output", help="write claim records as JSON lines")
    p.add_argument("--time-budget", type=float, default=60.0, metavar="S")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="predomination scan over a graph6 corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", help="write scan records as JSON lines (default stdout)")
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes, at most the CPU count "
                        "(default CDGAME_THREADS or 1)")
    p.add_argument("--time-budget", type=float, default=60.0, metavar="S")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("play", help="play against the solver")
    add_input(p)
    add_game(p)
    p.add_argument("--human", choices=("d", "s"), required=True,
                   help="which side you play")
    p.set_defaults(func=cmd_play)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    except OSError as exc:  # an output that cannot be written, such as a full disk
        if not isinstance(exc, BrokenPipeError):  # else the reader left (``scan ... | head``)
            print(f"error: {exc.strerror or exc}", file=sys.stderr)
        # point stdout at devnull so the flush at exit does not fail and print again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
