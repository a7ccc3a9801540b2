"""One fresh process of a workload: ``python3 perfbench/child.py JOB SPEC``.

``SPEC`` is a JSON file written by ``run.py`` with the generated inputs.
The process imports ``cdgame`` from the checkout's ``src/`` and drives it
through its public functions or its CLI entry point:

- ``setup``: import ``cdgame``, load the workload's inputs, and start the
  scan pool's workers; nothing else.
- ``cli``: ``cdgame.cli.main`` with the given arguments (``verify`` or
  ``scan``); its stdout is the CLI's own output, unchanged.
- ``play``: the engine answers a seeded scripted opponent, the loop of
  ``cdgame play`` with the human replaced by the script; one JSON line per
  engine reply and per finished game (with the time from the game's start
  to the engine's first reply).

Every job but ``setup`` first runs the host reference loop
(:func:`host_reference`), before ``cdgame`` is imported, and prints its
time as the first line, ``{"ref_s": ...}``; ``run.py`` starts the job's
clock when that line arrives.  ``play`` prints each round's time as
``{"round_s": ...}`` and runs the loop again after every round, then
prints ``{"end": true}`` when the timed work is done.  With ``--trace DIR`` the
spans are written to ``DIR`` (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


#: steps of the host reference loop: about 70 ms on an idle core of the
#: 2-CPU sandbox the benchmark was written on
REFERENCE_STEPS = 300_000


def host_reference() -> float:
    """Seconds this process takes for a fixed pure-Python loop that never
    touches ``cdgame``: the speed of the CPU share the job is about to run
    on.  ``run.py`` scales the job's times by it (see NOTES.md)."""
    start = time.perf_counter()
    table, x = {}, 12345
    for _ in range(REFERENCE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x >> 18
        table[key] = table.get(key, 0) + (x & 7)
    return time.perf_counter() - start


def emit(record: dict):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def build_graph(item: dict):
    from cdgame import families, graph
    if item["family"]:
        return families.graph_from_spec(item["family"])
    return graph.parse_graph6(item["graph6"])


def config(item: dict):
    from cdgame.engine import GameConfig, Variant
    pre = item.get("predominate")
    return GameConfig(Variant(item["variant"]), item["passes"],
                      0 if pre is None else 1 << pre)


def job_setup(spec: dict) -> int:
    from cdgame import analysis, cli, graph  # noqa: F401  (cli imports every module)
    workload = spec["workload"]
    if workload == "verify-suite":
        analysis.load_corpus(spec["corpus"])
    elif workload == "scan-pool":
        from concurrent.futures import ProcessPoolExecutor
        graph.read_graph6_file(spec["corpus"])
        with ProcessPoolExecutor(max_workers=spec["threads"]) as pool:
            list(pool.map(abs, range(spec["threads"])))
    else:
        for item in spec["items"]:
            config(item).validate_for(build_graph(item))
    return 0


def job_cli(spec: dict) -> int:
    from cdgame import cli
    return cli.main(spec["argv"])


def job_play(spec: dict, tracer) -> int:
    """Closed loop, one client: the script waits for every engine reply."""
    from cdgame import engine, solver
    from cdgame.engine import PASS, Player, Status
    games = spec["games"]
    round_start = time.perf_counter()
    for index, item in enumerate(games):
        if index and item["opening"]["rank"] != games[index - 1]["opening"]["rank"]:
            emit({"round_s": time.perf_counter() - round_start})
            emit({"ref_s": host_reference()})
            round_start = time.perf_counter()
        game_start = time.perf_counter()
        first_reply = None
        g, cfg = build_graph(item), config(item)
        script = random.Random(item["script"])
        engine_side = Player(item["engine"])
        opening = item["opening"]
        vertices = random.Random(opening["order"]).sample(range(g.n), g.n)
        st = engine.initial_state(cfg)
        actions, illegal = [], 0
        while engine.status(g, cfg, st) is Status.ONGOING:
            who = engine.mover(cfg, st)
            if who is engine_side:
                start = time.perf_counter()
                action = solver.optimal_move(g, cfg, st)
                end = time.perf_counter()
                emit({"reply_ms": (end - start) * 1e3})
                if first_reply is None:
                    first_reply = end - game_start
            elif not actions:
                action = vertices[opening["rank"] % g.n]  # any vertex may open
            elif (who is Player.STALLER and st.passes_left > 0
                  and script.random() < spec["pass_probability"]):
                action = PASS
            else:
                legal = engine.legal_moves(g, cfg, st)
                action = script.choice([v for v in range(g.n) if legal >> v & 1])
            actions.append(action)
            try:
                st = (engine.apply_pass(cfg, st) if action == PASS
                      else engine.apply_move(g, cfg, st, action))
            except ValueError:
                illegal += 1  # only an engine reply can be illegal here
                break
        emit({"game": index, "actions": actions, "illegal": illegal,
              "status": engine.status(g, cfg, st).value, "moves": st.moves_made(),
              "first_reply_s": first_reply})
    emit({"round_s": time.perf_counter() - round_start})
    emit({"ref_s": host_reference()})
    finish(tracer)
    return 0


def finish(tracer):
    """The timed work is over: say so, and write the spans."""
    emit({"end": True})
    if tracer is not None:
        tracer.dump()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("setup", "cli", "play"))
    parser.add_argument("spec")
    parser.add_argument("--trace", metavar="DIR")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    if args.job != "setup":
        emit({"ref_s": host_reference()})
    tracer = None
    if args.trace:
        import spans
        tracer = spans.install(args.trace, args.run_id)
    if args.job == "setup":
        return job_setup(spec)
    if args.job == "cli":
        code = job_cli(spec)
        if tracer is not None:
            tracer.dump()
        return code
    return job_play(spec, tracer)


if __name__ == "__main__":
    sys.exit(main())
