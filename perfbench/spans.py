"""In-memory span tracer wrapped around ``cdgame``'s public functions.

:func:`install` replaces every traced function at each name a ``cdgame``
module binds it under (``analysis.game_value``, ``cli.solve``, the
``analysis.GROUPS`` table, ...), so calls are seen exactly where callers
make them.  Each call becomes a span ``(name, start, end, parent)`` in a
per-process list; counts that only the return value carries (states
expanded, memo hits, oracle nodes) are summed per span name.  Nothing is
written until the process ends: the main process calls :func:`dump`, and
forked pool workers dump from a ``multiprocessing`` finalizer, one file
per process, so the program's own stdout is untouched.

Functions called once per search node (``engine.mover_at``,
``graph.bits``) are deliberately not wrapped; their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

#: traced function -> span name, grouped by the module that defines it
TARGETS = {
    "cdgame.graph": {
        "parse_graph6": "graph.parse_graph6",
        "read_graph6_file": "graph.read_graph6_file",
        "diameter": "graph.invariant.diameter",
        "is_complete": "graph.invariant.is_complete",
        "has_universal_vertex": "graph.invariant.has_universal_vertex",
        "is_join_two_noncomplete": "graph.invariant.is_join_two_noncomplete",
        "is_join_some_noncomplete": "graph.invariant.is_join_some_noncomplete",
        "lexicographic_product": "graph.lexicographic_product",
    },
    "cdgame.families": {"graph_from_spec": "families.graph_from_spec"},
    "cdgame.engine": {
        "legal_moves": "engine.legal_moves",
        "status": "engine.status",
        "apply_move": "engine.apply_move",
        "apply_pass": "engine.apply_pass",
        "mover": "engine.mover",
        "dominated": "engine.dominated",
    },
    "cdgame.solver": {
        "solve": "solver.solve",
        "game_value": "solver.game_value",
        "optimal_move": "solver.optimal_move",
        "solve_naive": "oracle.solve_naive",
    },
    "cdgame.analysis": {
        "load_corpus": "analysis.load_corpus",
        "run_suite": "analysis.run_suite",
        "predomination_scan": "analysis.predomination_scan",
    },
    "cdgame.cli": {"main": "cli.main", "_scan_one": "cli.scan_one"},
}


class Tracer:
    """Spans and counts of one process."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []

    def _in_this_process(self):
        if os.getpid() != self.pid:
            # a forked pool worker: start empty, dump when the worker exits
            self._reset()
            from multiprocessing import util
            util.Finalize(None, self.dump, exitpriority=100)

    def count(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        is_oracle = name == "oracle.solve_naive"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._in_this_process()
            if is_oracle:
                # solve_naive(g, cfg, stats=None) reports its node count
                # only into a dict it is given
                caller_stats = args[2] if len(args) > 2 else kwargs.get("stats")
                args, kwargs = args[:2], {"stats": {}}
            parent = self.stack[-1] if self.stack else -1
            span = [nid, clock(), 0.0, parent]
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            states = getattr(result, "states_expanded", None)
            if states is not None:
                self.count(name + ".states_expanded", states)
                self.count(name + ".memo_hits", result.memo_hits)
            if is_oracle:
                self.count("oracle.nodes", kwargs["stats"]["nodes"])
                if caller_stats is not None:
                    caller_stats.update(kwargs["stats"])
            return result

        return traced

    def dump(self):
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"run_id": self.run_id, "pid": self.pid, "names": self.names,
                       "spans": self.spans, "counts": self.counts}, fh)


def install(out_dir: str, run_id: str) -> Tracer:
    """Import every ``cdgame`` module and wrap the traced functions at
    every name bound to them."""
    import cdgame  # noqa: F401
    from cdgame import analysis, cli, engine, families, graph, solver  # noqa: F401
    tracer = Tracer(out_dir, run_id)
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "cdgame" or key.startswith("cdgame."))]
    for mod_name, functions in TARGETS.items():
        home = sys.modules[mod_name]
        for attr, span_name in functions.items():
            original = getattr(home, attr)
            wrapped = tracer.wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    groups = analysis.GROUPS
    for group, fn in list(groups.items()):
        groups[group] = tracer.wrap(f"analysis.group.{group}", fn)
    return tracer


def load(out_dir: str) -> list[dict]:
    """Every process's dump in ``out_dir``."""
    dumps = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-"):
            with open(os.path.join(out_dir, entry), encoding="ascii") as fh:
                dumps.append(json.load(fh))
    return dumps


def summarize(dumps: list[dict]) -> dict:
    """Per span name: calls, total time, and self time (duration minus the
    part its direct children cover; spans of one process nest, since the
    program is single-threaded within a process).  Counts are summed."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, int] = {}
    for d in dumps:
        names, spans = d["names"], d["spans"]
        child_time = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        for key, value in d["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"calls": calls, "total_s": total, "self_s": self_time, "counts": counts,
            "processes": len(dumps)}
