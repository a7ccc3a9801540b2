#!/usr/bin/env python3
"""cdgame benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads, metrics and the reasons for them are in ``perfbench/NOTES.md``.

Untraced (``--trace 0``): set up ``SETUP_REPEATS`` times and keep the
median, then repeat the workload's fixed job for ``--seconds`` seconds
(at least once; a job is not started when the median job would overrun)
and report the end-to-end metrics.  Their times are host-adjusted: each
job's process times a fixed reference loop just before its work, and the
job's times are scaled by ``REF_S`` over that time; the times as measured
are printed and recorded beside them.  Traced (``--trace 1``): one untraced
job, then the same job with every public ``cdgame`` function wrapped in
spans (``spans.py``), and the per-layer metrics derived from them.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show every
metric with its unit, and a fuller record (environment, input digest,
per-job times, every per-layer figure) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 15
#: the host reference loop's time on an idle core of the machine the
#: benchmark was written on; a job's times are scaled by REF_S / its own
#: reference time (see NOTES.md, "Host-adjusted times")
REF_S = 0.07
SCAN_THREADS = 2
TIME_BUDGET = 60.0
CHILD = [sys.executable, str(HERE / "child.py")]


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, k):
    """The k-th decile cut (k=5 is the median, k=9 the 90th percentile)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[k - 1]


class Job:
    """What one fresh process of the workload produced.  Every time is
    kept twice: as measured, and host-adjusted (``*_adj``): multiplied by
    ``scale``, REF_S over the host reference time the child measured just
    before the work.  Without ``adjust`` the scale stays 1; the reference
    time is still recorded."""

    def __init__(self, adjust: bool = True):
        self.adjust = adjust
        self.ref_s: list[float] = []
        self.scale = 1.0
        self.wall = self.wall_adj = 0.0
        self.first_record = self.first_record_adj = None
        # reply latencies in batches: the job's, or one per play round
        # (PlayReplies fills these itself)
        self.replies_ms: list[list[float]] = [[]]
        self.replies_adj_ms: list[list[float]] = [[]]
        self.attempted = 0
        self.failed = 0

    def reference(self, line: str):
        self.ref_s.append(json.loads(line)["ref_s"])
        if self.adjust:
            self.scale = REF_S / self.ref_s[-1]

    def reply(self, ms: float):
        self.replies_ms[-1].append(ms)
        self.replies_adj_ms[-1].append(ms * self.scale)

    def record(self, t: float):
        """An output record arrived ``t`` seconds after the job started."""
        if self.first_record is None:
            self.first_record, self.first_record_adj = t, t * self.scale
        self.reply(t * 1e3)

    def finish(self, wall: float):
        self.wall, self.wall_adj = wall, wall * self.scale


def launch(args: list[str], on_line, job: Job | None = None,
           trace_dir: Path | None = None, run_id: str = ""):
    """Run ``child.py`` and hand its stdout lines to ``on_line(line, t)``;
    returns (exit code, seconds to exit).  With a ``job``, the child's
    first line is its host reference time, which goes to ``job``; the
    clock starts when it arrives, so the loop is not part of the job's
    time.  Without one, the clock starts at launch.  The child is always
    waited for."""
    cmd = CHILD + args
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir), "--run-id", run_id]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        lines = iter(proc.stdout)
        if job is not None:
            first = next(lines, None)
            start = time.perf_counter()
            if first is not None:
                job.reference(first)
        for line in lines:
            on_line(line, time.perf_counter() - start)
    finally:
        proc.stdout.close()
        code = proc.wait()
    return code, time.perf_counter() - start


class Workload:
    name = ""
    #: whether the job's times are host-adjusted (see NOTES.md)
    adjust = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def write(self, name: str, obj) -> Path:
        path = self.work / name
        path.write_text(json.dumps(obj), encoding="ascii")
        return path

    def setup_once(self) -> float:
        start = time.perf_counter()
        code, _ = launch(["setup", str(self.setup_spec)], lambda line, t: None)
        if code != 0:
            raise RuntimeError(f"{self.name}: set-up exited with {code}")
        return time.perf_counter() - start


class VerifySuite(Workload):
    """``cdgame verify`` over an eighth of the bundled corpus; a reply is
    one claim line."""
    name = "verify-suite"

    def prepare(self):
        lines = inputs.verify_corpus()
        corpus = self.work / "corpus.g6"
        corpus.write_text("\n".join(lines) + "\n", encoding="ascii")
        self.output = self.work / "claims.jsonl"
        self.setup_spec = self.write("setup.json", {"workload": self.name,
                                                    "corpus": str(corpus)})
        self.spec = self.write("job.json", {"argv": [
            "verify", "--corpus", str(corpus), "--output", str(self.output)]})
        return {"corpus": lines}

    def job(self, trace_dir=None, run_id=""):
        job = Job(self.adjust)

        def on_line(line, t):
            if not line[:1].isdigit():  # the "N claims, M not passing" summary is not a claim
                job.record(t)

        code, wall = launch(["cli", str(self.spec)], on_line, job, trace_dir, run_id)
        job.finish(wall)
        records = []
        if code in (0, 1) and self.output.exists():
            records = [json.loads(ln) for ln in
                       self.output.read_text(encoding="ascii").splitlines() if ln]
        job.attempted, job.failed = checks.check_verify(records)
        return job


class ScanPool(Workload):
    """``cdgame scan --threads 2`` on the seeded corpus; a reply is one
    JSON record on stdout.  Its times are not host-adjusted: the pool
    runs on every CPU, and the one-CPU reference loop does not predict it."""
    name = "scan-pool"
    adjust = False

    def prepare(self):
        self.lines = inputs.scan_corpus(self.seed)
        corpus = self.work / "corpus.g6"
        corpus.write_text("\n".join(self.lines) + "\n", encoding="ascii")
        self.setup_spec = self.write("setup.json", {"workload": self.name,
                                                    "corpus": str(corpus),
                                                    "threads": SCAN_THREADS})
        self.specs = {threads: self.write(f"job{threads}.json", {"argv": [
            "scan", "--corpus", str(corpus), "--threads", str(threads),
            "--time-budget", str(TIME_BUDGET)]}) for threads in (1, SCAN_THREADS)}
        return {"corpus": self.lines}

    def job(self, trace_dir=None, run_id="", threads=SCAN_THREADS):
        job = Job(self.adjust)
        records = []

        def on_line(line, t):
            job.record(t)
            records.append(json.loads(line))

        code, wall = launch(["cli", str(self.specs[threads])], on_line, job, trace_dir, run_id)
        job.finish(wall)
        if code != 0:
            records = []
        job.attempted, job.failed = checks.check_scan(self.seed, self.lines, records)
        return job


class PlayReplies(Workload):
    """A closed loop with one client: the engine answers a seeded
    scripted opponent; a reply is one ``optimal_move`` call, and the first
    record is a game's first reply, timed from the start of that game."""
    name = "play-replies"

    def prepare(self):
        self.games = inputs.play_games(self.seed)
        distinct = {json.dumps({k: g[k] for k in ("family", "graph6", "variant", "passes")},
                               sort_keys=True) for g in self.games}
        self.setup_spec = self.write("setup.json", {
            "workload": self.name, "items": [json.loads(d) for d in sorted(distinct)]})
        self.spec = self.write("job.json", {"games": self.games,
                                            "pass_probability": inputs.PLAY_PASS_PROBABILITY})
        return {"games": self.games, "pass_probability": inputs.PLAY_PASS_PROBABILITY}

    def job(self, trace_dir=None, run_id=""):
        """Each round is adjusted by the mean of the reference loops just
        before and just after it (the next round's, or the final one)."""
        job = Job(self.adjust)
        games, per_game = [], [0]
        rounds = [{"replies": [], "first": [], "s": 0.0}]

        def on_line(line, t):
            rec = json.loads(line)
            if "reply_ms" in rec:
                rounds[-1]["replies"].append(rec["reply_ms"])
                per_game[-1] += 1
            elif "game" in rec:
                games.append(rec)
                per_game.append(0)
                if rec["first_reply_s"] is not None:
                    rounds[-1]["first"].append(rec["first_reply_s"])
            elif "round_s" in rec:
                rounds[-1]["s"] = rec["round_s"]
                rounds.append({"replies": [], "first": [], "s": 0.0})
            elif "ref_s" in rec:
                job.ref_s.append(rec["ref_s"])

        code, _ = launch(["play", str(self.spec)], on_line, job, trace_dir, run_id)
        rounds.pop()  # opened by the last round_s
        refs = job.ref_s
        scales = [REF_S * 2 / (refs[k] + refs[k + 1])
                  if self.adjust and k + 1 < len(refs) else 1.0 for k in range(len(rounds))]
        job.replies_ms = [r["replies"] for r in rounds]
        job.replies_adj_ms = [[ms * sc for ms in r["replies"]] for r, sc in zip(rounds, scales)]
        job.wall = sum(r["s"] for r in rounds)
        job.wall_adj = sum(r["s"] * sc for r, sc in zip(rounds, scales))
        job.first_record = median([f for r in rounds for f in r["first"]])
        job.first_record_adj = median([f * sc for r, sc in zip(rounds, scales) for f in r["first"]])
        if code != 0:
            games = []
        job.attempted, job.failed = checks.check_play(self.seed, games, per_game[:-1],
                                                      len(self.games))
        return job


WORKLOADS = {cls.name: cls for cls in (VerifySuite, ScanPool, PlayReplies)}


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "load_avg_start": list(os.getloadavg()), "git_sha": None, "cpu_model": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        env["git_sha"] = out.stdout.strip() or None
    # the checkout the benchmark runs in may not be a git repository
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env["source_sha256"] = digest.hexdigest()[:16]
    return env


def spread(values: list[float]) -> dict:
    out = {"n": len(values), "median": median(values), "min": min(values, default=0.0),
           "max": max(values, default=0.0)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["iqr_share"] = (q3 - q1) / out["median"] if out["median"] else None
    return out


def untraced_run(w: Workload, seconds: float) -> tuple[dict, list[Job], dict]:
    setups = [w.setup_once() for _ in range(SETUP_REPEATS)]
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        jobs.append(w.job())
        elapsed = time.perf_counter() - start
        if elapsed + median([j.wall for j in jobs]) > seconds:
            break
    rss_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    def times(adj: str):
        wall = [getattr(j, "wall" + adj) for j in jobs]
        first = [getattr(j, "first_record" + adj) or w for j, w in zip(jobs, wall)]
        replies = [b for j in jobs for b in getattr(j, "replies" + adj + "_ms") if b]
        return {f"wall{adj}_s": (median(wall), "s"),
                f"first_record{adj}_s": (median(first), "s"),
                f"reply_p50{adj}_ms": (median([quantile(r, 5) for r in replies]), "ms"),
                f"reply_p90{adj}_ms": (median([quantile(r, 9) for r in replies]), "ms")}

    adjusted, measured = times("_adj"), times("")
    metrics = {**adjusted, "setup_s": (median(setups), "s"),
               "peak_rss_mb": (rss_kb / 1024, "MB")}
    detail = {"setup_s": spread(setups), "wall_s": spread([j.wall for j in jobs]),
              "wall_adj_s": spread([j.wall_adj for j in jobs]),
              "scale": spread([j.wall_adj / j.wall for j in jobs if j.wall]),
              "ref_s": spread([r for j in jobs for r in j.ref_s]),
              "measured": {k: v[0] for k, v in measured.items()},
              "replies": sum(len(b) for j in jobs for b in j.replies_ms),
              "reply_batches": sum(len(j.replies_ms) for j in jobs), "jobs": len(jobs)}
    return metrics, jobs, detail


def layer_metrics(untraced: Job, traced: Job, summary: dict,
                  single_worker: Job | None) -> tuple[dict, dict]:
    """Per-layer figures from the traced job's spans.  Returns the
    declared metrics (every workload reports each of them) and the
    workload-specific figures that are printed and recorded besides."""
    calls, total, self_s, counts = (summary["calls"], summary["total_s"],
                                    summary["self_s"], summary["counts"])

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    parse_names = ("graph.parse_graph6", "graph.read_graph6_file")
    parsed = calls.get("graph.parse_graph6", 0)
    parse_s = sum(self_s.get(k, 0.0) for k in parse_names)
    solver_calls = layer("solver.", calls)
    solver_total = layer("solver.", total)
    states = counts.get("solver.solve.states_expanded", 0)
    hits = counts.get("solver.solve.memo_hits", 0)
    declared = {
        "graph.parse_s": (parse_s, "s"),
        "graph.parse_per_s": (parsed / parse_s if parse_s else 0.0, "1/s"),
        "graph.parse_calls": (parsed, "count"),
        "graph.invariant_calls": (layer("graph.invariant.", calls), "count"),
        "solver.calls": (solver_calls, "count"),
        "solver.self_s": (layer("solver.", self_s), "s"),
        "solver.us_per_call": (solver_total / solver_calls * 1e6 if solver_calls else 0.0,
                               "us"),
        "solver.states_expanded": (states, "count"),
        "solver.memo_hits": (hits, "count"),
        "oracle.calls": (calls.get("oracle.solve_naive", 0), "count"),
        "oracle.nodes": (counts.get("oracle.nodes", 0), "count"),
        "analysis.group_calls": (layer("analysis.group.", calls), "count"),
        "analysis.scan_calls": (calls.get("analysis.predomination_scan", 0), "count"),
        "cli.scan_jobs": (calls.get("cli.scan_one", 0), "count"),
        "engine.calls": (layer("engine.", calls), "count"),
        "engine.legal_moves_calls": (calls.get("engine.legal_moves", 0), "count"),
        "trace.overhead_s": (traced.wall_adj - untraced.wall_adj, "s"),
    }

    extra = {
        "graph.invariants_s": (layer("graph.invariant.", self_s), "s"),
        "solver.hit_ratio": (hits / (hits + states) if states else None, "ratio"),
        "solver.states_per_s": (states / total["solver.solve"] if states else None, "1/s"),
        "oracle.self_s": (self_s.get("oracle.solve_naive"), "s"),
        "oracle.nodes_per_s": (counts["oracle.nodes"] / total["oracle.solve_naive"]
                               if "oracle.nodes" in counts else None, "1/s"),
        "analysis.self_s": (layer("analysis.", self_s), "s"),
        "analysis.scan_s": (total.get("analysis.predomination_scan"), "s"),
        "engine.self_s": (layer("engine.", self_s), "s"),
        "engine.legal_moves_per_s": (
            calls["engine.legal_moves"] / total["engine.legal_moves"]
            if calls.get("engine.legal_moves") else None, "1/s"),
    }
    for key in sorted(self_s):
        if key.startswith("analysis.group."):
            extra[key + "_s"] = (total[key], "s")
    if single_worker is not None:
        busy = total.get("cli.scan_one", 0.0)
        extra["cli.pool_busy_ratio"] = (busy / (traced.wall * SCAN_THREADS), "ratio")
        extra["cli.pool_speedup"] = (single_worker.wall_adj / untraced.wall_adj, "ratio")
        extra["cli.single_worker_wall_s"] = (single_worker.wall, "s")
    extra = {k: v for k, v in extra.items() if v[0]}  # layers this workload reached
    return declared, extra


def traced_run(w: Workload) -> tuple[dict, dict, list[Job]]:
    untraced = w.job()
    single = w.job(threads=1) if isinstance(w, ScanPool) else None
    trace_dir = w.work / "spans"
    trace_dir.mkdir()
    traced = w.job(trace_dir=trace_dir, run_id=f"{w.name}/seed{w.seed}/traced")
    summary = spans.summarize(spans.load(trace_dir))
    declared, extra = layer_metrics(untraced, traced, summary, single)
    extra["trace.processes"] = (summary["processes"], "count")
    jobs = [j for j in (untraced, single, traced) if j is not None]
    return declared, extra, jobs


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cdgame" / "__init__.py").is_file():
        print(f"error: no cdgame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](args.seed, work)
        input_hash = inputs.digest(w.prepare())
        if args.trace:
            metrics, extra, jobs = traced_run(w)
            detail = {"extra": {k: v[0] for k, v in extra.items()}}
        else:
            metrics, jobs, detail = untraced_run(w, args.seconds)
            extra = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    print(f"workload {args.workload}  seed {args.seed}  inputs {input_hash}  "
          f"trace {args.trace}  jobs {len(jobs)}")
    print("environment " + json.dumps(env))
    if not args.trace:
        print(f"replies {detail['replies']} in {detail['reply_batches']} batches  "
              f"job wall spread {json.dumps(detail['wall_s'])}")
        print(f"host scale REF_S/ref_s per job {json.dumps(detail['scale'])}")
        print("as measured, not host-adjusted: " + "  ".join(
            f"{k} {fmt(v)}" for k, v in detail["measured"].items()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:44s} {fmt(value):>14s} {unit}")
    if args.trace:
        print(f"  (every traced figure above carries the tracing overhead "
              f"trace.overhead_s = {fmt(metrics['trace.overhead_s'][0])} s)")
    print(f"operations {attempted}, failed {failed} "
          f"(fail ratio {failed / max(attempted, 1):.6g})")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "input_hash": input_hash, "environment": env, "detail": detail,
              "attempted": attempted, "failed": failed,
              "metrics": {k: v[0] for k, v in metrics.items()},
              "job_walls": [j.wall for j in jobs]}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
