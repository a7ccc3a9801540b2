#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs ``run.py`` once per seed, one after another, and prints for every
end-to-end metric the median of the runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, next to the bound ``BENCHMARK.json`` gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds",
                              str(seconds), "--trace", "0"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {line}",
              flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:16s} median {med:12.6g}  iqr/median {(q3 - q1) / med:7.4f}  "
              f"bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
