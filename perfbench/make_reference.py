#!/usr/bin/env python3
"""Write the reference outputs that ``checks.py`` compares against.

    python3 perfbench/make_reference.py [SEED ...]     (default: 1 2)

Run it only at a commit whose outputs are trusted: the files record what
that commit's ``cdgame`` answers, for the seed-independent inputs (the
verify-suite corpus and the bundled scan corpus) and
for each given seed's generated inputs.  ``elapsed`` is dropped from every
record; nothing else is changed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def collect(args: list[str]) -> list[dict]:
    records = []
    code, _ = run.launch(args, lambda line, t: records.append(line), run.Job())
    if code not in (0, 1):
        raise SystemExit(f"{args[0]} exited with {code}")
    return [json.loads(r) for r in records if r.startswith("{")]


def strip(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "elapsed"}


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]] or [1, 2]
    out = checks.REFERENCE
    out.mkdir(exist_ok=True)
    work = HERE / "out" / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        claims = work / "claims.jsonl"
        corpus = work / "verify.g6"
        corpus.write_text("\n".join(inputs.verify_corpus()) + "\n", encoding="ascii")
        spec = work / "verify.json"
        spec.write_text(json.dumps({"argv": ["verify", "--corpus", str(corpus),
                                             "--output", str(claims)]}), encoding="ascii")
        collect(["cli", str(spec)])
        records = [strip(json.loads(ln)) for ln in
                   claims.read_text(encoding="ascii").splitlines() if ln]
        (out / "verify.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="ascii")

        bundled = None
        for seed in seeds:
            corpus = work / "corpus.g6"
            corpus.write_text("\n".join(inputs.scan_corpus(seed)) + "\n", encoding="ascii")
            spec = work / "scan.json"
            spec.write_text(json.dumps({"argv": ["scan", "--corpus", str(corpus),
                                                 "--threads", str(run.SCAN_THREADS)]}),
                            encoding="ascii")
            scan = [strip(r) for r in collect(["cli", str(spec)])]
            n_bundled = len(inputs.BUNDLED_CORPUS.read_text(encoding="ascii").split())
            if bundled is None:
                bundled = scan[:n_bundled]
                (out / "scan-bundled.jsonl").write_text(
                    "".join(json.dumps(r) + "\n" for r in bundled), encoding="ascii")
            elif scan[:n_bundled] != bundled:
                raise SystemExit("the bundled part of the scan differs between seeds")

            spec = work / "play.json"
            spec.write_text(json.dumps({"games": inputs.play_games(seed),
                                        "pass_probability": inputs.PLAY_PASS_PROBABILITY}),
                            encoding="ascii")
            play = [r["actions"] for r in collect(["play", str(spec)]) if "game" in r]
            (out / f"seed{seed}.json").write_text(json.dumps(
                {"scan": scan[n_bundled:], "play": play}), encoding="ascii")
            print(f"seed {seed}: {len(scan)} scan records, {len(play)} games")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(records)} verify claims")
    return 0


if __name__ == "__main__":
    sys.exit(main())
