"""Output checks behind ``failed``: compare with the reference outputs in
``reference/`` (made by ``make_reference.py`` at the commit that defined
the benchmark) and check what has no reference on its own terms.

Each ``check_*`` returns ``(attempted, failed)`` for one job.  Records are
compared on the keys the reference has, ``elapsed`` excepted, so a record
that gains a field (say, per-solve stats) still compares equal.  The claims
that fail by design (``small-value/d-two``, ``small-value/s-two`` and
``ladder/*-predominated`` at n in {6, 7}) carry verdict ``fail`` in the
reference, so they are expected outcomes, not failures.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(ln) for ln in path.read_text(encoding="ascii").splitlines() if ln]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="ascii"))


def seed_reference(seed: int) -> dict | None:
    """Outputs for the seeded inputs, kept for the default and one
    held-out seed only."""
    path = REFERENCE / f"seed{seed}.json"
    return _read_json(path) if path.exists() else None


def same(reference: dict, record: dict) -> bool:
    return all(record.get(key) == value for key, value in reference.items()
               if key != "elapsed")


def _mismatches(reference: list[dict], records: list[dict]) -> int:
    bad = sum(not same(ref, rec) for ref, rec in zip(reference, records))
    return bad + abs(len(reference) - len(records))


def check_verify(records: list[dict]) -> tuple[int, int]:
    reference = _read_jsonl(REFERENCE / "verify.jsonl")
    return len(reference), min(len(reference), _mismatches(reference, records))


def _consistent_scan_record(index: int, line: str, rec: dict) -> bool:
    """A scan record without a reference must at least agree with itself."""
    per_vertex, base = rec.get("per_vertex"), rec.get("value")
    if rec.get("line") != index or rec.get("graph6") != line or base in (None, "never"):
        return False
    if not isinstance(per_vertex, list) or len(per_vertex) != ord(line[0]) - 63:
        return False
    finite = [v for v in per_vertex if v != "never"]
    all_shift = all(v != base for v in per_vertex)
    max_inc = max((v - base for v in finite), default=None)
    return (rec.get("never_vertices") == [v for v, val in enumerate(per_vertex)
                                          if val == "never"]
            and rec.get("max_increase") == max_inc
            and rec.get("max_decrease") == max((base - v for v in finite), default=None)
            and rec.get("all_vertices_shift") == all_shift
            and rec.get("candidate") == (all_shift and max_inc is not None and max_inc > 0))


def check_scan(seed: int, lines: list[str], records: list[dict]) -> tuple[int, int]:
    bundled = _read_jsonl(REFERENCE / "scan-bundled.jsonl")
    seeded = seed_reference(seed)
    failed = _mismatches(bundled, records[:len(bundled)])
    rest = records[len(bundled):]
    if seeded is not None:
        failed += _mismatches(seeded["scan"], rest)
    else:
        failed += sum(not _consistent_scan_record(i, line, rec) for i, (line, rec)
                      in enumerate(zip(lines[len(bundled):], rest), start=len(bundled) + 1))
        failed += abs(len(lines) - len(records))
    return len(lines), min(len(lines), failed)


def check_play(seed: int, games: list[dict], replies_per_game: list[int],
               expected_games: int) -> tuple[int, int]:
    """Every engine reply must be legal (``engine.apply_move`` refuses an
    illegal one), and every game must end.  With a reference, the game
    must be move for move the same; a game that departs from it counts
    one failed reply."""
    seeded = seed_reference(seed)
    failed = sum(g["illegal"] for g in games)
    failed += sum(g["status"] != "won" for g in games)
    if seeded is not None:
        failed += sum(g["actions"] != ref for g, ref in zip(games, seeded["play"]))
        failed += abs(len(seeded["play"]) - expected_games)
    failed += expected_games - len(games)
    attempted = max(sum(replies_per_game), 1)
    return attempted, min(attempted, failed)
