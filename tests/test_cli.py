import json
import os
import subprocess
import sys
from pathlib import Path

import cdgame
from cdgame import cli
from cdgame.families import cycle, predomination_penalty_graph
from cdgame.graph import emit_graph6

ROOT = Path(__file__).resolve().parent.parent
# the child process imports the same package as this one, however pytest found it
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(cdgame.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))}


def run_cli(*args, stdin=""):
    return subprocess.run([sys.executable, "-m", "cdgame.cli", *args],
                          capture_output=True, text=True, input=stdin,
                          env=CHILD_ENV, timeout=300)


def test_solve_family():
    out = run_cli("solve", "--family", "gn:3", "--variant", "d")
    assert out.returncode == 0
    assert "value = 3" in out.stdout
    assert "D:u3" in out.stdout


def test_solve_reports_search_stats():
    out = run_cli("solve", "--family", "cart:path:4,path:5")
    assert out.returncode == 0
    stats = out.stdout.splitlines()[2]
    assert stats.startswith("states expanded = 2226, memo hits = 10038, "
                            "memo entries = 2226, states/s = ")
    assert stats.endswith(" s")


def test_solve_predominated_by_label():
    out = run_cli("solve", "--family", "fig3", "--variant", "d",
                  "--predominate", "c")
    assert out.returncode == 0
    assert "value = 8" in out.stdout


def test_solve_never_exit_code():
    out = run_cli("solve", "--family", "path:5", "--variant", "s",
                  "--predominate", "2")
    assert out.returncode == 2
    assert "value = NEVER" in out.stdout


def test_solve_parse_error_exit_code():
    out = run_cli("solve", "--family", "wat:3")
    assert out.returncode == 1
    assert "error" in out.stderr


def test_solve_requires_one_input():
    out = run_cli("solve", "--family", "path:3", "--graph6", "A_")
    assert out.returncode == 1
    out = run_cli("solve")
    assert out.returncode == 1


def test_solve_graph6_literal():
    out = run_cli("solve", "--graph6", "A_")
    assert out.returncode == 0 and "value = 1" in out.stdout


def test_solve_from_file(tmp_path):
    target = tmp_path / "one.g6"
    target.write_text(emit_graph6(cycle(5)) + "\n")
    out = run_cli("solve", "--input", str(target))
    assert out.returncode == 0 and "value = 3" in out.stdout


def test_verify_group_pass():
    out = run_cli("verify", "--only", "hamming")
    assert out.returncode == 0
    assert "4 claims, 0 not passing" in out.stdout


def test_verify_group_with_known_divergence():
    out = run_cli("verify", "--only", "ladders")
    assert out.returncode == 1
    assert "16 claims, 4 not passing" in out.stdout


def test_verify_unknown_group():
    out = run_cli("verify", "--only", "nope")
    assert out.returncode == 1


def test_verify_output_jsonl(tmp_path):
    target = tmp_path / "claims.jsonl"
    out = run_cli("verify", "--only", "paths-cycles", "--output", str(target))
    assert out.returncode == 0
    records = [json.loads(line) for line in target.read_text().splitlines()]
    assert len(records) == 26
    assert all(r["verdict"] == "pass" for r in records)
    assert {"claim", "instance", "expected", "observed", "verdict",
            "elapsed"} == set(records[0])


def test_verify_records_match_benchmark_reference(tmp_path, capsys):
    # The benchmark's verify slice: every 8th graph of the bundled corpus.
    # Every record, elapsed aside, must equal the committed reference.
    lines = (ROOT / "src/cdgame/data/graphs7.g6").read_text().splitlines()
    corpus = tmp_path / "slice.g6"
    corpus.write_text("\n".join(lines[::8]) + "\n")
    target = tmp_path / "claims.jsonl"
    assert cli.main(["verify", "--corpus", str(corpus), "--output", str(target)]) == 1
    capsys.readouterr()
    reference = [json.loads(ln) for ln in
                 (ROOT / "perfbench/reference/verify.jsonl").read_text().splitlines()]
    records = [json.loads(ln) for ln in target.read_text().splitlines()]
    assert len(records) == len(reference)
    for ref, rec in zip(reference, records):
        assert {k: v for k, v in rec.items() if k != "elapsed"} == ref


def test_verify_missing_corpus():
    out = run_cli("verify", "--only", "pass", "--corpus", "/does/not/exist.g6")
    assert out.returncode == 1
    assert "not found" in out.stderr


def test_verify_bad_graph6_line(tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\n\n!!\n")
    out = run_cli("verify", "--only", "pass", "--corpus", str(corpus))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {corpus}:3: ")
    assert "Traceback" not in out.stderr


def test_scan_bad_graph6_line(tmp_path):
    corpus = tmp_path / "bad.g6"
    corpus.write_text("A_\n\nA_\nB!\n")
    out = run_cli("scan", "--corpus", str(corpus))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {corpus}:4: ")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""  # checked before any record is written


def _non_ascii_corpus(tmp_path):
    corpus = tmp_path / "latin1.g6"
    corpus.write_bytes(b"A_\n\xff\n")
    return corpus


def test_scan_non_ascii_line(tmp_path):
    corpus = _non_ascii_corpus(tmp_path)
    out = run_cli("scan", "--corpus", str(corpus))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {corpus}:2: ")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_verify_non_ascii_line(tmp_path):
    corpus = _non_ascii_corpus(tmp_path)
    out = run_cli("verify", "--only", "pass", "--corpus", str(corpus))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {corpus}:2: ")


def test_solve_input_non_ascii_or_missing(tmp_path):
    corpus = _non_ascii_corpus(tmp_path)
    out = run_cli("solve", "--input", str(corpus))
    assert out.returncode == 1
    assert out.stderr.startswith(f"error: {corpus}:2: ")
    missing = run_cli("solve", "--input", str(tmp_path / "none.g6"))
    assert missing.returncode == 1
    assert "not found" in missing.stderr and "Traceback" not in missing.stderr


def test_verify_rejects_disconnected_corpus_graph(tmp_path):
    corpus = tmp_path / "split.g6"
    corpus.write_text("A_\n\nA?\n")  # K2, then 2K1
    out = run_cli("verify", "--only", "small-values", "--corpus", str(corpus))
    assert out.returncode == 1
    assert out.stderr == f"error: {corpus}:3: graph is disconnected\n"
    assert out.stdout == ""
    scan = run_cli("scan", "--corpus", str(corpus))  # scan reports it instead
    assert scan.returncode == 0
    assert json.loads(scan.stdout.splitlines()[1])["value"] == "never"


def test_scan_jsonl(tmp_path):
    corpus = tmp_path / "two.g6"
    corpus.write_text(emit_graph6(cycle(6)) + "\n"
                      + emit_graph6(predomination_penalty_graph()) + "\n")
    out = run_cli("scan", "--corpus", str(corpus))
    assert out.returncode == 0
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["line"] for r in records] == [1, 2]
    assert records[0]["per_vertex"] == [3] * 6
    assert records[0]["max_decrease"] == 1
    assert records[1]["max_increase"] == 1
    assert "max increase 1" in out.stderr


def test_scan_threads_match_sequential(tmp_path, corpus):
    path_ = tmp_path / "slice.g6"
    path_.write_text("\n".join(emit_graph6(g) for g in corpus[:40]) + "\n")
    seq = run_cli("scan", "--corpus", str(path_), "--threads", "1")
    par = run_cli("scan", "--corpus", str(path_), "--threads", "2")
    assert seq.returncode == par.returncode == 0
    assert seq.stdout == par.stdout


def test_scan_rejects_bad_thread_counts(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "one.g6"
    corpus.write_text("A_\n")
    target = tmp_path / "scan.jsonl"
    argv = ["scan", "--corpus", str(corpus), "--output", str(target)]
    for raw in ("abc", "-2", "1.5"):
        monkeypatch.setenv("CDGAME_THREADS", raw)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: CDGAME_THREADS must be a nonnegative integer, got {raw!r}\n")
    assert cli.main(argv + ["--threads", "-1"]) == 1  # checked before the variable
    assert capsys.readouterr().err == "error: --threads must be nonnegative, got -1\n"
    assert not target.exists()  # rejected before any output is opened
    monkeypatch.setenv("CDGAME_THREADS", "1")
    assert cli.main(argv) == 0


def test_scan_streams_finished_records(tmp_path, monkeypatch):
    corpus = tmp_path / "three.g6"
    corpus.write_text("A_\nBw\nCF\n")
    real = cli._scan_one

    def interrupted(job):
        if job[0] == 3:
            raise KeyboardInterrupt
        return real(job)

    monkeypatch.setattr(cli, "_scan_one", interrupted)
    target = tmp_path / "scan.jsonl"
    argv = ["scan", "--corpus", str(corpus), "--output", str(target), "--threads", "1"]
    assert cli.main(argv) == 130
    assert [json.loads(ln)["line"] for ln in target.read_text().splitlines()] == [1, 2]


def test_play_engine_opening_and_reprompt():
    # Human is Staller on gn:2: engine must open on u2, the human's only
    # reply is u1; bogus entries are re-prompted, not fatal.
    out = run_cli("play", "--family", "gn:2", "--human", "s",
                  stdin="zzz\n99\nu1\n")
    assert out.returncode == 0
    assert "engine (D) plays u2" in out.stdout
    assert "no vertex labeled 'zzz'" in out.stdout
    assert "out of range" in out.stdout
    assert "game over in 2 moves" in out.stdout


def test_play_complete_graph_ends_immediately():
    out = run_cli("play", "--family", "complete:4", "--human", "s")
    assert out.returncode == 0
    assert "game over in 1 moves" in out.stdout


def test_play_staller_pass():
    out = run_cli("play", "--family", "path:6", "--human", "s", "--passes", "1",
                  stdin="pass\n3\n")
    assert out.returncode == 0
    assert "or 'pass'" in out.stdout
    assert "game over in 4 moves" in out.stdout


def test_predominate_label_forms():
    # underscore form of a family label
    out = run_cli("solve", "--family", "gn:3", "--predominate", "u_1")
    assert out.returncode == 0
    # ladder coordinate label
    out = run_cli("solve", "--family", "cl:5", "--predominate", "(1,1)")
    assert out.returncode == 0 and "value = 5" in out.stdout
    # several vertices, mixed comma list and repeats
    out = run_cli("solve", "--family", "path:5", "--predominate", "1,2",
                  "--predominate", "3")
    assert out.returncode == 2  # interior predomination sticks the d-game
    out = run_cli("solve", "--family", "path:5", "--predominate", "nosuch")
    assert out.returncode == 1


def test_play_illegal_move_reprompted():
    # On path:5 after the engine opens, vertex 4 is not adjacent to the
    # played set, so it is rejected and the prompt repeats.
    out = run_cli("play", "--family", "path:4", "--human", "s",
                  stdin="0\n2\n")
    assert out.returncode == 0
    assert "not a legal move" in out.stdout
    assert "game over in 2 moves" in out.stdout


def test_play_input_ends_early():
    # stdin at EOF, at once or after a rejected line, is bad input, not a traceback
    for stdin in ("", "zz\n"):
        out = run_cli("play", "--family", "path:4", "--human", "s", stdin=stdin)
        assert out.returncode == 1
        assert out.stderr == "error: input ended before the game finished\n"
        assert "engine (D) plays 1" in out.stdout


def test_time_budget_must_be_positive(tmp_path, capsys):
    # a NaN budget never expires, since every comparison with it is false
    corpus = tmp_path / "one.g6"
    corpus.write_text("A_\n")
    commands = (["solve", "--family", "path:4"], ["verify", "--only", "pass"],
                ["scan", "--corpus", str(corpus)])
    for argv in commands:
        for budget, shown in (("nan", "nan"), ("0", "0"), ("-1.5", "-1.5")):
            assert cli.main([*argv, "--time-budget", budget]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: --time-budget must be a positive number "
                                    f"of seconds, got {shown}\n")


def test_solve_budget_exceeded_shows_the_budget():
    out = run_cli("solve", "--family", "cart:path:5,path:5", "--time-budget", "0.001")
    assert out.returncode == 3
    assert out.stdout == "budget exceeded (0.001 s)\n"
