"""The interleaved A/B runner's aggregation, on canned worker replies."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_SPEC = importlib.util.spec_from_file_location("bench_interleaved", _SCRIPTS / "bench_interleaved.py")
bench_interleaved = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_interleaved)


def reply(push_ms: list[float], pull_ms: list[float], failed: int = 0) -> dict:
    """One worker's JSON reply for a block: wall times in seconds."""
    return {"push": [t / 1e3 for t in push_ms], "pull": [t / 1e3 for t in pull_ms], "failed": failed, "errors": []}


def test_block_p50s_are_medians_in_ms():
    p50s = bench_interleaved.block_p50s(reply([0.3, 0.1, 0.2], [0.4, 0.2]))
    assert p50s == pytest.approx({"push": 0.2, "pull": 0.3})


def test_summarize_spreads_block_p50s_and_counts_wins():
    blocks = [
        {"change": reply([0.20], [0.25]), "parent": reply([0.30], [0.30])},
        {"change": reply([0.40], [0.26]), "parent": reply([0.35], [0.31], failed=1)},
        {"change": reply([0.30, 0.10], [0.27]), "parent": reply([0.25], [0.29])},
    ]
    summary = bench_interleaved.summarize(blocks)
    push, pull = summary["push"], summary["pull"]
    assert push["change"] == pytest.approx({"median": 0.2, "q1": 0.2, "q3": 0.3})
    assert push["parent"] == pytest.approx({"median": 0.3, "q1": 0.275, "q3": 0.325})
    assert (push["wins"], push["blocks"]) == (2, 3)  # blocks 1 and 3
    assert pull["change"]["median"] == pytest.approx(0.26)
    assert pull["wins"] == 3
    assert pull["failed"] == {"change": 0, "parent": 1}


def test_report_names_each_tree_and_the_change():
    blocks = [{"change": reply([0.2], [0.2]), "parent": reply([0.4], [0.25])}]
    text = bench_interleaved.report(bench_interleaved.summarize(blocks))
    assert "push p50 change 0.2000 ms" in text
    assert "pull change -20.0%, won 1/1 blocks" in text
    assert "push change -50.0%, won 1/1 blocks" in text


def test_change_commit_falls_back_to_head_on_a_clean_tree(monkeypatch):
    answers = {("stash", "create"): "", ("rev-parse", "HEAD"): "abc123", ("rev-parse", "v1"): "def456"}
    # change_commit is shared with bench_pairs.py and runs git from there
    monkeypatch.setattr(sys.modules[bench_interleaved.change_commit.__module__], "git", lambda *args: answers[args])
    assert bench_interleaved.change_commit("worktree") == "abc123"
    assert bench_interleaved.change_commit("v1") == "def456"
    answers[("stash", "create")] = "f00d"
    assert bench_interleaved.change_commit("worktree") == "f00d"


def test_report_runs_counts_the_runs_the_change_won():
    runs = [
        [{"change": reply([0.2], [0.3]), "parent": reply([0.4], [0.25])}],
        [{"change": reply([0.3], [0.2]), "parent": reply([0.3], [0.25])}],
        [{"change": reply([0.1], [0.2]), "parent": reply([0.2], [0.25])}],
    ]
    text = bench_interleaved.report_runs([bench_interleaved.summarize(blocks) for blocks in runs])
    assert "push over 3 runs: change -50.0% in the median run, lower in 2/3 runs (-50.0% +0.0% -50.0%)" in text
    assert "pull over 3 runs: change -20.0% in the median run, lower in 2/3 runs (+20.0% -20.0% -20.0%)" in text


def test_the_header_names_the_machine_and_both_commits_in_full(monkeypatch, capsys):
    change, parent = "c" * 40, "p" * 40
    monkeypatch.setattr(bench_interleaved, "change_commit", lambda rev: change)
    monkeypatch.setattr(bench_interleaved, "git", lambda *args: parent)
    monkeypatch.setattr(bench_interleaved, "unpack", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(bench_interleaved, "run_blocks",
                        lambda trees, args: [{"change": reply([0.2], [0.2]), "parent": reply([0.4], [0.25])}])
    assert bench_interleaved.main(["--workload", "fresh-pull-http", "--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# machine: {bench_interleaved.machine_line()}"
    assert lines[1] == f"workload fresh-pull-http, change {change}, parent {parent}, 1 runs of 40 blocks of 300 steps"
