"""The pairs runner's parsing and aggregation, on canned `perfbench/run.py` outputs, and its cleanup."""

import importlib.util
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "push_wall_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.2},
]


def canned_output(push_ms: float, ops: float, correct: bool = True, commit: str = "abc123") -> str:
    result = {
        "correct": correct, "attempted": 400, "failed": 0 if correct else 1,
        "metrics": {"push_wall_p50_ms": {"value": push_ms, "unit": "ms"},
                    "ops_per_s": {"value": ops, "unit": "ops/s"}},
    }
    return (
        "# provenance: nproc=2 cpu='Test CPU @ 2.00GHz' python=3.11.7 cryptography=42.0.0"
        f" commit={commit} workload=fresh-pull-http seed=1 ops_digest=ff00\n"
        "# fresh-pull-http: end-to-end metrics, ...\n"
        f"#   push_wall_p50_ms {push_ms:.6f} ms\n"
        + json.dumps(result) + "\n"
    )


def test_parse_run_returns_the_json_result_and_ignores_the_provenance_line():
    result = bench_pairs.parse_run(canned_output(0.7, 1500.0, commit="none (not a git checkout)"))
    assert result == {
        "correct": True, "attempted": 400, "failed": 0,
        "metrics": {"push_wall_p50_ms": {"value": 0.7, "unit": "ms"}, "ops_per_s": {"value": 1500.0, "unit": "ops/s"}},
    }


def test_machine_line_names_this_machine_in_the_bench_file_format():
    import cryptography

    nproc, cpu, python, crypto = re.fullmatch(
        r"nproc=(\S+) cpu=(.+) python=(\S+) cryptography=(\S+)", bench_pairs.machine_line()
    ).groups()
    assert (nproc, python, crypto) == (str(os.cpu_count()), platform.python_version(), cryptography.__version__)
    try:
        models = [line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")]
    except OSError:
        models = []
    assert cpu == (models[0] if models else bench_pairs.cpu_model()) and cpu


def test_parse_run_without_result_line_is_an_error():
    with pytest.raises(ValueError):
        bench_pairs.parse_run("# provenance: nproc=2\nTraceback (most recent call last):\n")


def test_parse_seeds_ranges_and_lists():
    assert bench_pairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert bench_pairs.parse_seeds("7") == [7]
    assert bench_pairs.parse_seeds("1,3-4,9") == [1, 3, 4, 9]


def _runs(tree, pairs):
    return [
        {"tree": tree, "seed": seed, "correct": True,
         "metrics": {"push_wall_p50_ms": push, "ops_per_s": ops}}
        for seed, (push, ops) in enumerate(pairs, start=1)
    ]


def test_summarize_medians_quartiles_wins_and_bounds():
    runs = _runs("parent", [(1.0, 100.0), (2.0, 200.0), (3.0, 300.0)])
    runs += _runs("change", [(0.5, 150.0), (2.5, 150.0), (1.0, 350.0)])
    summary = bench_pairs.summarize(runs, SPECS)

    push = summary["push_wall_p50_ms"]
    assert push["parent"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert push["change"] == {"median": 1.0, "q1": 0.75, "q3": 1.75}
    assert (push["pairs"], push["wins"]) == (3, 2)  # seeds 1 and 3 are faster
    assert push["bound"] == 0.2 and push["better"] == "lower"
    assert push["median_change_ratio"] == pytest.approx(-0.5)
    assert push["beats_parent_iqr"] is False  # a 1.0 gain does not exceed the 1.0 spread

    ops = summary["ops_per_s"]
    assert ops["parent"]["median"] == 200.0 and ops["change"]["median"] == 150.0
    assert ops["wins"] == 2  # higher is better: seeds 1 and 3
    assert ops["median_change_ratio"] == pytest.approx(-0.25)


def test_summarize_skips_runs_without_metrics_and_single_tree_baselines():
    runs = _runs("change", [(1.0, 10.0), (3.0, 30.0)])
    runs.append({"tree": "change", "seed": 3, "correct": False, "metrics": {}})
    summary = bench_pairs.summarize(runs, SPECS)
    push = summary["push_wall_p50_ms"]
    assert push["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert "parent" not in push and "wins" not in push

    single = bench_pairs.summarize(_runs("change", [(4.0, 40.0)]), SPECS)
    assert single["push_wall_p50_ms"]["change"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}


def test_summary_lines_give_each_tree_and_the_pair_verdict_per_metric():
    metrics = {
        "pull_wall_p50_ms": {
            "unit": "ms", "better": "lower", "bound": 0.2,
            "change": {"median": 25.4, "q1": 25.21, "q3": 25.63},
            "parent": {"median": 27.28, "q1": 27.15, "q3": 27.45},
            "pairs": 10, "wins": 10, "median_change_ratio": -0.0689, "beats_parent_iqr": True,
        },
        "ops_per_s": {
            "unit": "ops/s", "better": "higher", "bound": 0.2,
            "change": {"median": 2386.4, "q1": 2361.0, "q3": 2469.7},
        },
    }
    assert bench_pairs.summary_lines(metrics) == [
        "pull_wall_p50_ms (ms, lower is better):  parent 27.28 [27.15-27.45]  change 25.4 [25.21-25.63]"
        "  -6.9%  wins 10/10  beats_parent_iqr=True",
        "ops_per_s (ops/s, higher is better):  change 2386 [2361-2470]",
    ]


def test_a_clean_tree_runs_head_as_the_only_tree_without_a_parent(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
    answers = {("rev-parse", "HEAD"): "c0ffee", ("status", "--porcelain"): "", ("stash", "create"): ""}
    unpacked, cwds = {}, []

    def run(cmd, cwd, env, **kwargs):
        cwds.append(Path(cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout=canned_output(0.7, 1500.0), stderr="")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: answers[args])
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: unpacked.setdefault(rev, dest).mkdir())
    monkeypatch.setattr(bench_pairs, "run_in_session", run)
    assert bench_pairs.main(["--workload", "fresh-pull-http", "--seeds", "1-2", "--parent", "none"]) == 0

    assert list(unpacked) == ["c0ffee"] and cwds == [unpacked["c0ffee"]] * 2
    report = json.loads((tmp_path / "BENCH_fresh-pull-http.json").read_text())["end_to_end"]
    assert report["machine"] == bench_pairs.machine_line()  # this machine, not the runs' provenance lines
    assert report["parent"] is None
    assert report["change"] == {"commit": "c0ffee", "working_tree_changes": False}
    assert [r["tree"] for r in report["runs"]] == ["change", "change"]


def test_both_trees_are_unpacked_side_by_side_and_share_each_hash_seed(tmp_path, monkeypatch):
    checkout = bench_pairs.ROOT
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
    answers = {("rev-parse", "HEAD"): "c0ffee", ("status", "--porcelain"): " M src/x.py",
               ("stash", "create"): "5ta5h", ("rev-parse", "p4rent"): "b4se"}
    unpacked, runs = {}, []

    def run(cmd, cwd, env, **kwargs):
        runs.append((Path(cwd), env["PYTHONHASHSEED"]))
        return subprocess.CompletedProcess(cmd, 0, stdout=canned_output(0.7, 1500.0), stderr="")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: answers[args])
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: unpacked.setdefault(rev, dest).mkdir())
    monkeypatch.setattr(bench_pairs, "run_in_session", run)
    assert bench_pairs.main(["--workload", "fresh-pull-http", "--seeds", "3-4", "--parent", "p4rent"]) == 0

    trees = {unpacked["5ta5h"], unpacked["b4se"]}  # the working tree as stashed, and the parent
    assert len(trees) == 2 and len({tree.parent for tree in trees}) == 1
    assert all(checkout != tree and checkout not in tree.parents for tree in trees)
    assert [cwd for cwd, _ in runs] == [unpacked["5ta5h"], unpacked["b4se"], unpacked["b4se"], unpacked["5ta5h"]]
    assert [seed for _, seed in runs] == ["3", "3", "4", "4"]
    report = json.loads((tmp_path / "BENCH_fresh-pull-http.json").read_text())["end_to_end"]
    assert [(r["tree"], r["seed"], r["pythonhashseed"]) for r in report["runs"]] == [
        ("change", 3, 3), ("parent", 3, 3), ("parent", 4, 4), ("change", 4, 4)
    ]


def _running(pid: int) -> bool:
    """Whether `pid` is a live process; a zombie nobody has reaped yet counts as gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_sigterm_kills_the_child_its_grandchild_and_removes_the_temp_dir(tmp_path):
    # A stand-in for the pairs runner: a temp tree, then a child (perfbench/run.py's place) that
    # starts a grandchild (the middleman's place), both sleeping and both writing their pid.
    pids = tmp_path / "pids"
    child = (
        "import os, subprocess, sys, time\n"
        f"pids = {str(pids)!r}\n"
        "sub = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "open(pids, 'w').write(f'{os.getpid()} {sub.pid}')\n"
        "time.sleep(60)\n"
    )
    runner = (
        "import sys, tempfile\n"
        f"sys.path.insert(0, {str(Path(bench_pairs.__file__).parent)!r})\n"
        "import bench_pairs\n"
        "bench_pairs.exit_on_sigterm()\n"
        "with tempfile.TemporaryDirectory(prefix='bench-pairs-') as tmp:\n"
        "    print(tmp, flush=True)\n"
        f"    bench_pairs.run_in_session([sys.executable, '-c', {child!r}])\n"
    )
    with subprocess.Popen([sys.executable, "-c", runner], stdout=subprocess.PIPE, text=True) as proc:
        try:
            temp_dir = Path(proc.stdout.readline().strip())
            deadline = time.monotonic() + 30
            while not (pids.exists() and len(pids.read_text().split()) == 2):
                assert time.monotonic() < deadline and proc.poll() is None, "the child never started"
                time.sleep(0.05)
            assert temp_dir.is_dir()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        finally:
            proc.kill()  # a no-op once the runner has exited
    child_pid, grandchild_pid = map(int, pids.read_text().split())
    deadline = time.monotonic() + 10
    while _running(child_pid) or _running(grandchild_pid):
        assert time.monotonic() < deadline, "the child or the grandchild outlived the runner"
        time.sleep(0.05)
    assert not temp_dir.exists()
