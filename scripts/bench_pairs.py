#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs of runs.

    python3 scripts/bench_pairs.py --workload fresh-pull-http --seeds 1-10 --seconds 30
    python3 scripts/bench_pairs.py --workload fresh-pull-http --seeds 7 --seconds 10 --trace

Both trees are unpacked with `git archive` into two sibling directories of
one temporary directory, so neither runs from the checkout: the change is the
tracked files of the working tree as they stand (`git stash create`;
untracked files are left out), the parent is `--parent` (default HEAD). For
each seed, the script runs `perfbench/run.py` once in each tree, alternating
which tree goes first, both with `PYTHONHASHSEED` set to the seed, and parses
each run's JSON last line.

It writes `BENCH_<workload>.json` at the repo root: the machine line, both
commits, the seeds, every run's `correct`, `PYTHONHASHSEED` and metrics, and
per metric the median and quartiles of each tree, how many pairs the change
won, the median and quartiles of the per-pair change ratios (change / parent
- 1, seed by seed), and the bound from `BENCHMARK.json`; and per tree the
diagnostic `cpu_s_per_busy_s`, which shows whether a run's threads
overlapped (see `parallelism`). Then it prints that summary, one line per
metric. `beats_parent_iqr` compares the gap between the medians with the
parent's spread across seeds, which also holds any drift of the machine
during the run; the pair ratios cancel a drift that both trees share.
`--trace` runs traced and fills the file's `per_layer` section instead of
its `end_to_end` one; the other section is kept. `--parent none` records a
single-tree baseline. Stdlib only.

Each run starts in its own session, and its whole process group is killed
once it ends, so a middleman child it leaves behind goes too. SIGTERM exits
through the same cleanup and removes the unpacked trees.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """`1-10` or `1,4,7` (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(stdout: str) -> dict:
    """The JSON result of one `perfbench/run.py` output: its last line."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("run printed no JSON result line")
    return json.loads(lines[-1])


def cpu_model() -> str:
    """The CPU's model name from /proc/cpuinfo, else what `platform` reports."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_line() -> str:
    """The machine this script runs on, as every bench tool here names it."""
    return (f"nproc={os.cpu_count()} cpu={cpu_model()} python={platform.python_version()}"
            f" cryptography={importlib.metadata.version('cryptography')}")


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """Per-metric medians, quartiles and pair wins over runs tagged `tree` and `seed`."""
    by_tree: dict[str, dict[int, dict]] = {}
    for run in runs:
        by_tree.setdefault(run["tree"], {})[run["seed"]] = run["metrics"]
    out = {}
    for spec in specs:
        name, lower_is_better = spec["name"], spec["better"] == "lower"
        entry = {"unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound")}
        values = {
            tree: {seed: m[name] for seed, m in seeds.items() if name in m} for tree, seeds in by_tree.items()
        }
        for tree, per_seed in values.items():
            if per_seed:
                entry[tree] = spread(list(per_seed.values()))
        if "parent" in values and "change" in values:
            pairs = [(values["parent"][s], values["change"][s]) for s in values["parent"] if s in values["change"]]
            entry["pairs"] = len(pairs)
            entry["wins"] = sum((c < p) if lower_is_better else (c > p) for p, c in pairs)
            ratios = [c / p - 1 for p, c in pairs if p]
            if ratios:
                entry["pair_change_ratio"] = spread(ratios)
            if "parent" in entry and "change" in entry and entry["parent"]["median"]:
                parent, change = entry["parent"], entry["change"]
                entry["median_change_ratio"] = change["median"] / parent["median"] - 1
                entry["beats_parent_iqr"] = (
                    parent["median"] - change["median"] if lower_is_better else change["median"] - parent["median"]
                ) > parent["q3"] - parent["q1"]
        out[name] = entry
    return out


def parallelism(runs: list[dict]) -> dict:
    """Each tree's CPU seconds per busy second, `cpu_ms_per_op * ops_per_s / 1000`, over runs that report both.

    The product is exactly perfbench's `Tally.cpu_s / busy_s`. About 1.0 means
    the process's threads took turns on one CPU at a time; about 1.5 means the
    hash worker ran beside the main thread for much of each operation. It is a
    diagnostic of the end-to-end metrics: it has no bound and no win count.
    """
    values: dict[str, list[float]] = {}
    for run in runs:
        metrics = run["metrics"]
        if "cpu_ms_per_op" in metrics and "ops_per_s" in metrics:
            values.setdefault(run["tree"], []).append(metrics["cpu_ms_per_op"] * metrics["ops_per_s"] / 1e3)
    return {"unit": "s/s", "diagnostic": True, **{tree: spread(v) for tree, v in values.items()}}


def summary_lines(metrics: dict) -> list[str]:
    """One line per metric of a `summarize` result: each tree's median [q1-q3], then the pair verdict."""
    lines = []
    for name, entry in metrics.items():
        verdict = "diagnostic, no bound" if entry.get("diagnostic") else f"{entry['better']} is better"
        parts = [f"{name} ({entry['unit']}, {verdict}):"]
        for tree in ("parent", "change"):
            if tree in entry:
                stats = entry[tree]
                parts.append(f"{tree} {stats['median']:.4g} [{stats['q1']:.4g}-{stats['q3']:.4g}]")
        if "median_change_ratio" in entry:
            parts.append(f"{entry['median_change_ratio']:+.1%}")
        if "pairs" in entry:
            parts.append(f"wins {entry['wins']}/{entry['pairs']}")
        if "beats_parent_iqr" in entry:
            parts.append(f"beats_parent_iqr={entry['beats_parent_iqr']}")
        if "pair_change_ratio" in entry:
            ratio = entry["pair_change_ratio"]
            parts.append(f"pair ratios {ratio['median']:+.1%} [{ratio['q1']:+.1%} to {ratio['q3']:+.1%}]")
        lines.append("  ".join(parts))
    return lines


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def change_commit(rev: str) -> str:
    """The commit to unpack as the change; "worktree" means the tracked files as they stand."""
    if rev != "worktree":
        return git("rev-parse", rev)
    return git("stash", "create") or git("rev-parse", "HEAD")  # stash create prints nothing on a clean tree


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def exit_on_sigterm() -> None:
    """Make SIGTERM raise SystemExit, so `finally` blocks and context managers run on the way out."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def kill_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the process group of a child started with `start_new_session=True`."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def run_in_session(cmd: list[str], **kwargs) -> subprocess.CompletedProcess:
    """`subprocess.run` capturing text output, with the child in its own session and its group killed at the end."""
    with subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate()
        finally:
            kill_group(proc)
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    env = {**os.environ, "PYTHONHASHSEED": str(seed)}
    proc = run_in_session(cmd, cwd=tree, env=env)
    try:
        return parse_run(proc.stdout)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n{proc.stderr[-2000:]}")
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--parent", default="HEAD", help="commit to compare against, or none")
    parser.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    out_path = ROOT / f"BENCH_{args.workload}.json"
    change = {"commit": git("rev-parse", "HEAD"), "working_tree_changes": bool(git("status", "--porcelain"))}
    parent = None if args.parent == "none" else {"commit": git("rev-parse", args.parent)}

    runs = []
    commits = {"change": change_commit("worktree")}
    if parent:
        commits["parent"] = parent["commit"]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {tree: Path(tmp) / tree for tree in commits}
        for tree, commit in commits.items():
            unpack(commit, trees[tree])
        for i, seed in enumerate(args.seeds):
            for tree in sorted(trees, reverse=i % 2 == 1):  # change first, then parent first, ...
                result = run_once(trees[tree], args.workload, seed, args.seconds, args.trace)
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                runs.append({"tree": tree, "seed": seed, "pythonhashseed": seed, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics})
                print(f"{tree:<6} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)

    report = json.loads(out_path.read_text()) if out_path.exists() else {"workload": args.workload}
    report[section] = {
        "machine": machine_line(),
        "parent": parent,
        "change": change,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "all_correct": all(r["correct"] for r in runs),
        "metrics": summarize(runs, config[section]),
        "diagnostics": {"cpu_s_per_busy_s": parallelism(runs)},
        "runs": runs,
    }
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}")
    print("\n".join(summary_lines({**report[section]["metrics"], **report[section]["diagnostics"]})))
    return 0 if report[section]["all_correct"] else 1


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main())
