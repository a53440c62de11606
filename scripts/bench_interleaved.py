#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating blocks of steps.

    python3 scripts/bench_interleaved.py --workload fresh-pull-http --parent HEAD --blocks 40 --ops 300 --runs 6

Run it with the same REV for `--change` and `--parent` to see how far two
identical trees drift apart.

Both trees are unpacked with `git archive`, as `bench_pairs.py` unpacks
them, into two fresh sibling directories, so neither runs from the
checkout. The change is `--change REV`, by default the tracked files of the
working tree as they stand (`git stash create`; untracked files are left
out). Each tree gets one long-lived worker process that sets its workload
up once, through that tree's own `perfbench/workloads.py` and `src/`, and
then runs `--ops` workload steps each time it is told to. Blocks alternate between the trees, changing which
goes first every block, so slow drift of the machine falls on both alike.

For every block it takes the push and pull wall-time p50 of each tree, and
it prints, per tree, the median and quartiles of those block p50s and how
many blocks the change won. Blocks are not independent, though: every block
of a run uses the same two workers (and their middleman children), and where
those processes land shifts all of a run's blocks alike. On a 2-vCPU VM, two
identical trees read anywhere from 9/40 to 29/40 pull block wins in a run. So `--runs R`
(6 by default) repeats the whole run with fresh workers, and the last lines say in how many
runs the change's median was lower: judge a change by those. Nothing is
written to disk. Stdlib only.

Each worker runs in its own session, and a run ends by killing what is left
of each worker's process group. SIGTERM exits through the same cleanup, as in
`bench_pairs.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import change_commit, exit_on_sigterm, git, kill_group, machine_line, spread, unpack  # noqa: E402

OPS = ("push", "pull")
TREES = ("change", "parent")


def block_p50s(reply: dict) -> dict[str, float]:
    """A worker's reply for one block to its push and pull p50 in ms."""
    return {op: statistics.median(reply[op]) * 1e3 for op in OPS}


def summarize(blocks: list[dict[str, dict]]) -> dict:
    """Per tree and op, the spread of block p50s; per op, the blocks the change won.

    `blocks` holds, per block, each tree's worker reply.
    """
    p50s = [{tree: block_p50s(block[tree]) for tree in TREES} for block in blocks]
    out = {}
    for op in OPS:
        entry = {tree: spread([b[tree][op] for b in p50s]) for tree in TREES}
        entry["wins"] = sum(b["change"][op] < b["parent"][op] for b in p50s)
        entry["blocks"] = len(p50s)
        entry["failed"] = {tree: sum(block[tree]["failed"] for block in blocks) for tree in TREES}
        out[op] = entry
    return out


def report(summary: dict) -> str:
    lines = []
    for op, entry in summary.items():
        for tree in TREES:
            s = entry[tree]
            lines.append(f"{op:<4} p50 {tree:<6} {s['median']:.4f} ms  (q1 {s['q1']:.4f}, q3 {s['q3']:.4f})"
                         f"  failed {entry['failed'][tree]}")
        ratio = entry["change"]["median"] / entry["parent"]["median"] - 1
        lines.append(f"{op:<4} change {ratio:+.1%}, won {entry['wins']}/{entry['blocks']} blocks")
    return "\n".join(lines)


def report_runs(summaries: list[dict]) -> str:
    """Per op, the change's median relative to the parent's in each run, and the runs it won."""
    lines = []
    for op in OPS:
        ratios = [s[op]["change"]["median"] / s[op]["parent"]["median"] - 1 for s in summaries]
        lines.append(f"{op:<4} over {len(ratios)} runs: change {statistics.median(ratios):+.1%} in the median run,"
                     f" lower in {sum(r < 0 for r in ratios)}/{len(ratios)} runs"
                     f" ({' '.join(f'{r:+.1%}' for r in ratios)})")
    return "\n".join(lines)


# -- the worker, run inside one tree ---------------------------------------------------


def worker(workload_name: str, seed: int) -> None:
    """Set the workload up, then answer each `run M` line on stdin with one JSON line."""
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    with tempfile.TemporaryDirectory(prefix="bench-interleaved-") as tmp:
        session = workload.setup(seed, Path(tmp) / "world")
        try:
            print(json.dumps({"ready": True}), flush=True)
            for line in sys.stdin:
                tally = workloads.Tally(session.world.clock)
                for _ in range(int(line.split()[1])):
                    workload.step(session, next(session.schedule), tally)
                print(json.dumps({"push": tally.wall["push"], "pull": tally.wall["pull"],
                                  "failed": tally.failed, "errors": tally.errors}), flush=True)
        finally:
            workloads.teardown(session)


def start_worker(tree: Path, workload: str, seed: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", workload, "--seed", str(seed)],
        cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )


def stop_worker(proc: subprocess.Popen) -> None:
    """Close the worker's stdin, give it a minute to tear its session down, then kill what is left of its group."""
    try:
        proc.stdin.close()
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=60)
    finally:
        kill_group(proc)
        proc.wait()
        proc.stdout.close()


def ask(proc: subprocess.Popen, ops: int) -> dict:
    proc.stdin.write(f"run {ops}\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def run_blocks(trees: dict[str, Path], args: argparse.Namespace) -> list[dict]:
    """One run: a fresh worker per tree, then `args.blocks` alternating blocks."""
    blocks, procs = [], {}
    try:
        for tree in TREES:
            procs[tree] = start_worker(trees[tree], args.workload, args.seed)
            if not json.loads(procs[tree].stdout.readline() or "{}").get("ready"):
                raise RuntimeError(f"the {tree} worker did not set up")
        for b in range(args.blocks):
            block = {tree: ask(procs[tree], args.ops) for tree in (TREES if b % 2 == 0 else TREES[::-1])}
            blocks.append(block)
            errors = [e for tree in TREES for e in block[tree]["errors"]]
            if errors:
                print(f"block {b + 1}/{args.blocks}: {errors[:3]}", flush=True)
    finally:
        for proc in procs.values():
            stop_worker(proc)
    return blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--change", default="worktree", help="commit to measure, or worktree")
    parser.add_argument("--parent", default="HEAD", help="commit to compare it against")
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--ops", type=int, default=300, help="workload steps per block")
    parser.add_argument("--runs", type=int, default=6, help="runs, each with fresh workers")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.workload, args.seed)
        return 0

    commits = {"change": change_commit(args.change), "parent": git("rev-parse", args.parent)}
    print(f"# machine: {machine_line()}\nworkload {args.workload}, change {commits['change']},"
          f" parent {commits['parent']}, {args.runs} runs of {args.blocks} blocks of {args.ops} steps", flush=True)
    summaries = []
    with tempfile.TemporaryDirectory(prefix="bench-interleaved-") as tmp:
        trees = {tree: Path(tmp) / tree for tree in TREES}
        for tree in TREES:
            unpack(commits[tree], trees[tree])
        for r in range(args.runs):
            summaries.append(summarize(run_blocks(trees, args)))
            print(f"run {r + 1}/{args.runs}\n{report(summaries[-1])}", flush=True)
    print(report_runs(summaries))
    return 0 if not any(entry["failed"][tree] for s in summaries for entry in s.values() for tree in TREES) else 1


if __name__ == "__main__":
    exit_on_sigterm()
    sys.exit(main())
