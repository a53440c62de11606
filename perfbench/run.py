"""Run one benchmark workload against the sources in `src/` and print its metrics.

    python3 perfbench/run.py --workload large-blob --seed 1 --seconds 20 --trace 0

Workloads: large-blob and fresh-pull-http, the two `BENCHMARK.json` lists,
and many-owners, which runs the same way but is left out of that file
because its timings do not repeat (see workloads.py).

With `--trace 0` the run sets the workload up nine times (set-up time is
the median), then measures a closed loop for `--seconds` and until pushes and
pulls have 200 samples each, and prints all twelve end-to-end metrics. With
`--trace 1` it measures the same seed twice, for half the time each, first
untraced and then with every layer wrapped in spans; it prints the per-layer
metrics, the tracing overhead, and fails if any modeled figure differs
between the two. Spans are written to `bench_out/`.

Every pull is checked: its plaintext digest against the pushed one, and the
share path it took against the one the schedule implies. Every registration
must confirm. The last line of output is one JSON object holding the metrics
that `BENCHMARK.json` lists for the mode; the exit code is 1 if any check
failed and 2 if the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out"
SETUPS = 9


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def provenance(workload, seed: int, digest: str) -> str:
    import cryptography

    return (
        f"# provenance: nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()}"
        f" cryptography={cryptography.__version__} commit={git_commit()} workload={workload.name}"
        f" seed={seed} ops_digest={digest}"
    )


def paper_cross_check(metrics: dict) -> str:
    from shardvcs.bench import DEFAULT_PULL_OVERHEAD_S, EMBEDDED_REFERENCE

    row = next(r for r in EMBEDDED_REFERENCE.rows if r.size_mb == 20)
    push = metrics["push_modeled_s"][0]
    pull = metrics["pull_modeled_s"][0] + DEFAULT_PULL_OVERHEAD_S
    confirm = metrics["confirm_modeled_s"][0]
    return (
        f"# paper cross-check (reference only, not a gate): 20 MB push {push:.2f} s vs {row.system_push_s} s,"
        f" pull+{DEFAULT_PULL_OVERHEAD_S} s {pull:.2f} s vs {row.system_pull_s} s;"
        f" push start to confirmation {confirm:.2f} s, settlement {confirm - push:.2f} s of it"
    )


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<34} {value:>14.6f} {unit}")


def plain_run(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, list, str, str]:
    import metrics
    import workloads

    setup_times = []
    session = None
    for i in range(SETUPS):
        if session is not None:
            workloads.teardown(session)
            session = None
        workloads.make_store_dirs(workdir / f"setup-{i}")
        start = time.perf_counter()
        session = workload.setup(seed, workdir / f"setup-{i}")
        setup_times.append(time.perf_counter() - start)
    try:
        digest = workloads.ops_digest(workload, seed, session.pool)
        tally = workloads.measure(workload, session, seconds, workloads.MIN_SAMPLES)
    finally:
        workloads.teardown(session)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    prefix = workloads.modeled_prefix(tally, workloads.MIN_SAMPLES)
    title = (f"{workload.name}: end-to-end metrics, {workload.payload_bytes} B payloads,"
             f" {len(tally.wall['push'])} pushes, {len(tally.wall['pull'])} pulls,"
             f" {len(tally.wall['grant'])} grants; set-ups took "
             + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    return metrics.end_to_end(tally, prefix, setup_times, peak_rss_mb), [tally], digest, title


def traced_run(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, list, str, str]:
    import metrics
    import spans
    import workloads

    def segment(root: Path, traced: bool):
        workloads.make_store_dirs(root)
        session = workload.setup(seed, root)
        rec = None
        try:
            if traced:
                rec = spans.Recorder(session.world.clock)
                session.world.trace(rec)
            with spans.patched_layers(rec) if traced else contextlib.nullcontext():
                tally = workloads.measure(workload, session, seconds / 2, workloads.MIN_SAMPLES, rec)
        finally:
            workloads.teardown(session)
        return tally, rec, session.pool

    plain, _, pool = segment(workdir / "plain", traced=False)
    traced, rec, _ = segment(workdir / "traced", traced=True)
    title = f"{workload.name}: per-layer metrics, traced run of {traced.attempted} ops; modeled times "
    if workloads.modeled_prefix(plain, workloads.MIN_SAMPLES) == workloads.modeled_prefix(
        traced, workloads.MIN_SAMPLES
    ):
        title += "bit-identical with and without tracing"
    else:
        title += "DIFFER with tracing"
        traced.fail("trace", "modeled times differ between the untraced and traced runs")
    OUT.mkdir(exist_ok=True)
    rec.write_jsonl(OUT / f"perfbench-trace-{workload.name}-seed{seed}.jsonl")
    digest = workloads.ops_digest(workload, seed, pool)
    return metrics.per_layer(rec, traced, plain), [plain, traced], digest, title


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shardvcs" / "__init__.py").is_file():
        print(f"perfbench: no shardvcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = OUT / f"perfbench-work-{workload.name}-{os.getpid()}"

    try:
        run = traced_run if args.trace else plain_run
        results, tallies, digest, title = run(workload, args.seed, args.seconds, workdir)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {workload.name} could not run", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = config["per_layer" if args.trace else "end_to_end"]
    print(provenance(workload, args.seed, digest))
    print_metrics(title, results)
    if not args.trace and workload.name == "large-blob":
        print(paper_cross_check(results))
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for t in tallies:
        for error in t.errors:
            print(f"# FAILED {error}")
    for m in wanted:
        if results[m["name"]][1] != m["unit"]:
            raise ValueError(f"BENCHMARK.json gives {m['name']} unit {m['unit']!r}, the run measures {results[m['name']][1]!r}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": results[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
