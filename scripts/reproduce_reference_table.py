#!/usr/bin/env python3
"""Reproduce the embedded latency reference table end to end.

Calibrates store/fetch latency profiles against the embedded reference
table, runs the push and pull benchmarks at 1/5/10/20 MB x 5 repeats on a
virtual clock, writes both CSVs, and prints the combined report with the
per-size deviation from the reference values.

Usage: python3 scripts/reproduce_reference_table.py [--out DIR] [--repeats N]
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shardvcs.bench import (  # noqa: E402
    DEFAULT_PULL_OVERHEAD_S,
    calibrate,
    render_report,
    run_pull_bench,
    run_push_bench,
    samples_to_csv,
)
from shardvcs.ledger import ChainConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="bench_out", help="directory for the CSV files")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sizes = [1, 5, 10, 20]

    cal = calibrate()
    print(
        f"calibrated store profile: {cal.store_profile.fixed_overhead_s:.6f} s"
        f" + {cal.store_profile.per_mb_s:.6f} s/MB"
    )
    print(
        f"calibrated fetch profile: {cal.fetch_profile.fixed_overhead_s:.6f} s"
        f" + {cal.fetch_profile.per_mb_s:.6f} s/MB"
        f" (plus {DEFAULT_PULL_OVERHEAD_S} s modeled pull overhead)"
    )

    with tempfile.TemporaryDirectory(prefix="shardvcs-repro-") as workdir:
        work = Path(workdir)
        push_samples = run_push_bench(
            sizes, args.repeats, cal.store_profile, cal.fetch_profile,
            ChainConfig(), seed=args.seed, workdir=work / "push",
        )
        pull_samples = run_pull_bench(
            sizes, args.repeats, cal.store_profile, cal.fetch_profile,
            ChainConfig(), start_offset_s=2.0, seed=args.seed, workdir=work / "pull",
        )

    push_csv = out / "push.csv"
    pull_csv = out / "pull.csv"
    push_csv.write_text(samples_to_csv(push_samples))
    pull_csv.write_text(samples_to_csv(pull_samples))
    print(f"wrote {len(push_samples)} push samples to {push_csv}")
    print(f"wrote {len(pull_samples)} pull samples to {pull_csv}")
    print()
    print(render_report(push_samples + pull_samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
