#!/usr/bin/env python3
"""Time how long the middleman service takes to start, from spawn to `listening on`.

    python3 scripts/startup_time.py --spawns 40                  # this checkout's src/
    python3 scripts/startup_time.py --spawns 40 OLD/src NEW/src  # two trees, interleaved

Each spawn runs `python -m shardvcs.cli serve-middleman --port 0` with one
tree's `src` as `PYTHONPATH`, as perfbench's fresh-pull-http set-up does,
and stops the child once it has printed its `listening on` line. With two
trees the spawns alternate, and which tree goes first changes every round,
so slow drift of the machine falls on both alike. It also times
`python -c pass`, the interpreter's own floor, in the same rounds.

It prints, per tree, the median and quartiles in ms, then a machine line.
The figures depend on the environment the children inherit: with
`PYTHONDONTWRITEBYTECODE` set, every child compiles the modules it imports
again, and the machine line says which case was measured. Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import machine_line, spread  # noqa: E402

SERVE = ("-m", "shardvcs.cli", "serve-middleman", "--port", "0")
FLOOR = "python -c pass"


def spawn_ms(src: str | None) -> float:
    """Milliseconds from spawn to the service's first line; `None` times `python -c pass`."""
    if src is None:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        return (time.perf_counter() - start) * 1e3
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, *SERVE], env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        line = child.stdout.readline()
        elapsed = (time.perf_counter() - start) * 1e3
    finally:
        child.terminate()
        child.wait(timeout=10)
        child.stdout.close()
    if "listening on " not in line:
        raise RuntimeError(f"middleman from {src} did not start (said {line!r})")
    return elapsed


def measure(srcs: list[str], spawns: int) -> dict[str, list[float]]:
    """`spawns` timings per tree and for the floor, the order rotating every round."""
    order = [*srcs, None]
    times: dict[str | None, list[float]] = {src: [] for src in order}
    for round_ in range(spawns):
        for src in order[round_ % len(order):] + order[: round_ % len(order)]:
            times[src].append(spawn_ms(src))
    return {FLOOR if src is None else src: values for src, values in times.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", help="one or two src/ trees (default: this checkout's src/)")
    parser.add_argument("--spawns", type=int, default=20, help="spawns per tree (default 20)")
    args = parser.parse_args(argv)
    srcs = [str(Path(s).resolve()) for s in args.src] or [str(Path(__file__).resolve().parents[1] / "src")]
    if len(set(srcs)) != len(srcs) or len(srcs) > 2:
        parser.error("give one src tree or two different ones")
    if args.spawns < 1:
        parser.error("--spawns must be at least 1")
    for label, values in measure(srcs, args.spawns).items():
        s = spread(values)
        print(f"{label}: median {s['median']:.1f} ms, q1 {s['q1']:.1f}, q3 {s['q3']:.1f} ({len(values)} spawns)")
    bytecode = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"# machine: {machine_line()} bytecode_cache={bytecode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
