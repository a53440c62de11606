"""Reductions from a timed loop (and its spans) to named metrics.

Wall times come from `time.perf_counter` and are the code's real cost;
modeled times are virtual-clock seconds, the paper's quantity. The two are
reported side by side and never added together.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from shardvcs.ledger import CONFIRMED, REJECTED
from shardvcs.protocol import MIDDLEMAN

import spans

# Percentiles a tail metric may use, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # The tolerance keeps float error (99.9 * n / 100) from bumping the rank.
    return max(math.ceil(p * n / 100 - 1e-9), 1)


def nearest_rank(values, p: float) -> float:
    """The `p`-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int, ladder=PERCENTILE_LADDER) -> float | None:
    """Highest percentile in `ladder` with at least ten of `n` samples beyond it."""
    for p in ladder:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def p95(values) -> float:
    """95th percentile, refused when fewer than ten samples lie beyond it."""
    best = tail_percentile(len(values))
    if best is None or best < 95.0:
        raise ValueError(f"{len(values)} samples are too few for a 95th percentile")
    return nearest_rank(values, 95.0)


def end_to_end(tally, prefix: dict, setup_times: list[float], peak_rss_mb: float) -> dict:
    """All twelve end-to-end metrics as {name: (value, unit)}."""
    push, pull = tally.wall["push"], tally.wall["pull"]
    return {
        "push_wall_p50_ms": (statistics.median(push) * 1e3, "ms"),
        "push_wall_p95_ms": (p95(push) * 1e3, "ms"),
        "pull_wall_p50_ms": (statistics.median(pull) * 1e3, "ms"),
        "pull_wall_p95_ms": (p95(pull) * 1e3, "ms"),
        "ops_per_s": (tally.completed / tally.busy_s, "ops/s"),
        "cpu_ms_per_op": (tally.cpu_s * 1e3 / tally.completed, "ms"),
        "push_modeled_s": (statistics.median(prefix["push"]), "s"),
        "pull_modeled_s": (statistics.median(prefix["pull"]), "s"),
        "confirm_modeled_s": (statistics.median(prefix["confirm"]), "s"),
        "failed_op_ratio": (tally.failed / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(rec: spans.Recorder, traced, plain) -> dict:
    """Per-layer metrics of a traced loop as {name: (value, unit)}.

    `traced` is the traced loop's tally and `plain` the untraced one's, run
    on the same seed; their busy time per op gives the tracing overhead.
    """
    self_s = spans.self_times(rec.spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(rec.spans):
        by_name[span[spans.NAME]].append(index)

    def busy(name: str, scale: float) -> float:
        return _mean([self_s[i] for i in by_name[name]]) * scale

    def calls(name: str) -> int:
        return len(by_name[name])

    pulls = set(by_name["protocol.pull"])
    views_in_pulls = sum(1 for i in by_name["ledger.view"] if rec.spans[i][spans.PARENT] in pulls)
    cas_calls = by_name["cas.store"] + by_name["cas.fetch"]
    modeled_cas = [rec.spans[i][spans.MODEL_END] - rec.spans[i][spans.MODEL_START] for i in cas_calls]
    user_bytes = traced.pushed_bytes + traced.pulled_bytes
    receipts = [r for _, r in traced.pushes] + traced.grants
    n_pulls = sum(traced.paths.values())
    return {
        "protocol.push.self_ms": (busy("protocol.push", 1e3), "ms"),
        "protocol.pull.self_ms": (busy("protocol.pull", 1e3), "ms"),
        "protocol.pull.fallback_ratio": (traced.paths[MIDDLEMAN] / n_pulls if n_pulls else 0.0, "ratio"),
        "envelope.seal.busy_ms": (busy("envelope.seal", 1e3), "ms"),
        "envelope.unseal.busy_ms": (busy("envelope.unseal", 1e3), "ms"),
        "cas.hash.busy_ms": (busy("cas.hash", 1e3), "ms"),
        "cas.hash.bytes_per_user_byte": (rec.counters["cas.hash.bytes"] / user_bytes, "B/B"),
        "cas.store.busy_ms": (busy("cas.store", 1e3), "ms"),
        "cas.fetch.busy_ms": (busy("cas.fetch", 1e3), "ms"),
        "cas.bytes_written_per_user_byte": (rec.counters["cas.bytes_written"] / traced.pushed_bytes, "B/B"),
        "cas.modeled_delay_s": (_mean(modeled_cas), "s"),
        "sss.split.busy_us": (busy("sss.split", 1e6), "us"),
        "sss.combine.busy_us": (busy("sss.combine", 1e6), "us"),
        "ledger.submit.busy_us": (busy("ledger.submit", 1e6), "us"),
        "ledger.view.busy_us": (busy("ledger.view", 1e6), "us"),
        "ledger.view.calls_per_pull": (views_in_pulls / calls("protocol.pull"), "count"),
        "ledger.pending.mean": (_mean(rec.samples["ledger.pending"]), "count"),
        "ledger.settle.busy_ms": (busy("ledger.settle", 1e3), "ms"),
        "ledger.confirmed": (sum(r.status == CONFIRMED for r in receipts), "count"),
        "ledger.rejected": (sum(r.status == REJECTED for r in receipts), "count"),
        "middleman.store.busy_us": (busy("middleman.store", 1e6), "us"),
        "middleman.fetch.busy_us": (busy("middleman.fetch", 1e6), "us"),
        "middleman.fetch.hit_ratio": (
            rec.counters["middleman.fetch.hits"] / calls("middleman.fetch") if calls("middleman.fetch") else 0.0,
            "ratio",
        ),
        "bench.trace_overhead_ratio": (
            (traced.busy_s / traced.completed) / (plain.busy_s / plain.completed),
            "ratio",
        ),
    }
