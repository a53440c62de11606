"""Tests of the benchmark's own logic. Run: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "large-blob": replace(workloads.WORKLOADS["large-blob"], payload_bytes=64 * 1024, warmup_cycles=1),
    "many-owners": replace(workloads.WORKLOADS["many-owners"], owners=16, window=100, warmup_s=1.0),
    "fresh-pull-http": replace(workloads.WORKLOADS["fresh-pull-http"], warmup_cycles=1),
}


# -- percentile rule -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (10, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected


def test_nearest_rank_and_p95():
    values = list(range(200, 0, -1))  # 1..200, unordered
    assert metrics.nearest_rank(values, 50) == 100
    assert metrics.nearest_rank(values, 95) == 190
    assert metrics.p95(values) == 190
    with pytest.raises(ValueError):
        metrics.p95(values[:199])


# -- self time ----------------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, 0.0, 0.0]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    tree = [
        _span("root", 0.0, 10.0, spans.NO_PARENT),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        _span("c", 9.0, 12.0, 0),  # sticks out: only [9, 10] counts
        _span("a1", 2.0, 3.0, 1),  # grandchild: counts against a, not root
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_recorder_links_parents_and_ops_and_patches_are_undone():
    from shardvcs import cas, envelope, protocol
    from shardvcs.clock import VirtualClock

    originals = (envelope.seal, envelope.unseal, protocol.split, protocol.combine, cas.Cid.__dict__["of"])
    clock = VirtualClock()
    rec = spans.Recorder(clock)
    rec.op_id = 7
    with spans.patched_layers(rec):
        rec.call("outer", lambda: cas.Cid.of(b"abc"))
    assert [s[spans.NAME] for s in rec.spans] == ["outer", "cas.hash"]
    assert rec.spans[1][spans.PARENT] == 0
    assert {s[spans.OP] for s in rec.spans} == {7}
    assert rec.counters["cas.hash.bytes"] == 3
    assert originals == (envelope.seal, envelope.unseal, protocol.split, protocol.combine,
                         cas.Cid.__dict__["of"])


# -- smoke runs -------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_has_no_failures_and_reports_every_metric(name, tmp_path):
    workload = SMALL[name]
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    n = workloads.MIN_SAMPLES

    session = workload.setup(3, tmp_path / "plain")
    try:
        plain = workloads.measure(workload, session, 0.0, n)
    finally:
        workloads.teardown(session)
    assert plain.failed == 0, plain.errors

    session = workload.setup(3, tmp_path / "traced")
    rec = spans.Recorder(session.world.clock)
    session.world.trace(rec)
    try:
        with spans.patched_layers(rec):
            traced = workloads.measure(workload, session, 0.0, n, rec)
    finally:
        workloads.teardown(session)
    assert traced.failed == 0, traced.errors
    assert workloads.modeled_prefix(plain, n) == workloads.modeled_prefix(traced, n)

    e2e = metrics.end_to_end(plain, workloads.modeled_prefix(plain, n), [1.0], 1.0)
    layers = metrics.per_layer(rec, traced, plain)
    assert len(e2e) == 12 and e2e["failed_op_ratio"][0] == 0
    for entry in config["end_to_end"]:
        assert e2e[entry["name"]][1] == entry["unit"]
    assert [m["name"] for m in config["per_layer"]] == list(layers)
    for entry in config["per_layer"]:
        assert layers[entry["name"]][1] == entry["unit"]
