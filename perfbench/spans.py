"""Span recorder and the wrappers that feed it, for the traced benchmark run.

A span is one call into a layer: its name, wall start and end
(`time.perf_counter`), modeled start and end (virtual-clock seconds), the
span that was open when it began, and the id of the benchmark operation it
belongs to. Spans live in memory and are written out once the run ends.
Vocabulary follows the OpenTelemetry span model; no package is used.

Tracing is installed from outside the program: the injected store, chain and
cache are wrapped in proxy objects, and the module-level functions that
`protocol` calls (`envelope.seal`/`unseal`, `Cid.of`, `split`/`combine`) are
swapped for recording versions only while `patched_layers` is active.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# Indices into a span record.
NAME, WALL_START, WALL_END, PARENT, OP, MODEL_START, MODEL_END = range(7)
NO_PARENT = -1


class Recorder:
    """In-memory span store with a stack of open spans and named counters."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op_id = 0
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name` and return its result."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else NO_PARENT
        record = [name, 0.0, 0.0, parent, self.op_id, self.clock.now(), 0.0]
        self.spans.append(record)
        self._open.append(index)
        record[WALL_START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[WALL_END] = time.perf_counter()
            self._open.pop()
            record[MODEL_END] = self.clock.now()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's wall duration minus the part of it that its children cover.

    Children may overlap one another (threads) or stick out of the parent;
    only the union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] != NO_PARENT:
            children[span[PARENT]].append((span[WALL_START], span[WALL_END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[WALL_START], span[WALL_END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# -- wrappers around the injected layers -----------------------------------------


class TracedStore:
    """`cas.BlobStore` proxy: spans `cas.store`/`cas.fetch`, counts bytes written."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec

    def store(self, blob: bytes):
        self._rec.count("cas.bytes_written", len(blob))
        return self._rec.call("cas.store", self._inner.store, blob)

    def fetch(self, cid):
        return self._rec.call("cas.fetch", self._inner.fetch, cid)


class TracedChain:
    """`ledger.SimulatedChain` proxy: submits, views and settlement as spans.

    After each submit it samples the pending count. The sample is taken at
    the same virtual instant the submit already settled, so it settles
    nothing itself and leaves the chain's behaviour unchanged. It scans the
    pending list, so it gets a span of its own: that keeps its cost out of
    the calling push's or grant's self time.
    """

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec

    def _submit(self, fn, *args):
        receipt = self._rec.call("ledger.submit", fn, *args)
        pending = self._rec.call("bench.pending_sample", self._inner.pending_count)
        self._rec.samples["ledger.pending"].append(pending)
        return receipt

    def submit_register(self, sender, repo, share_text):
        return self._submit(self._inner.submit_register, sender, repo, share_text)

    def submit_add_collaborator(self, sender, repo, collaborator):
        return self._submit(self._inner.submit_add_collaborator, sender, repo, collaborator)

    def registered_owner(self, repo):
        return self._rec.call("ledger.view", self._inner.registered_owner, repo)

    def check_access(self, repo, user):
        return self._rec.call("ledger.view", self._inner.check_access, repo, user)

    def get_on_chain_share(self, caller, repo):
        return self._rec.call("ledger.view", self._inner.get_on_chain_share, caller, repo)

    def advance_clock(self, delta_s):
        return self._rec.call("ledger.settle", self._inner.advance_clock, delta_s)


class TracedCache:
    """Share-cache proxy (in-process or HTTP): store/fetch spans and fetch hits."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec

    def store_share(self, repo, share_text):
        return self._rec.call("middleman.store", self._inner.store_share, repo, share_text)

    def fetch_share(self, repo):
        share = self._rec.call("middleman.fetch", self._inner.fetch_share, repo)
        self._rec.count("middleman.fetch.hits", share is not None)
        return share

    def evict(self, repo):
        return self._inner.evict(repo)


@contextlib.contextmanager
def patched_layers(rec: Recorder):
    """Swap in recording versions of the functions `protocol` calls directly."""
    from shardvcs import cas, envelope, protocol

    original_of = cas.Cid.__dict__["of"]
    hash_fn = original_of.__func__

    def traced_of(cls, blob):
        rec.count("cas.hash.bytes", len(blob))
        return rec.call("cas.hash", hash_fn, cls, blob)

    targets = [(envelope, "seal", "envelope.seal"), (envelope, "unseal", "envelope.unseal"),
               (protocol, "split", "sss.split"), (protocol, "combine", "sss.combine")]
    originals = [getattr(module, attr) for module, attr, _ in targets]
    try:
        for (module, attr, span_name), fn in zip(targets, originals):
            setattr(module, attr, rec.wrap(span_name, fn))
        cas.Cid.of = classmethod(traced_of)
        yield rec
    finally:
        for (module, attr, _), fn in zip(targets, originals):
            setattr(module, attr, fn)
        cas.Cid.of = original_of
