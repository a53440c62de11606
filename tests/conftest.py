import contextlib
import errno
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from socketserver import ThreadingMixIn

import pytest

import shardvcs.cas
from shardvcs import (
    Address,
    BlobStore,
    Client,
    HarnessConfig,
    LatencyProfile,
    ShareCache,
    SimulatedChain,
    VirtualClock,
)

# A leaked socket or file, or an exception swallowed in a finalizer, fails the
# test that leaked it. Scoped to this directory, because perfbench's
# fresh-pull-http teardown still leaves its client socket open.
_STRICT_WARNINGS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for mark in _STRICT_WARNINGS:
                item.add_marker(mark)


@dataclass
class World:
    clock: VirtualClock
    cas: BlobStore
    cache: ShareCache
    chain: SimulatedChain
    client: Client
    rng: random.Random
    owner: Address


@pytest.fixture
def make_world(tmp_path):
    """Factory for a fully wired virtual-clock deployment, built as the CLI and the bench build theirs."""

    counter = [0]

    def build(
        delay_s: float = 14.0,
        store_profile: LatencyProfile = LatencyProfile(),
        fetch_profile: LatencyProfile = LatencyProfile(),
        seed: int = 0,
        ttl_s: float = 24 * 3600.0,
    ) -> World:
        counter[0] += 1
        rng = random.Random(seed)
        cfg = HarnessConfig(
            store_fixed_s=store_profile.fixed_overhead_s,
            store_per_mb_s=store_profile.per_mb_s,
            fetch_fixed_s=fetch_profile.fixed_overhead_s,
            fetch_per_mb_s=fetch_profile.per_mb_s,
            confirmation_delay_min_s=delay_s,  # equal bounds draw nothing from the rng
            confirmation_delay_max_s=delay_s,
            middleman_ttl_s=ttl_s,
        )
        client = cfg.client(tmp_path / f"cas{counter[0]}", rng=rng)
        return World(client.clock, client.cas, client.middleman, client.chain, client, rng, Address.from_label("owner"))

    return build


@pytest.fixture
def accepts(monkeypatch):
    """Count the connections every server accepts, seen from the server side."""
    count = [0]
    original = ThreadingMixIn.process_request

    def counting(self, request, client_address):
        count[0] += 1  # the accept loop runs on one thread
        original(self, request, client_address)

    monkeypatch.setattr(ThreadingMixIn, "process_request", counting)
    return count


@pytest.fixture
def calibrated_config():
    """The config `shardvcs calibrate --write-config` writes: the fitted profiles, every other key at its default."""
    from shardvcs.bench import calibrate

    cal = calibrate()
    return HarnessConfig(
        store_fixed_s=cal.store_profile.fixed_overhead_s,
        store_per_mb_s=cal.store_profile.per_mb_s,
        fetch_fixed_s=cal.fetch_profile.fixed_overhead_s,
        fetch_per_mb_s=cal.fetch_profile.per_mb_s,
    )


@pytest.fixture
def full_disk(monkeypatch):
    """`with full_disk(room):` a blob write that would take its file past `room` bytes fails with ENOSPC."""

    @contextlib.contextmanager
    def filled(room: int = 0):
        real_write_all = shardvcs.cas._write_all

        def write_all(fd, data):
            if os.fstat(fd).st_size + len(data) > room:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real_write_all(fd, data)

        with monkeypatch.context() as patch:
            patch.setattr(shardvcs.cas, "_write_all", write_all)
            yield

    return filled


class SlowHashWorker:
    """A one-thread hash executor that starts each job 2 ms late and keeps every job it was given.

    With the delay, a hash that the store failed to wait for is still
    running when the store returns, so `pending()` shows it, and a digest
    read too early differs from the blob's. The delay is no hash time, so a
    caller waits out every blob's hash: with `steps_aside` set, the blobs
    after one on this worker are hashed inline as `cas._hash_worker` would.
    """

    def __init__(self):
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="test-hash")
        self.jobs = []
        self.steps_aside = False

    def submit(self, fn, *args):
        def late(*args):
            time.sleep(0.002)
            return fn(*args)

        job = self._executor.submit(late, *args)
        self.jobs.append(job)
        return job

    def pending(self) -> list:
        return [job for job in self.jobs if not job.done()]

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)


@pytest.fixture
def slow_hash_worker(monkeypatch):
    """Every blob of more than one piece is hashed on a `SlowHashWorker`, whatever the CPU count.

    Set the worker's `steps_aside` to let a blob that did not overlap send the next blobs inline.
    """
    worker = SlowHashWorker()

    def hash_worker(size):
        if size <= shardvcs.cas.PIECE or (worker.steps_aside and shardvcs.cas._stepping_aside()):
            return None
        return worker

    monkeypatch.setattr(shardvcs.cas, "_hash_worker", hash_worker)
    yield worker
    worker.shutdown()


@pytest.fixture(autouse=True)
def hash_worker_in_use(monkeypatch):
    """Each test starts with the hash worker in use, not stepped aside by an earlier test's blob."""
    monkeypatch.setattr(shardvcs.cas, "_inline_left", 0)
