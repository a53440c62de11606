import contextlib
import errno
import os
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

import shardvcs.cas
from shardvcs import (
    Address,
    BlobStore,
    ChainConfig,
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
    """Factory for a fully wired virtual-clock deployment."""

    counter = [0]

    def build(
        delay_s: float = 14.0,
        store_profile: LatencyProfile = LatencyProfile(),
        fetch_profile: LatencyProfile = LatencyProfile(),
        seed: int = 0,
        ttl_s: float = 24 * 3600.0,
    ) -> World:
        counter[0] += 1
        clock = VirtualClock()
        rng = random.Random(seed)
        cas = BlobStore(tmp_path / f"cas{counter[0]}", store_profile, fetch_profile, clock)
        cache = ShareCache(ttl_s=ttl_s, clock=clock)
        chain = SimulatedChain(ChainConfig.constant(delay_s), clock, rng=rng)
        client = Client(cas, chain, cache, clock=clock, rng=rng)
        return World(clock, cas, cache, chain, client, rng, Address.from_label("owner"))

    return build


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
