import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from shardvcs import (
    Address,
    BlobStore,
    ChainConfig,
    Client,
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
