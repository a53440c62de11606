import errno
import hashlib
import http.client
import json
import os
import random
import sys
import threading
import tracemalloc
import urllib.parse

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from shardvcs import envelope
from shardvcs.cas import PIECE, Cid, LatencyProfile, NotFoundError
from shardvcs.envelope import KEY_LEN
from shardvcs.ledger import AccessDeniedError, Address
from shardvcs.middleman import HttpShareCache, MiddlemanServer, MiddlemanUnavailableError, ShareCache
from shardvcs.protocol import (
    MIDDLEMAN,
    ON_CHAIN,
    PULL_PHASES,
    IntegrityError,
    SharesUnavailableError,
)
from shardvcs.sss import Share, combine

import aes_gcm_oracle
from scripted_middleman import http_reply, scripted_middleman

BOB = Address.from_label("bob")
MANY_PIECES = 2 * PIECE + 1000  # more than two pieces when sealed
MALLORY = Address.from_label("mallory")


class CountingCache:
    """ShareCache wrapper that counts fetches (for authority-preference checks)."""

    def __init__(self, inner):
        self.inner = inner
        self.fetches = 0

    def store_share(self, repo, share_text):
        self.inner.store_share(repo, share_text)

    def fetch_share(self, repo):
        self.fetches += 1
        return self.inner.fetch_share(repo)

    def evict(self, repo):
        self.inner.evict(repo)


class CountingChain:
    """SimulatedChain wrapper that counts view calls (one per pull is the budget)."""

    VIEWS = ("registered_owner", "check_access", "get_on_chain_share")

    def __init__(self, inner):
        self.inner = inner
        self.views = 0

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name not in self.VIEWS:
            return attr

        def counted(*args):
            self.views += 1
            return attr(*args)

        return counted


def test_push_validates_inputs(make_world):
    world = make_world()
    with pytest.raises(ValueError):
        world.client.push(b"", world.owner)


def test_push_returns_before_confirmation(make_world):
    world = make_world(delay_s=14.0)
    result = world.client.push(b"repo contents", world.owner)
    assert result.registration.status == "pending"
    assert not world.chain.check_access(result.cid.text, world.owner)
    assert world.clock.now() < result.registration.submitted_at + 14.0
    world.chain.advance_clock(14.0)
    assert result.registration.status == "confirmed"
    assert result.registration.confirmed_at > result.user_perceived_s


def test_push_share_role_assignment(make_world):
    world = make_world()
    result = world.client.push(b"role check", world.owner)
    assert result.owner_share.index == 1
    cached = Share.from_text(world.cache.fetch_share(result.cid.text))
    assert cached.index == 2
    world.chain.advance_clock(14.0)
    escrowed = Share.from_text(world.chain.get_on_chain_share(world.owner, result.cid.text))
    assert escrowed.index == 3
    assert len({result.owner_share.index, cached.index, escrowed.index}) == 3


def test_push_stores_sealed_not_plaintext(make_world):
    world = make_world()
    body = b"never stored in the clear"
    result = world.client.push(body, world.owner)
    raw = b"".join(map(bytes, world.cas.fetch(result.cid)))
    assert body not in raw


def test_push_duration_covers_foreground_phases_only(make_world):
    from shardvcs.cas import LatencyProfile

    world = make_world(delay_s=14.0, store_profile=LatencyProfile(0.5, 0.1))
    result = world.client.push(b"\x00" * 2_000_000, world.owner)
    sealed_mb = (2_000_000 + 16) / 1e6  # ciphertext plus 16-byte tag
    assert result.user_perceived_s == pytest.approx(0.5 + 0.1 * sealed_mb)
    assert result.user_perceived_s == pytest.approx(sum(result.phases.values()))
    assert result.phases["store_s"] == pytest.approx(0.5 + 0.1 * sealed_mb)


def test_pull_before_confirmation_uses_middleman(make_world):
    world = make_world(delay_s=14.0)
    result = world.client.push(b"early bird", world.owner)
    plaintext, report = world.client.pull(result.cid, world.owner, result.owner_share)
    assert plaintext == b"early bird"
    assert report.path_used == MIDDLEMAN
    assert report.access_checked is False


def test_pull_after_confirmation_uses_chain_and_skips_middleman(make_world):
    world = make_world(delay_s=14.0)
    counting = CountingCache(world.cache)
    world.client.middleman = counting
    result = world.client.push(b"patient puller", world.owner)
    world.chain.advance_clock(14.0)
    plaintext, report = world.client.pull(result.cid, world.owner, result.owner_share)
    assert plaintext == b"patient puller"
    assert report.path_used == ON_CHAIN
    assert report.access_checked is True
    assert counting.fetches == 0


def test_pull_asks_the_chain_once(make_world):
    world = make_world(delay_s=14.0)
    chain = CountingChain(world.chain)
    world.client.chain = chain
    result = world.client.push(b"one question", world.owner)
    assert chain.views == 0

    _, report = world.client.pull(result.cid, world.owner, result.owner_share)
    assert (report.path_used, report.access_checked, chain.views) == (MIDDLEMAN, False, 1)

    world.chain.advance_clock(14.0)
    _, report = world.client.pull(result.cid, world.owner, result.owner_share)
    assert (report.path_used, report.access_checked, chain.views) == (ON_CHAIN, True, 2)

    with pytest.raises(AccessDeniedError):
        world.client.pull(result.cid, MALLORY, result.owner_share)
    assert chain.views == 3


def test_pull_by_stranger_denied_before_share_traffic(make_world):
    world = make_world()
    counting = CountingCache(world.cache)
    world.client.middleman = counting
    result = world.client.push(b"walled", world.owner)
    world.chain.advance_clock(14.0)
    with pytest.raises(AccessDeniedError):
        world.client.pull(result.cid, MALLORY, result.owner_share)
    assert counting.fetches == 0


def test_collaborator_grant_flow(make_world):
    world = make_world()
    result = world.client.push(b"shared work", world.owner)
    world.chain.advance_clock(14.0)
    grant = world.client.add_collaborator(world.owner, result.cid, BOB)
    with pytest.raises(AccessDeniedError):
        world.client.pull(result.cid, BOB, result.owner_share)  # grant still pending
    world.chain.advance_clock(14.0)
    assert grant.status == "confirmed"
    plaintext, report = world.client.pull(result.cid, BOB, result.owner_share)
    assert plaintext == b"shared work"
    assert report.path_used == ON_CHAIN


def test_non_owner_grant_rejected(make_world):
    world = make_world()
    result = world.client.push(b"mine", world.owner)
    world.chain.advance_clock(14.0)
    receipt = world.client.add_collaborator(MALLORY, result.cid, MALLORY)
    world.chain.advance_clock(14.0)
    assert receipt.status == "rejected"
    assert receipt.rejection_reason == "not-owner"


def test_pull_with_no_share_anywhere(make_world):
    world = make_world(delay_s=1000.0)
    result = world.client.push(b"orphaned", world.owner)
    world.cache.evict(result.cid.text)  # registration still pending for ages
    with pytest.raises(SharesUnavailableError):
        world.client.pull(result.cid, world.owner, result.owner_share)


def test_pull_expired_cache_before_confirmation(make_world):
    world = make_world(delay_s=50.0, ttl_s=10.0)
    result = world.client.push(b"slow chain", world.owner)
    world.clock.sleep(20.0)  # cache expired, chain still pending
    with pytest.raises(SharesUnavailableError):
        world.client.pull(result.cid, world.owner, result.owner_share)


def test_pull_detects_corrupted_blob(make_world, tmp_path):
    world = make_world()
    result = world.client.push(b"bit rot target", world.owner)
    world.chain.advance_clock(14.0)
    hexd = result.cid.digest.hex()
    path = world.cas.root / hexd[:2] / hexd
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x04
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, result.owner_share)


def _unmasked_middleman_share(world, result) -> Share:
    """The middleman's copy with the push's mask removed: XOR with SHAKE-256 of the owner's payload and the CID."""
    repo = result.cid.text
    cached = Share.from_text(world.cache.fetch_share(repo))
    pad = hashlib.shake_256(result.owner_share.payload + repo.encode()).digest(len(cached.payload))
    return Share(cached.index, bytes(a ^ b for a, b in zip(cached.payload, pad)))


@pytest.mark.parametrize("size", [64, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_pull_rejects_a_validly_tagged_forgery_by_a_key_holder(make_world, size):
    # The middleman copy is unauthenticated, so anyone holding the owner's share
    # (any granted collaborator) can unmask it and rebuild key and IV. GCM does not
    # commit to one plaintext: new bytes sealed under that key and IV carry a
    # valid tag. Only the re-hash against the owner-registered CID binds them.
    world = make_world()
    rng = random.Random(size)
    result = world.client.push(rng.randbytes(size), world.owner)
    secret = combine([result.owner_share, _unmasked_middleman_share(world, result)], threshold=2)
    forged = AESGCM(secret[:KEY_LEN]).encrypt(secret[KEY_LEN:], rng.randbytes(size), None)
    hexd = result.cid.digest.hex()
    (world.cas.root / hexd[:2] / hexd).write_bytes(forged)
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, result.owner_share)


def _public_on_chain_share(world, result) -> Share:
    """The share text of the push's pending registration, which every chain reader sees."""
    (pending,) = [tx for tx in world.chain.snapshot()["pending"] if tx["repo"] == result.cid.text]
    return Share.from_text(pending["share_text"])


def test_a_stranger_with_the_public_shares_cannot_open_a_pushed_blob(make_world, http_cache):
    world = make_world(delay_s=1000.0)
    world.client.middleman = http_cache
    body = b"confidential until the owner shares it"
    result = world.client.push(body, world.owner)
    public = _public_on_chain_share(world, result)
    url = urllib.parse.urlsplit(http_cache.base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)  # the reply anyone gets, asked without the client
    try:
        conn.request("GET", f"/share/{result.cid.text}")
        reply = conn.getresponse()
        assert reply.status == 200
        served = Share.from_text(json.loads(reply.read())["share"])
    finally:
        conn.close()
    hexd = result.cid.digest.hex()
    sealed = (world.cas.root / hexd[:2] / hexd).read_bytes()

    def open_with(*shares):
        secret = combine(list(shares), threshold=2)
        return AESGCM(secret[:KEY_LEN]).decrypt(secret[KEY_LEN:], sealed, None)

    assert open_with(result.owner_share, public) == body  # the blob and the public share are the real ones
    with pytest.raises(InvalidTag):
        open_with(public, served)


def test_a_pull_holding_only_the_public_on_chain_share_fails_before_confirmation(make_world):
    world = make_world(delay_s=1000.0)
    result = world.client.push(b"not for strangers", world.owner)
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, MALLORY, _public_on_chain_share(world, result))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda raw: raw[: PIECE + 7] + bytes([raw[PIECE + 7] ^ 0x20]) + raw[PIECE + 8 :],  # a middle piece
        lambda raw: raw[:-3] + bytes([raw[-3] ^ 0x01]) + raw[-2:],  # the tag
        lambda raw: raw[:-1],  # cut by one byte
        lambda raw: raw + b"\x00",  # one byte appended
    ],
    ids=["middle-piece", "tag", "cut", "appended"],
)
def test_pull_of_many_pieces_detects_tampering(make_world, tamper):
    world = make_world()
    result = world.client.push(random.Random(9).randbytes(MANY_PIECES), world.owner)
    world.chain.advance_clock(14.0)
    path = world.cas.root / result.cid.digest.hex()[:2] / result.cid.digest.hex()
    path.write_bytes(tamper(path.read_bytes()))
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, result.owner_share)


def test_pull_of_many_pieces_detects_a_forged_held_share(make_world):
    world = make_world()
    result = world.client.push(random.Random(10).randbytes(MANY_PIECES), world.owner)
    world.chain.advance_clock(14.0)
    forged = Share(index=1, payload=bytes(len(result.owner_share.payload)))
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, forged)


@pytest.mark.parametrize("hashing", ["worker", "inline"])
def test_a_pull_peaks_at_about_two_pieces_beyond_the_plaintext(make_world, request, monkeypatch, hashing):
    # Holding the sealed blob and the plaintext together would peak at twice the blob.
    # The pull reads into two 1 MiB buffers in turn, hashed on the worker or inline;
    # a third buffer would reach 11 MiB.
    if hashing == "worker":
        request.getfixturevalue("slow_hash_worker")
    else:
        monkeypatch.setattr("shardvcs.cas._cpus", lambda: 1)
    world = make_world()
    body = random.Random(8).randbytes(8 << 20)
    result = world.client.push(body, world.owner)
    world.chain.advance_clock(14.0)
    tracemalloc.start()
    try:
        plaintext, _ = world.client.pull(result.cid, world.owner, result.owner_share)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plaintext == body
    assert peak < (8 << 20) + (5 << 19)  # 8 MiB + 2.5 MiB


def test_pull_detects_forged_held_share(make_world):
    world = make_world()
    result = world.client.push(b"forgery target", world.owner)
    world.chain.advance_clock(14.0)
    forged = Share(index=1, payload=bytes(len(result.owner_share.payload)))
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, forged)



def test_pull_rejects_short_forged_shares(make_world):
    # Both shares 43 bytes: they combine to a secret one byte short of
    # key || iv, which must fail as an integrity error.
    world = make_world(delay_s=1000.0)
    result = world.client.push(b"short forgery target", world.owner)
    rng = random.Random(43)
    world.cache.store_share(result.cid.text, Share(index=2, payload=rng.randbytes(43)).to_text())
    forged = Share(index=1, payload=rng.randbytes(43))
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, forged)

def test_pull_missing_blob_is_not_found(make_world):
    world = make_world()
    result = world.client.push(b"to be lost", world.owner)
    world.chain.advance_clock(14.0)
    hexd = result.cid.digest.hex()
    (world.cas.root / hexd[:2] / hexd).unlink()
    with pytest.raises(NotFoundError):
        world.client.pull(result.cid, world.owner, result.owner_share)


def test_pull_phase_durations_cover_total(make_world):
    from shardvcs.cas import LatencyProfile

    world = make_world(fetch_profile=LatencyProfile(0.3, 0.05))
    result = world.client.push(b"\x00" * 4_000_000, world.owner)
    world.chain.advance_clock(14.0)
    _, report = world.client.pull(result.cid, world.owner, result.owner_share)
    assert report.user_perceived_s == pytest.approx(sum(report.phases.values()))
    sealed_size = 4_000_000 + 16
    assert report.phases["blob_fetch_s"] == pytest.approx(0.3 + 0.05 * sealed_size / 1e6)


# -- failure atomicity ------------------------------------------------------


def test_failed_store_leaves_nothing_behind(make_world, full_disk):
    world = make_world()
    with full_disk(), pytest.raises(OSError) as failure:
        world.client.push(b"\x00" * 1000, world.owner)
    assert failure.value.errno == errno.ENOSPC
    assert not any(p.is_file() for p in world.cas.root.rglob("*"))
    assert world.cache.live_shares() == {}
    assert world.chain.pending_count() == 0


def test_failed_middleman_blocks_registration(make_world):
    world = make_world()

    class DownCache:
        def store_share(self, repo, share_text):
            raise ConnectionError("cache service unreachable")

        def evict(self, repo):
            pass

    world.client.middleman = DownCache()
    with pytest.raises(ConnectionError):
        world.client.push(b"unlucky", world.owner)
    assert world.chain.pending_count() == 0
    world.chain.advance_clock(1000.0)
    assert world.chain.registered_owner(Cid.of(b"unlucky").text) is None


class _BrokenChain:
    """A chain whose registration submit fails; every other call reaches `inner`."""

    def __init__(self, inner):
        self._inner = inner

    def submit_register(self, sender, repo, share_text):
        raise RuntimeError("mempool rejected the transaction")

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_failed_submission_evicts_middleman_entry(make_world):
    world = make_world()
    world.client.chain = _BrokenChain(world.chain)
    blob = b"evict me"
    with pytest.raises(RuntimeError):
        world.client.push(blob, world.owner)
    assert world.cache.live_shares() == {}
    assert world.chain.pending_count() == 0


def test_a_failed_submission_propagates_as_itself_when_the_middleman_cannot_evict(make_world):
    world = make_world()
    server = MiddlemanServer(port=0).start()

    class ChainThatOutlivesTheMiddleman(_BrokenChain):
        def submit_register(self, sender, repo, share_text):
            server.stop()  # the share is stored; the eviction will find no middleman
            super().submit_register(sender, repo, share_text)

    world.client.chain = ChainThatOutlivesTheMiddleman(world.chain)
    world.client.middleman = HttpShareCache(server.url, timeout_s=2)
    try:
        with pytest.raises(RuntimeError, match="mempool rejected"):
            world.client.push(b"not masked", world.owner)
    finally:
        world.client.middleman.close()
        server.stop()
    assert len(server.cache.live_shares()) == 1  # unevicted: it lives until its TTL


# -- a failed push over HTTP, where the blob write and the share store overlap ------------


class _RecordingCache(ShareCache):
    """A server's share cache that records the stores and evictions it applies, or refuses every store."""

    def __init__(self, refuse: bool = False):
        super().__init__()
        self.applied = []
        self.refuse = refuse

    def store_share(self, repo, share_text):
        if self.refuse:
            raise ValueError("refused")  # the server answers 400
        super().store_share(repo, share_text)
        self.applied.append(("store", repo))

    def evict(self, repo):
        super().evict(repo)
        self.applied.append(("evict", repo))


@pytest.mark.parametrize("size", [64, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_a_push_whose_blob_write_fails_at_commit_leaves_nothing_over_http(make_world, full_disk, accepts, size):
    world = make_world()
    server = MiddlemanServer(_RecordingCache(), port=0).start()
    world.client.middleman = HttpShareCache(server.url, timeout_s=2)
    try:
        with full_disk(room=size), pytest.raises(OSError) as failure:  # the disk fills at the tag
            world.client.push(random.Random(13).randbytes(size), world.owner)
        assert failure.value.errno == errno.ENOSPC
    finally:
        world.client.middleman.close()
        server.stop()
    (_, repo), _ = server.cache.applied
    assert server.cache.applied == [("store", repo), ("evict", repo)]
    assert accepts[0] == 1  # on one connection, so the eviction could not overtake the store
    assert not any(p.is_file() for p in world.cas.root.rglob("*"))
    assert world.chain.pending_count() == 0


def test_a_push_whose_submission_fails_stores_then_evicts_its_share_on_one_connection(make_world, accepts):
    world = make_world()
    world.client.chain = _BrokenChain(world.chain)
    server = MiddlemanServer(_RecordingCache(), port=0).start()
    world.client.middleman = HttpShareCache(server.url, timeout_s=2)
    try:
        with pytest.raises(RuntimeError):
            world.client.push(b"undone", world.owner)
    finally:
        world.client.middleman.close()
        server.stop()
    (_, repo), _ = server.cache.applied
    assert server.cache.applied == [("store", repo), ("evict", repo)]
    assert accepts[0] == 1


@pytest.mark.parametrize("fault", ["refused", "down"])
def test_a_push_whose_share_store_fails_keeps_the_blob_over_http(make_world, fault):
    world = make_world()
    server = MiddlemanServer(_RecordingCache(refuse=fault == "refused"), port=0).start()
    if fault == "down":
        server.stop()
    world.client.middleman = HttpShareCache(server.url, timeout_s=2)
    try:
        with pytest.raises(ValueError if fault == "refused" else MiddlemanUnavailableError):
            world.client.push(b"kept", world.owner)
    finally:
        world.client.middleman.close()
        server.stop()
    (stored,) = world.cas.root.glob("??/*")
    hexd = Cid.of(stored.read_bytes()).digest.hex()
    assert stored == world.cas.root / hexd[:2] / hexd
    assert server.cache.live_shares() == {}
    assert world.chain.pending_count() == 0


# -- end-to-end fidelity ---------------------------------------------------------


@given(
    body=st.binary(min_size=1, max_size=8192),
    when=st.sampled_from(["pre", "post"]),
    who=st.sampled_from(["owner", "collaborator"]),
)
@settings(max_examples=30, deadline=None)
def test_property_roundtrip_every_path(tmp_path_factory, body, when, who):
    import shardvcs as sv

    clock = sv.VirtualClock()
    rng = random.Random(0)
    cas = sv.BlobStore(tmp_path_factory.mktemp("cas"), clock=clock)
    cache = sv.ShareCache(clock=clock)
    chain = sv.SimulatedChain(sv.ChainConfig(14.0, 14.0), clock, rng=rng)
    client = sv.Client(cas, chain, cache, clock=clock, rng=rng)
    owner = Address.from_label("owner")

    result = client.push(body, owner)
    caller = owner
    if who == "collaborator":
        chain.advance_clock(14.0)
        client.add_collaborator(owner, result.cid, BOB)
        chain.advance_clock(14.0)
        caller = BOB
        expected_path = ON_CHAIN
    elif when == "post":
        chain.advance_clock(14.0)
        expected_path = ON_CHAIN
    else:
        expected_path = MIDDLEMAN

    plaintext, report = client.pull(result.cid, caller, result.owner_share)
    assert plaintext == body
    assert report.path_used == expected_path


# -- the share fetch and the blob read overlap --------------------------------------


@pytest.fixture
def http_cache():
    """A `MiddlemanServer` in this process and a client of it."""
    server = MiddlemanServer(ShareCache(ttl_s=3600.0), port=0).start()
    client = HttpShareCache(server.url)
    yield client
    client.close()
    server.stop()


@pytest.mark.parametrize("over_http", [False, True], ids=["in-process", "http"])
def test_a_middleman_pull_reports_the_modeled_fetch_as_an_on_chain_pull_does(make_world, http_cache, over_http):
    world = make_world(fetch_profile=LatencyProfile(0.3, 0.05))
    if over_http:
        world.client.middleman = http_cache
    result = world.client.push(random.Random(11).randbytes(3 * PIECE), world.owner)
    early_text, early = world.client.pull(result.cid, world.owner, result.owner_share)
    world.chain.advance_clock(14.0)
    late_text, late = world.client.pull(result.cid, world.owner, result.owner_share)
    assert early_text == late_text
    assert (early.path_used, late.path_used) == (MIDDLEMAN, ON_CHAIN)
    for report in (early, late):
        assert tuple(report.phases) == PULL_PHASES
        assert report.phases["share_fetch_s"] == 0.0
    # the two pulls read the clock at other instants, so the differences may round apart
    modeled = pytest.approx(0.3 + 0.05 * (3 * PIECE + 16) / 1e6, rel=1e-12)
    assert early.phases["blob_fetch_s"] == modeled and late.phases["blob_fetch_s"] == modeled
    assert early.user_perceived_s == modeled and late.user_perceived_s == modeled


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "reply, error",
    [
        (None, SharesUnavailableError),
        (http_reply(b'{"error": "absent"}', b"404 Not Found"), SharesUnavailableError),
        (http_reply(b'{"share": "zz"}'), IntegrityError),
        (b"garbage\r\n\r\n", MiddlemanUnavailableError),
    ],
    ids=["in-process-no-share", "http-no-share", "http-malformed-share", "http-middleman-down"],
)
@pytest.mark.parametrize("size", [64, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_a_pull_that_fails_after_the_blob_read_began_closes_the_file(make_world, reply, error, size):
    world = make_world(delay_s=1000.0)
    result = world.client.push(random.Random(12).randbytes(size), world.owner)
    world.cache.evict(result.cid.text)
    before = _open_fds()
    if reply is None:
        with pytest.raises(error):
            world.client.pull(result.cid, world.owner, result.owner_share)
    else:
        with scripted_middleman([reply]) as (url, _):
            world.client.middleman = HttpShareCache(url, timeout_s=2)
            try:
                with pytest.raises(error):
                    world.client.pull(result.cid, world.owner, result.owner_share)
            finally:
                world.client.middleman.close()
    assert _open_fds() == before


def test_a_pull_with_neither_blob_nor_share_is_not_found(make_world):
    world = make_world(delay_s=1000.0)
    result = world.client.push(b"gone twice over", world.owner)
    world.cache.evict(result.cid.text)
    hexd = result.cid.digest.hex()
    (world.cas.root / hexd[:2] / hexd).unlink()
    with pytest.raises(NotFoundError):
        world.client.pull(result.cid, world.owner, result.owner_share)


# -- blobs of many pieces, hashed on the worker one piece behind ----------------------

THREE_PIECES = 3 * PIECE + 5  # four sealed pieces, the last one short


def _one_shot_seal(world, result, body: bytes) -> bytes:
    """The pushed blob sealed in one call, its blocks at each piece's start spot-checked against the oracle."""
    secret = combine([result.owner_share, _unmasked_middleman_share(world, result)], threshold=2)
    key, iv = secret[:KEY_LEN], secret[KEY_LEN:]
    sealed = AESGCM(key).encrypt(iv, body, None)
    for block in range(0, len(body) // 16, PIECE // 16):
        at = slice(16 * block, 16 * block + 16)
        assert sealed[at] == aes_gcm_oracle.ciphertext_block(key, iv, body[at], block)
    return sealed


@pytest.mark.parametrize("path", [MIDDLEMAN, ON_CHAIN])
@pytest.mark.parametrize(
    "where", [17, 2 * PIECE + 9, THREE_PIECES + 3], ids=["first-piece", "middle-piece", "tag"]
)
def test_a_pull_of_many_pieces_damaged_anywhere_returns_no_plaintext(make_world, slow_hash_worker, monkeypatch,
                                                                       path, where):
    world = make_world()
    body = random.Random(where).randbytes(THREE_PIECES)
    result = world.client.push(body, world.owner)
    if path == ON_CHAIN:
        world.chain.advance_clock(14.0)
    opened = []
    real_unseal = envelope.unseal

    def unseal(*args):
        opened.append(real_unseal(*args))
        return opened[-1]

    monkeypatch.setattr(envelope, "unseal", unseal)
    plaintext, report = world.client.pull(result.cid, world.owner, result.owner_share)
    assert (plaintext, report.path_used) == (body, path)  # every hash was waited for before the digest was read
    hexd = result.cid.digest.hex()
    blob_path = world.cas.root / hexd[:2] / hexd
    raw = bytearray(blob_path.read_bytes())
    raw[where] ^= 0x10
    blob_path.write_bytes(raw)
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, result.owner_share)
    assert len(opened) == 1  # the damaged blob gave no plaintext
    assert slow_hash_worker.pending() == []


def test_threads_pushing_and_pulling_blobs_of_many_pieces_at_once_each_get_their_own_cid(make_world,
                                                                                          slow_hash_worker):
    worlds = [make_world(seed=i) for i in range(3)]  # more threads than this machine's two cores
    bodies = [random.Random(30 + i).randbytes(THREE_PIECES + 1000 * i) for i in range(3)]
    done: list = [None] * 3
    errors = []

    def push_and_pull(i: int) -> None:
        try:
            world = worlds[i]
            for _ in range(3):
                result = world.client.push(bodies[i], world.owner)
                plaintext, _ = world.client.pull(result.cid, world.owner, result.owner_share)
                assert plaintext == bodies[i]
            done[i] = result
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=push_and_pull, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for world, body, result in zip(worlds, bodies, done):
        assert result.cid == Cid(hashlib.sha256(_one_shot_seal(world, result, body)).digest())
    assert slow_hash_worker.jobs and slow_hash_worker.pending() == []
