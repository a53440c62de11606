import errno
import random
import tracemalloc

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from shardvcs.cas import PIECE, Cid, NotFoundError
from shardvcs.envelope import KEY_LEN
from shardvcs.ledger import AccessDeniedError, Address
from shardvcs.protocol import (
    MIDDLEMAN,
    ON_CHAIN,
    IntegrityError,
    SharesUnavailableError,
)
from shardvcs.sss import Share, combine

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
    assert result.registration.confirmed_at > result.user_perceived_duration


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
    assert result.user_perceived_duration == pytest.approx(0.5 + 0.1 * sealed_mb)
    assert result.user_perceived_duration == pytest.approx(sum(result.phases.values()))
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


@pytest.mark.parametrize("size", [64, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_pull_rejects_a_validly_tagged_forgery_by_a_key_holder(make_world, size):
    # The middleman copy is unauthenticated, so anyone holding a share (any
    # granted collaborator) can rebuild key and IV with it. GCM does not
    # commit to one plaintext: new bytes sealed under that key and IV carry a
    # valid tag. Only the re-hash against the owner-registered CID binds them.
    world = make_world()
    rng = random.Random(size)
    result = world.client.push(rng.randbytes(size), world.owner)
    cached = Share.from_text(world.cache.fetch_share(result.cid.text))
    secret = combine([result.owner_share, cached], threshold=2)
    forged = AESGCM(secret[:KEY_LEN]).encrypt(secret[KEY_LEN:], rng.randbytes(size), None)
    hexd = result.cid.digest.hex()
    (world.cas.root / hexd[:2] / hexd).write_bytes(forged)
    with pytest.raises(IntegrityError):
        world.client.pull(result.cid, world.owner, result.owner_share)


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


def test_a_pull_peaks_at_about_one_piece_beyond_the_plaintext(make_world):
    # Holding the sealed blob and the plaintext together would peak at twice the blob.
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
    assert peak < (8 << 20) * 1.25 + (2 << 20)


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
    assert report.total_s == pytest.approx(sum(report.phases.values()))
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


def test_failed_submission_evicts_middleman_entry(make_world):
    world = make_world()

    class BrokenChain:
        def __init__(self, inner):
            self._inner = inner

        def submit_register(self, sender, repo, share_text):
            raise RuntimeError("mempool rejected the transaction")

        def __getattr__(self, name):
            return getattr(self._inner, name)

    world.client.chain = BrokenChain(world.chain)
    blob = b"evict me"
    with pytest.raises(RuntimeError):
        world.client.push(blob, world.owner)
    assert world.cache.live_shares() == {}
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
    chain = sv.SimulatedChain(sv.ChainConfig.constant(14.0), clock, rng=rng)
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
