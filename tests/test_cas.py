import errno
import hashlib
import itertools
import os
import random
import stat
import threading

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from shardvcs import cas, envelope
from shardvcs.cas import (
    BlobStore,
    Cid,
    CorruptBlobError,
    LatencyProfile,
    NotFoundError,
    write_atomic,
)
from shardvcs.clock import VirtualClock

MANY_PIECES = 2 * cas.PIECE + 1000  # more than two pieces, the last one short


def _joined(pieces) -> bytes:
    """The fetched bytes, each piece copied before the next overwrites its buffer."""
    return b"".join(map(bytes, pieces))


def test_cid_render_shape():
    cid = Cid.of(b"hello")
    assert cid.text.startswith("sha256:")
    assert len(cid.text) == 7 + 64
    assert cid.text == cid.text.lower()
    assert Cid.from_text(cid.text) == cid


def test_cid_deterministic():
    assert Cid.of(b"same") == Cid.of(b"same")
    assert Cid.of(b"same") != Cid.of(b"different")


def test_cid_of_empty_blob_matches_independent_sha256():
    # frozen from an independent SHA-256 computation of the empty string
    assert Cid.of(b"").digest.hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_cid_from_text_rejects_bad_forms():
    good = Cid.of(b"x").text
    for bad in ("md5:" + "0" * 64, good[:-1], good.upper(), "sha256:xyz"):
        with pytest.raises(ValueError):
            Cid.from_text(bad)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_latency_profile_rejects_non_finite_components(value):
    with pytest.raises(ValueError, match="finite"):
        LatencyProfile(value, 0.0)
    with pytest.raises(ValueError, match="finite"):
        LatencyProfile(0.0, value)


def test_latency_profile_validation_and_arithmetic():
    with pytest.raises(ValueError):
        LatencyProfile(-0.1, 0.0)
    with pytest.raises(ValueError):
        LatencyProfile(0.0, -0.1)
    profile = LatencyProfile(0.5, 0.2)
    assert profile.delay_for(10_000_000) == pytest.approx(2.5)
    assert profile.delay_for(0) == pytest.approx(0.5)


def test_store_fetch_roundtrip(tmp_path):
    store = BlobStore(tmp_path)
    cid = store.store(b"blob body")
    assert _joined(store.fetch(cid)) == b"blob body"


def test_store_idempotent_single_copy(tmp_path):
    store = BlobStore(tmp_path)
    a = store.store(b"dup")
    b = store.store(b"dup")
    assert a == b
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == 1


def test_fetch_unknown_cid(tmp_path):
    store = BlobStore(tmp_path)
    with pytest.raises(NotFoundError):
        store.fetch(Cid.of(b"never stored"))


def test_fetch_rejects_bytes_that_no_longer_match_their_cid(tmp_path):
    store = BlobStore(tmp_path)
    cid = store.store(b"bit rot target")
    path = tmp_path / cid.digest.hex()[:2] / cid.digest.hex()
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptBlobError):
        _joined(store.fetch(cid))


def test_contains(tmp_path):
    store = BlobStore(tmp_path)
    cid = Cid.of(b"probe")
    assert not store.contains(cid)
    store.store(b"probe")
    assert store.contains(cid)
    _joined(store.fetch(cid))
    assert store.contains(cid)


def test_store_delay_linear_on_virtual_clock(tmp_path):
    clock = VirtualClock()
    store = BlobStore(tmp_path, store_profile=LatencyProfile(0.5, 0.2), clock=clock)
    store.store(b"\x00" * 10_000_000)
    assert clock.now() == pytest.approx(0.5 + 0.2 * 10)


def test_fetch_delay_linear_on_virtual_clock(tmp_path):
    clock = VirtualClock()
    store = BlobStore(tmp_path, fetch_profile=LatencyProfile(0.5, 0.2), clock=clock)
    cid = store.store(b"\x00" * 10_000_000)
    start = clock.now()
    store.fetch(cid)
    assert clock.now() - start == pytest.approx(2.5)


def test_contains_has_no_delay(tmp_path):
    clock = VirtualClock()
    store = BlobStore(
        tmp_path,
        store_profile=LatencyProfile(1.0, 1.0),
        fetch_profile=LatencyProfile(1.0, 1.0),
        clock=clock,
    )
    cid = store.store(b"abc")
    mark = clock.now()
    store.contains(cid)
    assert clock.now() == mark


def test_storing_a_blob_again_repairs_a_damaged_copy(tmp_path):
    store = BlobStore(tmp_path)
    cid = store.store(b"repairable")
    path = tmp_path / cid.digest.hex()[:2] / cid.digest.hex()
    damaged = bytearray(path.read_bytes())
    damaged[0] ^= 1
    path.write_bytes(damaged)
    with pytest.raises(CorruptBlobError):
        _joined(store.fetch(cid))
    assert store.store(b"repairable") == cid
    assert _joined(store.fetch(cid)) == b"repairable"


def test_a_full_disk_keeps_the_stored_copy_and_stores_nothing_new(tmp_path, full_disk):
    store = BlobStore(tmp_path)
    kept = store.store(b"kept")
    with full_disk(), pytest.raises(OSError) as failure:
        store.store(b"kept")  # the rewrite fails in its temp file, before the stored copy is touched
    assert failure.value.errno == errno.ENOSPC
    assert _joined(store.fetch(kept)) == b"kept"
    with full_disk(), pytest.raises(OSError):
        store.store(b"new")
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [kept.digest.hex()]
    assert store.store(b"new") == Cid.of(b"new")  # once there is room
    assert _joined(store.fetch(Cid.of(b"new"))) == b"new"


def test_disk_layout(tmp_path):
    store = BlobStore(tmp_path)
    cid = store.store(b"layout probe")
    hexd = cid.digest.hex()
    assert (tmp_path / hexd[:2] / hexd).is_file()


def test_persistence_across_instances(tmp_path):
    cid = BlobStore(tmp_path).store(b"durable")
    assert _joined(BlobStore(tmp_path).fetch(cid)) == b"durable"


def test_concurrent_stores_of_same_blob_converge(tmp_path):
    store = BlobStore(tmp_path)
    blob = b"contended" * 1000
    results: list[Cid] = []
    errors: list[Exception] = []

    def worker():
        try:
            results.append(store.store(blob))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(set(results)) == 1
    assert _joined(store.fetch(results[0])) == blob
    assert [p.name for p in tmp_path.rglob(".tmp-*")] == []


def test_failed_replace_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "state.json"
    write_atomic(target, b"old state")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_atomic(target, b"new state")
    assert target.read_bytes() == b"old state"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_new_blobs_and_state_files_are_private(tmp_path):
    store = BlobStore(tmp_path / "cas")
    hexd = store.store(b"private blob").digest.hex()
    state = tmp_path / "chain.json"
    write_atomic(state, b"{}")
    for path in (tmp_path / "cas" / hexd[:2] / hexd, state):
        assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_stale_temp_file_from_a_crash_never_fails_a_store(tmp_path, monkeypatch):
    blob = b"after the crash"
    stale = [tmp_path / f".tmp-{os.getpid()}-{n}" for n in range(2)]  # a store's temps live in its root
    for path in stale:
        path.write_bytes(b"torn write")
    monkeypatch.setattr(cas, "_TMP_COUNTER", itertools.count())  # next names are the stale ones
    cid = BlobStore(tmp_path).store(blob)
    assert _joined(BlobStore(tmp_path).fetch(cid)) == blob
    assert all(path.read_bytes() == b"torn write" for path in stale)


def test_fetch_closes_its_descriptor_on_every_outcome(tmp_path):
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc/self/fd to count open descriptors")
    store = BlobStore(tmp_path)
    large = random.Random(4).randbytes(MANY_PIECES)
    good, big = store.store(b"kept intact"), store.store(large)
    bad, big_bad = store.store(b"flipped on disk"), store.store(large[:-1])
    (tmp_path / bad.digest.hex()[:2] / bad.digest.hex()).write_bytes(b"Flipped on disk")
    (tmp_path / big_bad.digest.hex()[:2] / big_bad.digest.hex()).write_bytes(large[:-1] + b"!")
    missing = Cid.of(b"never stored")
    before = len(os.listdir(fd_dir))
    for _ in range(200):
        assert _joined(store.fetch(good)) == b"kept intact"
        assert _joined(store.fetch(big)) == large
        with pytest.raises(NotFoundError):
            store.fetch(missing)
        with pytest.raises(CorruptBlobError):
            _joined(store.fetch(bad))
        with pytest.raises(CorruptBlobError):
            _joined(store.fetch(big_bad))
        pieces = iter(store.fetch(big))
        assert bytes(next(pieces)) == large[: cas.PIECE]
        assert len(os.listdir(fd_dir)) == before + 1  # the consumer stops here
        del pieces
    assert len(os.listdir(fd_dir)) == before


@pytest.mark.parametrize("size", [1000, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_fetch_reads_the_whole_blob_through_short_reads(tmp_path, monkeypatch, size):
    store = BlobStore(tmp_path)
    blob = random.Random(3).randbytes(size)
    cid = store.store(blob)
    real_read, real_readv = os.read, os.readv
    cap = 7 if size <= cas.PIECE else 100_003
    monkeypatch.setattr(cas.os, "read", lambda fd, n: real_read(fd, min(n, cap)))
    monkeypatch.setattr(cas.os, "readv", lambda fd, bufs: real_readv(fd, [memoryview(bufs[0])[:cap]]))
    pieces = [bytes(piece) for piece in store.fetch(cid)]
    assert b"".join(pieces) == blob
    assert max(map(len, pieces)) <= cas.PIECE


@pytest.mark.parametrize(
    "size, lengths",
    [(1000, [1000]), (MANY_PIECES, [cas.PIECE, cas.PIECE, 1000])],
    ids=["one-piece", "many-pieces"],
)
def test_a_fetch_of_many_pieces_charges_its_delay_at_the_call_and_checks_the_hash_at_the_end(tmp_path, size, lengths):
    clock = VirtualClock()
    store = BlobStore(tmp_path, fetch_profile=LatencyProfile(0.5, 0.2), clock=clock)
    blob = random.Random(6).randbytes(size)
    cid = store.store(blob)
    fetched = store.fetch(cid)
    assert clock.now() == pytest.approx(0.5 + 0.2 * size / 1e6)
    assert len(fetched) == size
    assert [len(piece) for piece in map(bytes, fetched)] == lengths
    path = tmp_path / cid.digest.hex()[:2] / cid.digest.hex()
    path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))  # damage in the last piece
    start = clock.now()
    damaged = store.fetch(cid)
    assert clock.now() - start == pytest.approx(0.5 + 0.2 * size / 1e6)  # charged before a byte is read
    drawn = []
    with pytest.raises(CorruptBlobError):
        for piece in damaged:
            drawn.append(bytes(piece))
    assert len(drawn) == len(lengths)  # every piece was read before the digest was compared


@pytest.mark.parametrize("size", [1000, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_a_blob_deleted_after_its_fetch_is_not_found_when_drawn(tmp_path, size):
    store = BlobStore(tmp_path)
    cid = store.store(random.Random(8).randbytes(size))
    fetched = store.fetch(cid)
    (tmp_path / cid.digest.hex()[:2] / cid.digest.hex()).unlink()
    with pytest.raises(NotFoundError):
        _joined(fetched)


def test_sealed_pieces_are_stored_under_the_sha256_of_the_file(tmp_path):
    rng = random.Random(5)
    key, iv, plaintext = rng.randbytes(32), rng.randbytes(12), rng.randbytes(3 * envelope.CHUNK + 5)
    cid = BlobStore(tmp_path).store(envelope.SealedPieces(plaintext, key + iv))
    on_disk = (tmp_path / cid.digest.hex()[:2] / cid.digest.hex()).read_bytes()
    assert hashlib.sha256(on_disk).digest() == cid.digest
    assert on_disk == AESGCM(key).encrypt(iv, plaintext, None)


def test_a_piece_source_failing_part_way_leaves_nothing(tmp_path, full_disk):
    store = BlobStore(tmp_path)
    kept = store.store(b"k" * 40)

    def pieces():
        yield b"a" * 30
        yield b"b" * 30
        raise OSError("source failed")

    with pytest.raises(OSError, match="source failed"):
        store.store(pieces())
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [kept.digest.hex()]
    with full_disk(room=30), pytest.raises(OSError) as failure:  # the disk fills after the first piece
        store.store(iter([b"c" * 30, b"d" * 30]))
    assert failure.value.errno == errno.ENOSPC
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [kept.digest.hex()]


@given(blob=st.binary(min_size=1, max_size=4096))
@settings(max_examples=40, deadline=None)
def test_property_self_certification(tmp_path_factory, blob):
    root = tmp_path_factory.mktemp("cas")
    store = BlobStore(root)
    cid = store.store(blob)
    fetched = _joined(store.fetch(cid))
    assert hashlib.sha256(fetched).digest() == cid.digest
