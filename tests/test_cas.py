import hashlib
import itertools
import os
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shardvcs import cas
from shardvcs.cas import (
    BlobStore,
    CapacityError,
    Cid,
    CorruptBlobError,
    LatencyProfile,
    NotFoundError,
    write_atomic,
)
from shardvcs.clock import VirtualClock


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
    assert store.fetch(cid) == b"blob body"


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
        store.fetch(cid)


def test_contains(tmp_path):
    store = BlobStore(tmp_path)
    cid = Cid.of(b"probe")
    assert not store.contains(cid)
    store.store(b"probe")
    assert store.contains(cid)
    store.fetch(cid)
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


def test_capacity_cap(tmp_path):
    store = BlobStore(tmp_path, capacity_bytes=10)
    store.store(b"12345")
    with pytest.raises(CapacityError):
        store.store(b"123456789")
    # refused blob is not stored
    assert not store.contains(Cid.of(b"123456789"))
    # duplicate of an existing blob does not consume new capacity
    store.store(b"12345")


def test_capacity_counts_blobs_already_on_disk(tmp_path):
    BlobStore(tmp_path).store(b"x" * 8)  # written by an uncapped store
    reopened = BlobStore(tmp_path, capacity_bytes=10)
    with pytest.raises(CapacityError):
        reopened.store(b"123")
    reopened.store(b"12")  # 8 + 2 fills the cap exactly


def test_disk_layout(tmp_path):
    store = BlobStore(tmp_path)
    cid = store.store(b"layout probe")
    hexd = cid.digest.hex()
    assert (tmp_path / hexd[:2] / hexd).is_file()


def test_persistence_across_instances(tmp_path):
    cid = BlobStore(tmp_path).store(b"durable")
    assert BlobStore(tmp_path).fetch(cid) == b"durable"


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
    assert store.fetch(results[0]) == blob
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
    hexd = Cid.of(blob).digest.hex()
    prefix = tmp_path / hexd[:2]
    prefix.mkdir()
    stale = [prefix / f".tmp-{os.getpid()}-{n}" for n in range(2)]
    for path in stale:
        path.write_bytes(b"torn write")
    monkeypatch.setattr(cas, "_TMP_COUNTER", itertools.count())  # next names are the stale ones
    cid = BlobStore(tmp_path).store(blob)
    assert BlobStore(tmp_path).fetch(cid) == blob
    assert all(path.read_bytes() == b"torn write" for path in stale)


@given(blob=st.binary(min_size=1, max_size=4096))
@settings(max_examples=40, deadline=None)
def test_property_self_certification(tmp_path_factory, blob):
    root = tmp_path_factory.mktemp("cas")
    store = BlobStore(root)
    cid = store.store(blob)
    fetched = store.fetch(cid)
    assert hashlib.sha256(fetched).digest() == cid.digest
