import errno
import hashlib
import itertools
import os
import random
import signal
import stat
import threading
import time
import types

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


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("size", [1000, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_fetch_reads_the_whole_blob_through_short_reads(tmp_path, monkeypatch, size, cpus):
    monkeypatch.setattr(cas, "_cpus", lambda: cpus)
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
@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "two-cpus"])
def test_a_fetch_of_many_pieces_charges_its_delay_at_the_call_and_checks_the_hash_at_the_end(
    tmp_path, monkeypatch, size, lengths, cpus
):
    monkeypatch.setattr(cas, "_cpus", lambda: cpus)
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


@pytest.mark.parametrize("started", [False, True], ids=["drawn", "started"])
@pytest.mark.parametrize("size", [1000, MANY_PIECES], ids=["one-piece", "many-pieces"])
def test_a_second_iteration_of_a_fetch_yields_nothing(tmp_path, size, started):
    store = BlobStore(tmp_path)
    blob = random.Random(18).randbytes(size)
    fetched = store.fetch(store.store(blob))
    if started:
        fetched.start()
    assert _joined(fetched) == blob
    assert list(fetched) == []  # not the started first piece, whose buffer was read into again


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
    key, iv, plaintext = rng.randbytes(32), rng.randbytes(12), rng.randbytes(3 * cas.PIECE + 5)
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


# -- staging: address the blob first, store it at commit ------------------------------


def _files(root) -> list[str]:
    return sorted(p.name for p in root.rglob("*") if p.is_file())


def test_a_one_piece_stage_leaves_the_store_root_empty_until_commit(tmp_path):
    clock = VirtualClock()
    store = BlobStore(tmp_path, LatencyProfile(0.5, 0.2), clock=clock)
    with store.stage(b"staged body") as staged:
        assert staged.cid == Cid.of(b"staged body")
        assert clock.now() == pytest.approx(0.5 + 0.2 * 11 / 1e6)  # charged by the stage
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / staged.cid.digest.hex()[:2] / staged.cid.digest.hex()
        assert not path.exists()
        staged.commit()
        assert path.exists()
    assert clock.now() == pytest.approx(0.5 + 0.2 * 11 / 1e6)  # and by nothing after it
    assert _files(tmp_path) == [staged.cid.digest.hex()]
    assert _joined(store.fetch(staged.cid)) == b"staged body"
    with pytest.raises(ValueError):
        staged.commit()  # a staged blob commits once


def test_a_stage_writes_each_piece_once_the_next_is_drawn_and_the_last_at_commit(tmp_path):
    store = BlobStore(tmp_path)
    pieces = [bytearray(b"a" * 30), b"b" * 20, bytearray(b"c" * 10)]
    on_disk_at_each_draw = []

    def source():
        for piece in pieces:
            on_disk_at_each_draw.append(b"".join(p.read_bytes() for p in tmp_path.iterdir()))
            yield piece

    with store.stage(source()) as staged:
        assert on_disk_at_each_draw == [b"", b"", b"a" * 30]
        (tmp,) = tmp_path.iterdir()
        assert tmp.name.startswith(".tmp-") and tmp.read_bytes() == b"a" * 30 + b"b" * 20
        staged.commit()
    assert _files(tmp_path) == [Cid.of(b"a" * 30 + b"b" * 20 + b"c" * 10).digest.hex()]
    assert _joined(store.fetch(staged.cid)) == b"a" * 30 + b"b" * 20 + b"c" * 10


@pytest.mark.parametrize(
    "pieces", [[b"one piece"], [bytearray(b"a" * 30), bytearray(b"b" * 30)]], ids=["held", "written"]
)
def test_an_abandoned_stage_leaves_no_temp_file(tmp_path, pieces):
    store = BlobStore(tmp_path)
    with store.stage(pieces):
        pass
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(RuntimeError), store.stage(pieces):
        raise RuntimeError("the caller failed before the commit")
    assert list(tmp_path.iterdir()) == []


def test_a_stage_or_commit_failing_part_way_leaves_no_temp_file(tmp_path, full_disk):
    store = BlobStore(tmp_path)

    def pieces():
        yield bytearray(b"a" * 30)
        raise OSError("source failed")

    with pytest.raises(OSError, match="source failed"):
        store.stage(pieces())
    assert list(tmp_path.iterdir()) == []
    with store.stage([bytearray(b"c" * 30), b"d" * 30]) as staged:
        with full_disk(room=30), pytest.raises(OSError) as failure:  # the held piece does not fit
            staged.commit()
    assert failure.value.errno == errno.ENOSPC
    assert list(tmp_path.iterdir()) == []
    assert not (tmp_path / staged.cid.digest.hex()[:2] / staged.cid.digest.hex()).exists()


def test_a_staged_sealed_blob_is_the_file_store_writes_and_a_one_shot_encrypt(tmp_path):
    rng = random.Random(9)
    key, iv, plaintext = rng.randbytes(32), rng.randbytes(12), rng.randbytes(3 * cas.PIECE)
    staged_store, stored_store = BlobStore(tmp_path / "staged"), BlobStore(tmp_path / "stored")
    with staged_store.stage(envelope.SealedPieces(plaintext, key + iv)) as staged:
        staged.commit()
    cid = stored_store.store(envelope.SealedPieces(plaintext, key + iv))
    one_shot = AESGCM(key).encrypt(iv, plaintext, None)
    assert staged.cid == cid == Cid.of(one_shot)
    hexd = cid.digest.hex()
    assert (tmp_path / "staged" / hexd[:2] / hexd).read_bytes() == one_shot
    assert (tmp_path / "stored" / hexd[:2] / hexd).read_bytes() == one_shot


# -- hashing a blob of many pieces on the hash worker ---------------------------------

THREE_PIECES = 3 * cas.PIECE + 5  # four pieces, the last one short


def test_only_a_blob_of_many_pieces_in_a_process_with_two_cpus_is_hashed_on_the_worker(monkeypatch):
    monkeypatch.setattr(cas, "_cpus", lambda: 2)
    assert cas._hash_worker(cas.PIECE) is None
    worker = cas._hash_worker(cas.PIECE + 1)
    assert worker is not None and cas._hash_worker(THREE_PIECES) is worker  # one worker per process
    monkeypatch.setattr(cas, "_cpus", lambda: 1)
    assert cas._hash_worker(THREE_PIECES) is None


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "two-cpus"])
def test_a_fetched_piece_stays_intact_until_the_piece_after_next_is_drawn(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(cas, "_cpus", lambda: cpus)
    store = BlobStore(tmp_path)
    blob = random.Random(17).randbytes(THREE_PIECES)
    cid = store.store(blob)
    previous = None
    for i, piece in enumerate(store.fetch(cid)):
        if previous is not None:  # still held while this piece is drawn
            assert previous == blob[(i - 1) * cas.PIECE : i * cas.PIECE]
        previous = piece
    assert i == 3 and previous == blob[3 * cas.PIECE :]


def _placeable() -> bool:
    return hasattr(os, "sched_setaffinity") and len(os.sched_getaffinity(0)) >= 2


@pytest.mark.skipif(not _placeable(), reason="needs two CPUs and the affinity calls")
def test_each_blob_on_the_worker_keeps_it_off_the_cpu_its_caller_is_on(monkeypatch):
    caller = os.sched_getaffinity(0)
    for cpu in sorted(caller)[:2]:  # two CPUs in turn, so the mask must change between them
        monkeypatch.setattr(cas, "_cpu_now", lambda: cpu)
        assert cas._hash_worker(2 * cas.PIECE) is not None
        assert os.sched_getaffinity(cas._WORKER_TID) == caller - {cpu}
    calls = []
    monkeypatch.setattr(cas, "_cpu_now", lambda: calls.append("/proc read") or 0)
    monkeypatch.setattr(cas.os, "sched_setaffinity", lambda *args: calls.append(args))
    assert cas._hash_worker(cas.PIECE) is None
    assert calls == []  # a blob of one piece is hashed inline and places nothing


@pytest.mark.parametrize("outcome", ["waits-dominate", "hash-dominates"])
def test_only_a_blob_whose_caller_waited_out_its_hash_sends_the_next_blob_inline(
    tmp_path, slow_hash_worker, monkeypatch, outcome
):
    # Each slow job sleeps 2 ms before a hash of well under that, so the caller waits out every hash,
    # unless the worker's CPU clock reads one second more on each call.
    if outcome == "hash-dominates":
        ticks = itertools.count()
        clocks = types.SimpleNamespace(perf_counter=time.perf_counter, thread_time=ticks.__next__)
        monkeypatch.setattr(cas, "time", clocks)
    slow_hash_worker.steps_aside = True
    store = BlobStore(tmp_path)
    blob = random.Random(18).randbytes(THREE_PIECES)
    cid = store.store(blob)  # bytes: one piece to the store, hashed inline
    assert _joined(store.fetch(cid)) == blob and len(slow_hash_worker.jobs) == 4
    assert _joined(store.fetch(cid)) == blob
    assert len(slow_hash_worker.jobs) == (4 if outcome == "waits-dominate" else 8)


def test_a_blob_after_those_that_stepped_aside_tries_the_worker_again(tmp_path, slow_hash_worker):
    slow_hash_worker.steps_aside = True
    store = BlobStore(tmp_path)
    blob = random.Random(19).randbytes(THREE_PIECES)
    cid = store.store(blob)
    assert _joined(store.fetch(cid)) == blob and len(slow_hash_worker.jobs) == 4  # its caller waited out the hash
    for _ in range(cas._STEP_ASIDE):
        assert _joined(store.fetch(cid)) == blob
    assert len(slow_hash_worker.jobs) == 4  # every one of them hashed inline
    assert _joined(store.fetch(cid)) == blob and len(slow_hash_worker.jobs) == 8


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_hashes_on_a_worker_of_its_own(tmp_path, monkeypatch):
    monkeypatch.setattr(cas, "_cpus", lambda: 2)
    store = BlobStore(tmp_path)
    sealed = envelope.SealedPieces(random.Random(14).randbytes(THREE_PIECES), bytes(44))
    cid = store.store(sealed)  # the parent's worker is running now
    parent_tid = cas._WORKER_TID
    pid = os.fork()
    if pid == 0:  # the child has no thread behind the parent's executor
        try:
            forgotten = (cas._WORKER, cas._WORKER_TID, cas._WORKER_MASK, cas._inline_left) == (None, None, None, 0)
            stored = store.store(sealed) == cid and _joined(store.fetch(cid)) == _joined(sealed)
            tid = cas._WORKER_TID  # read by the child's own worker thread
            own = tid != parent_tid and tid == cas._WORKER.submit(threading.get_native_id).result()
            placed = not _placeable() or len(os.sched_getaffinity(tid)) == len(os.sched_getaffinity(0)) - 1
            os._exit(0 if forgotten and stored and own and placed else 1)
        finally:
            os._exit(2)
    for _ in range(1000):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on the parent's hash worker")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("how", ["stops", "raises", "started-then-left"])
def test_a_consumer_leaving_mid_blob_leaves_no_descriptor_and_no_hash_pending(tmp_path, slow_hash_worker, how):
    store = BlobStore(tmp_path)
    blob = random.Random(15).randbytes(THREE_PIECES)
    cid = store.store(blob)
    assert _joined(store.fetch(cid)) == blob  # every hash waited for before the digest was read
    before = sorted(os.listdir("/proc/self/fd"))
    slow_hash_worker.jobs.clear()
    if how == "stops":
        for i, piece in enumerate(store.fetch(cid)):
            if i == 1:
                break
    elif how == "raises":
        with pytest.raises(RuntimeError):
            for i, piece in enumerate(store.fetch(cid)):
                if i == 2:
                    raise RuntimeError("the consumer failed mid-blob")
    else:
        with store.fetch(cid) as fetched:
            fetched.start()
    assert slow_hash_worker.jobs and slow_hash_worker.pending() == []
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_a_stage_whose_write_fails_at_the_second_piece_leaves_no_temp_file(tmp_path, full_disk, slow_hash_worker):
    store = BlobStore(tmp_path)
    sealed = envelope.SealedPieces(random.Random(16).randbytes(THREE_PIECES), bytes(44))
    with full_disk(room=cas.PIECE + 10), pytest.raises(OSError) as failure:  # the second piece does not fit
        store.stage(sealed)
    assert failure.value.errno == errno.ENOSPC
    assert len(slow_hash_worker.jobs) == 2 and slow_hash_worker.pending() == []
    assert list(tmp_path.iterdir()) == []
