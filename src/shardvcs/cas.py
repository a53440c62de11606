"""Content-addressed blob store with a size-dependent latency model.

Blobs live on disk under their SHA-256 digest (`<root>/<first 2 hex>/<digest>`),
so identical content is stored once, and every fetched blob is re-hashed
against its address as it is read. A store takes two steps. `stage` hashes
the blob in one pass and so learns its address, writing it as it goes into a
`.tmp-<pid>-<n>` file in the store root; `commit` writes the last piece and
renames the temp file into place, so a caller can address a blob first and
put the file create, write and rename beside other work. `store` is the two
at once. A fetch hands the blob out as `FetchedPieces`, the mirror of what a
store takes: the blob is read and hashed a piece at a time as its consumer
draws it, and the digest is compared only after every piece has been hashed.

One rule governs every buffer of the pipeline, both ways: a piece stays
intact until the piece after next is drawn. `envelope.SealedPieces` keeps it
by sealing into two buffers in turn, and a fetch by reading into two. So a
stage writes each piece once the next has been drawn and holds only the last
for `commit`, a fetch's consumer may still be working on one piece while it
draws the next, and the hash may run one piece behind (see `_hash_worker`
for where it runs). A fetch holds at most two pieces (2 MiB) at once.

Store and fetch each carry an independent linear delay (fixed overhead plus
a per-megabyte term) charged to the configured clock by `stage` and by
`fetch`, so a benchmark can model remote-gateway transfer times on a virtual
clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import threading
from collections.abc import Generator, Iterable, Iterator, Sized
from dataclasses import dataclass
from pathlib import Path

from .clock import Clock, RealClock

BYTES_PER_MB = 1_000_000
CID_PREFIX = "sha256:"
PIECE = 1 << 20  # bytes per piece: sealed by `envelope.SealedPieces`, read and hashed by a fetch


class NotFoundError(KeyError):
    """No blob stored under the requested content identifier."""


class CorruptBlobError(Exception):
    """Stored bytes no longer hash to the content identifier they sit under."""


@dataclass(frozen=True)
class Cid:
    """Self-certifying blob address: the SHA-256 digest of the content."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ValueError(f"cid digest must be 32 bytes, got {len(self.digest)}")

    @property
    def text(self) -> str:
        return CID_PREFIX + self.digest.hex()

    def __str__(self) -> str:
        return self.text

    @classmethod
    def of(cls, blob: bytes) -> "Cid":
        return cls(hashlib.sha256(blob).digest())

    @classmethod
    def from_text(cls, text: str) -> "Cid":
        if not text.startswith(CID_PREFIX):
            raise ValueError(f"cid must start with {CID_PREFIX!r}: {text!r}")
        hexpart = text[len(CID_PREFIX):]
        if len(hexpart) != 64 or hexpart != hexpart.lower():
            raise ValueError(f"cid digest must be 64 lowercase hex chars: {text!r}")
        return cls(bytes.fromhex(hexpart))


@dataclass(frozen=True)
class LatencyProfile:
    """Linear transfer-time model: fixed_overhead_s + per_mb_s * megabytes."""

    fixed_overhead_s: float = 0.0
    per_mb_s: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v >= 0 for v in (self.fixed_overhead_s, self.per_mb_s)):
            raise ValueError("latency profile components must be finite and >= 0")

    def delay_for(self, nbytes: int) -> float:
        return self.fixed_overhead_s + self.per_mb_s * (nbytes / BYTES_PER_MB)


ZERO_LATENCY = LatencyProfile(0.0, 0.0)


_TMP_COUNTER = itertools.count()


def _create_temp(directory: Path) -> tuple[int, str]:
    """Open a fresh mode-0600 `.tmp-<pid>-<n>` file in `directory`, skipping names already taken.

    A name can be taken by a temp file a crash left behind. A missing directory raises
    FileNotFoundError before anything is created.
    """
    while True:
        tmp = f"{directory}/.tmp-{os.getpid()}-{next(_TMP_COUNTER)}"
        with contextlib.suppress(FileExistsError):
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), tmp


def _write_all(fd: int, data) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def write_atomic(path: Path, data: bytes) -> None:
    """Write the whole file or leave the old one: a temp file beside it, then a rename."""
    fd, tmp = _create_temp(path.parent)
    try:
        try:
            _write_all(fd, data)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_WORKER = None
_WORKER_LOCK = threading.Lock()


def _forget_worker() -> None:
    global _WORKER
    _WORKER = None  # a forked child has no copy of the worker's thread


os.register_at_fork(after_in_child=_forget_worker)


def _hash_worker(size: int):
    """The executor that hashes a blob of `size` bytes one piece behind, or None to hash inline.

    A blob of at most one piece has nothing to overlap its hash with, and a
    process allowed one CPU would only take turns with the worker, so each
    keeps the inline hash. The worker is one thread for the whole process,
    started by the first blob that needs it: one SHA-256 stream fills a core,
    and a single thread runs each blob's pieces in the order they were given.
    """
    if size <= PIECE or _cpus() < 2:
        return None
    global _WORKER
    with _WORKER_LOCK:
        if _WORKER is None:
            from concurrent.futures import ThreadPoolExecutor  # imports logging: not at start-up

            _WORKER = ThreadPoolExecutor(1, thread_name_prefix="shardvcs-hash")
    return _WORKER


class _HashBehind:
    """SHA-256 of a blob's pieces, run one piece behind on the hash `worker`.

    `update` returns once every piece but the last given has been hashed, so
    a piece's buffer may be reused after one more update. `digest` waits for
    every piece; `close` waits for every piece without reading the digest, so
    that a caller that stops early can free its buffers. With no worker
    (None), `update` hashes the piece itself, so nothing is ever pending.
    """

    __slots__ = ("_worker", "_hasher", "_pending")

    def __init__(self, worker):
        self._worker = worker
        self._hasher = hashlib.sha256()
        self._pending = []  # at most two jobs, and one between calls

    def update(self, piece) -> None:
        if self._worker is None:
            self._hasher.update(piece)
            return
        self._pending.append(self._worker.submit(self._hasher.update, piece))
        if len(self._pending) > 1:
            self._pending.pop(0).result()

    def digest(self) -> bytes:
        while self._pending:
            self._pending.pop().result()
        return self._hasher.digest()

    def close(self) -> None:
        for job in self._pending:
            job.exception()  # waits; the blob is abandoned, so its hash's outcome is moot
        self._pending.clear()


class StagedBlob:
    """A blob hashed and addressed by `BlobStore.stage`, and stored at `commit`.

    `cid` is known once `stage` returns. Each piece is hashed as it is drawn
    by a `_HashBehind`, inline with no `worker` or one piece behind on it,
    and written to a temp file in the store root once the next piece has
    been drawn; the last piece is held for `commit`. So the source must keep
    each piece intact until the piece after next is drawn (the rule of this
    module), and the last until `commit`. Every hash has finished before
    `stage` returns or raises. The temp file is created at the first write,
    so a blob of one piece (any sealed blob of at most 1 MiB) touches the
    disk only at `commit`.

    `commit` writes the last piece and renames the temp file onto the blob's
    address. A blob already stored there has the same bytes, so renaming
    over it keeps one copy per address (and replaces a copy damaged on disk).
    A stage or commit that fails part-way leaves no temp file, and used as a
    context manager, a staged blob left without a commit unlinks its own.
    """

    __slots__ = ("cid", "_store", "_fd", "_tmp", "_held")

    def __init__(self, store: "BlobStore", pieces: Iterable, worker=None):
        self._store = store
        self._fd: int | None = None
        self._tmp: str | None = None
        self._held = b""  # the piece drawn last; None once committed or discarded
        hasher = _HashBehind(worker)
        size = 0
        try:
            for piece in pieces:
                if self._held:
                    self._write(self._held)  # the piece before this one, intact until the next is drawn
                hasher.update(piece)
                size += len(piece)
                self._held = piece
            self.cid = Cid(hasher.digest())
            store.clock.sleep(store.store_profile.delay_for(size))
        except BaseException:
            hasher.close()
            self._discard()
            raise

    def _write(self, data) -> None:
        if self._fd is None:
            self._fd, self._tmp = _create_temp(self._store.root)
        _write_all(self._fd, data)

    def commit(self) -> None:
        """Write the last piece, then rename the temp file onto the blob's address."""
        if self._held is None:
            raise ValueError(f"{self.cid.text} was already committed or discarded")
        try:
            self._write(self._held)  # creates the temp file if nothing was written yet
            fd, self._fd = self._fd, None
            os.close(fd)
            path = self._store._path(self.cid)
            try:
                os.replace(self._tmp, path)  # concurrent stores of the same blob converge
            except FileNotFoundError:  # first blob under this prefix
                os.makedirs(os.path.dirname(path), exist_ok=True)
                os.replace(self._tmp, path)
        except BaseException:
            self._discard()
            raise
        self._held = self._tmp = None

    def _discard(self) -> None:
        """Close and unlink the temp file, if there is one; the blob is not stored."""
        self._held = None
        fd, self._fd = self._fd, None
        tmp, self._tmp = self._tmp, None
        try:
            if fd is not None:
                os.close(fd)
        finally:
            if tmp is not None:
                os.unlink(tmp)

    def __enter__(self) -> "StagedBlob":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._held is not None:
            self._discard()


def _read(path: str, cid: Cid, size: int) -> Generator[memoryview, None, None]:
    """The pieces of the blob at `path`, then the check of their digest against `cid`.

    A function, not a method: the generator that a `FetchedPieces` holds must
    not hold the `FetchedPieces` in turn, or the two would form a cycle that
    keeps the file open until the garbage collector runs.
    """
    hasher = _HashBehind(_hash_worker(size))
    buf = memoryview(bytearray(min(size, PIECE)))
    other = memoryview(bytearray(min(size - PIECE, PIECE))) if size > PIECE else buf
    remaining = size
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        raise NotFoundError(f"no blob stored under {cid.text}") from None
    try:
        while remaining:
            n = os.readv(fd, [buf[:remaining]])
            if not n:
                break
            piece = buf[:n]
            hasher.update(piece)
            remaining -= n
            yield piece
            buf, other = other, buf  # next into the piece before this one, whose hash has finished
        digest = hasher.digest()
    finally:
        hasher.close()  # an early exit, too, waits for the hash still reading a buffer
        os.close(fd)
    if digest != cid.digest:
        raise CorruptBlobError(f"stored blob does not hash to {cid.text}")


class FetchedPieces:
    """A fetched blob, handed out piece by piece and checked against its CID.

    `len()` is the blob's size when it was fetched. The pieces come from one
    read, made with the fetch, so they are iterated once: a second iteration
    goes on where the first stopped. The file is opened at the first draw
    and read a piece of at most PIECE bytes at a time; a blob of more than
    one piece is read into two buffers in turn, which keeps the rule of this
    module, and hashed where `_hash_worker` says. The file is read
    up to the fetched size, every hash finishes, the file is closed, and
    only then is the digest compared: an iteration that ends without
    `CorruptBlobError` has yielded exactly the bytes stored under the CID.
    However iteration ends, including by a consumer that stops early, every
    hash finishes before the file is closed and the buffers are let go.

    `start` draws the first piece at once, so that its read and hash can run
    while the caller waits on something else; iteration begins with that
    piece. Used as a context manager, the pieces close the read however the
    block ends.
    """

    __slots__ = ("_size", "_pieces", "_first")

    def __init__(self, path: str, cid: Cid, size: int):
        self._size = size
        self._pieces = _read(path, cid, size)
        self._first: tuple = ()

    def __len__(self) -> int:
        return self._size

    def start(self) -> None:
        """Open the file, and read and hash the first piece."""
        self._first = tuple(itertools.islice(self._pieces, 1))

    def __enter__(self) -> "FetchedPieces":
        return self

    def __exit__(self, *exc_info) -> None:
        self._pieces.close()  # a no-op once the read has ended

    def __iter__(self) -> Iterator[memoryview]:
        first, self._first = self._first, ()
        return itertools.chain(first, self._pieces)


class BlobStore:
    """Disk-backed content-addressed store standing in for a remote gateway."""

    def __init__(
        self,
        root: str | Path,
        store_profile: LatencyProfile = ZERO_LATENCY,
        fetch_profile: LatencyProfile = ZERO_LATENCY,
        clock: Clock | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store_profile = store_profile
        self.fetch_profile = fetch_profile
        self.clock = clock if clock is not None else RealClock()

    def _path(self, cid: Cid) -> str:
        hexd = cid.digest.hex()
        return f"{self.root}/{hexd[:2]}/{hexd}"

    def stage(self, blob: bytes | Iterable) -> StagedBlob:
        """Hash the blob, write all but its last piece, and charge the modeled upload delay.

        `blob` is bytes or an iterable of bytes-like pieces that keeps the
        rule of this module, such as `envelope.SealedPieces`. A sized
        iterable's `len()` is its size in bytes, from which `_hash_worker`
        places the hash. The blob is stored at the returned blob's `commit`
        (see `StagedBlob`).
        """
        if isinstance(blob, (bytes, bytearray, memoryview)):
            return StagedBlob(self, (blob,))
        return StagedBlob(self, blob, _hash_worker(len(blob)) if isinstance(blob, Sized) else None)

    def store(self, blob: bytes | Iterable) -> Cid:
        """Stage the blob, then commit it at once (idempotent)."""
        with self.stage(blob) as staged:
            staged.commit()
        return staged.cid

    def fetch(self, cid: Cid) -> FetchedPieces:
        """Return the stored bytes as pieces and charge the modeled download delay.

        The delay is for the file's size now. Nothing is read here: the blob is
        read and re-hashed as its pieces are drawn (see `FetchedPieces`).
        """
        path = self._path(cid)
        try:
            size = os.stat(path).st_size
        except FileNotFoundError:
            raise NotFoundError(f"no blob stored under {cid.text}") from None
        self.clock.sleep(self.fetch_profile.delay_for(size))
        return FetchedPieces(path, cid, size)
