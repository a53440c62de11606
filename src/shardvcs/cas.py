"""Content-addressed blob store with a size-dependent latency model.

Blobs live on disk under their SHA-256 digest (`<root>/<first 2 hex>/<digest>`),
so identical content is stored once, and every fetched blob is re-hashed
against its address as it is read. A store hashes and writes the blob
in one pass into a `.tmp-<pid>-<n>` file in the store root, because its
address, and so its prefix directory, is known only at the end; the temp file
is then renamed into place. A fetch hands the blob out as `FetchedPieces`,
the mirror of what a store takes: the blob is read and hashed a piece at a
time as its consumer draws it. Store and fetch each carry an independent
linear delay (fixed overhead plus a per-megabyte term) charged to the
configured clock when they are called, so a benchmark can model
remote-gateway transfer times on a virtual clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .clock import Clock, RealClock

BYTES_PER_MB = 1_000_000
CID_PREFIX = "sha256:"
PIECE = 1 << 20  # stored bytes a fetch reads and hashes per piece


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


class FetchedPieces:
    """A fetched blob, handed out piece by piece and checked against its CID.

    `len()` is the blob's size when it was fetched. The file is opened when
    iteration starts and read through one buffer of at most PIECE bytes that
    each piece overwrites, and each piece is hashed before it is yielded, so
    a consumer must be done with a piece, or have copied it, before it draws
    the next. The file is read up to the fetched size, then closed, and only
    then is the digest compared: an iteration that ends without
    `CorruptBlobError` has yielded exactly the bytes stored under the CID.
    The file is closed however iteration ends, including by a consumer that
    stops early.
    """

    __slots__ = ("_path", "_cid", "_size")

    def __init__(self, path: str, cid: Cid, size: int):
        self._path = path
        self._cid = cid
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[memoryview]:
        try:
            fd = os.open(self._path, os.O_RDONLY)
        except FileNotFoundError:
            raise NotFoundError(f"no blob stored under {self._cid.text}") from None
        hasher = hashlib.sha256()
        buf = memoryview(bytearray(min(self._size, PIECE)))
        remaining = self._size
        try:
            while remaining:
                n = os.readv(fd, [buf[:remaining]])
                if not n:
                    break
                piece = buf[:n]
                hasher.update(piece)
                remaining -= n
                yield piece
        finally:
            os.close(fd)
        if hasher.digest() != self._cid.digest:
            raise CorruptBlobError(f"stored blob does not hash to {self._cid.text}")


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

    def store(self, blob: bytes | Iterable) -> Cid:
        """Write the blob (idempotent) in one pass and charge the modeled upload delay.

        `blob` is bytes or an iterable of bytes-like pieces, such as
        `envelope.SealedPieces`. Each piece is hashed and written to a temp
        file in the store root before the next is drawn, so a piece may reuse
        its predecessor's buffer. Only then is the address known, and the temp
        file is renamed onto it. A blob already stored there has the same
        bytes, so renaming over it keeps one copy per address (and replaces a
        copy damaged on disk). A failure part-way leaves no temp file.
        """
        pieces = (blob,) if isinstance(blob, (bytes, bytearray, memoryview)) else blob
        hasher = hashlib.sha256()
        size = 0
        fd, tmp = _create_temp(self.root)
        try:
            try:
                for piece in pieces:
                    hasher.update(piece)
                    _write_all(fd, piece)
                    size += len(piece)
            finally:
                os.close(fd)
            cid = Cid(hasher.digest())
            path = self._path(cid)
            try:
                os.replace(tmp, path)  # concurrent stores of the same blob converge
            except FileNotFoundError:  # first blob under this prefix
                os.makedirs(os.path.dirname(path), exist_ok=True)
                os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self.clock.sleep(self.store_profile.delay_for(size))
        return cid

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

    def contains(self, cid: Cid) -> bool:
        return os.path.exists(self._path(cid))
