"""Content-addressed blob store with a size-dependent latency model.

Blobs live on disk under their SHA-256 digest (`<root>/<first 2 hex>/<digest>`),
so identical content is stored once, and every fetched blob is re-hashed
against its address before it is returned. Store and fetch each carry an
independent linear delay (fixed overhead plus a per-megabyte term) charged to
the configured clock, so a benchmark can model remote-gateway transfer times
on a virtual clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from .clock import Clock, RealClock

BYTES_PER_MB = 1_000_000
CID_PREFIX = "sha256:"


class NotFoundError(KeyError):
    """No blob stored under the requested content identifier."""


class CapacityError(Exception):
    """The store's configured byte capacity would be exceeded."""


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


def write_atomic(path: Path, data: bytes) -> None:
    """Write the whole file or leave the old one: a mode-0600 `.tmp-<pid>-<n>` file, then a rename.

    A temp name already taken (say, left by a crash) is skipped. A missing directory raises
    FileNotFoundError before anything is created.
    """
    for n in _TMP_COUNTER:
        tmp = f"{path.parent}/.tmp-{os.getpid()}-{n}"
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            break
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class BlobStore:
    """Disk-backed content-addressed store standing in for a remote gateway."""

    def __init__(
        self,
        root: str | Path,
        store_profile: LatencyProfile = ZERO_LATENCY,
        fetch_profile: LatencyProfile = ZERO_LATENCY,
        clock: Clock | None = None,
        capacity_bytes: int | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.store_profile = store_profile
        self.fetch_profile = fetch_profile
        self.clock = clock if clock is not None else RealClock()
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        # Only the capacity check reads the byte count, so only a capped store stats its tree.
        self._used_bytes = (
            sum(p.stat().st_size for p in self.root.glob("??/*")) if capacity_bytes is not None else 0
        )

    def _path(self, cid: Cid) -> Path:
        hexd = cid.digest.hex()
        return self.root / hexd[:2] / hexd

    def store(self, blob: bytes) -> Cid:
        """Write the blob (idempotent) and charge the modeled upload delay."""
        cid = Cid.of(blob)
        path = self._path(cid)
        with self._lock:
            if not path.exists():
                if self.capacity_bytes is not None and self._used_bytes + len(blob) > self.capacity_bytes:
                    raise CapacityError(
                        f"store capacity {self.capacity_bytes} B exceeded by blob of {len(blob)} B"
                    )
                try:
                    write_atomic(path, blob)  # concurrent stores of the same blob converge
                except FileNotFoundError:  # first blob under this prefix
                    path.parent.mkdir(exist_ok=True)
                    write_atomic(path, blob)
                self._used_bytes += len(blob)
        self.clock.sleep(self.store_profile.delay_for(len(blob)))
        return cid

    def fetch(self, cid: Cid) -> bytes:
        """Return the stored bytes after the modeled download delay and a re-hash."""
        path = self._path(cid)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"no blob stored under {cid.text}") from None
        self.clock.sleep(self.fetch_profile.delay_for(len(blob)))
        if Cid.of(blob) != cid:
            raise CorruptBlobError(f"stored blob does not hash to {cid.text}")
        return blob

    def contains(self, cid: Cid) -> bool:
        return self._path(cid).exists()
