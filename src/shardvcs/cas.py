"""Content-addressed blob store with a size-dependent latency model.

Blobs live on disk under their SHA-256 digest (`<root>/<first 2 hex>/<digest>`),
so identical content is stored once, and every fetched blob is re-hashed
against its address before it is returned. Store and fetch each carry an
independent linear delay (fixed overhead plus a per-megabyte term) charged to
the configured clock, so a benchmark can model remote-gateway transfer times
on a virtual clock.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
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
        if self.fixed_overhead_s < 0 or self.per_mb_s < 0:
            raise ValueError("latency profile components must be >= 0")

    def delay_for(self, nbytes: int) -> float:
        return self.fixed_overhead_s + self.per_mb_s * (nbytes / BYTES_PER_MB)


ZERO_LATENCY = LatencyProfile(0.0, 0.0)


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
        self._used_bytes = sum(p.stat().st_size for p in self.root.glob("??/*"))

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
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(blob)
                    os.replace(tmp, path)  # concurrent stores of the same blob converge
                except BaseException:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                    raise
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
