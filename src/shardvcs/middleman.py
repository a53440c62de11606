"""Temporary share-cache service: the fast fallback for key retrieval.

Holds at most one key share per repository id for a bounded time. Because
reconstruction needs two shares, this cache is deliberately unauthenticated:
serving its single share to anyone reveals nothing about the sealed key,
so fetches carry no access control and the service stays lightweight.

The cache is embeddable in-process (`ShareCache`) and exposable over HTTP
(`MiddlemanServer`), with a thin client (`HttpShareCache`) presenting the
same three-method contract either way:

- ``POST /share`` body ``{"cid": ..., "share": ...}`` -> 200, or 400 on a
  malformed share encoding
- ``GET /share/<repoId>`` -> 200 with ``{"share": ...}``, or 404 when the
  entry is absent or expired
- ``DELETE /share/<repoId>`` -> 200 always (eviction is idempotent)
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .clock import Clock, RealClock
from .sss import Share

DEFAULT_TTL_S = 24 * 3600.0
DEFAULT_PORT = 8377


class MiddlemanUnavailableError(ConnectionError):
    """The share-cache service could not be reached."""


@dataclass(frozen=True)
class CacheEntry:
    repo: str
    share_text: str
    stored_at: float
    ttl_s: float

    def live_at(self, now: float) -> bool:
        return now < self.stored_at + self.ttl_s


class ShareCache:
    """In-process share cache with TTL expiry and last-writer-wins stores."""

    def __init__(self, ttl_s: float = DEFAULT_TTL_S, clock: Clock | None = None):
        if ttl_s <= 0:
            raise ValueError("ttl must be positive")
        self.ttl_s = ttl_s
        self.clock = clock if clock is not None else RealClock()
        self._entries: dict[str, CacheEntry] = {}
        self._lock = threading.Lock()

    def store_share(self, repo: str, share_text: str) -> None:
        Share.from_text(share_text)  # reject malformed encodings up front
        with self._lock:
            self._entries[repo] = CacheEntry(repo, share_text, self.clock.now(), self.ttl_s)

    def fetch_share(self, repo: str) -> str | None:
        with self._lock:
            entry = self._entries.get(repo)
            if entry is None:
                return None
            if not entry.live_at(self.clock.now()):
                del self._entries[repo]
                return None
            return entry.share_text

    def evict(self, repo: str) -> None:
        with self._lock:
            self._entries.pop(repo, None)

    def live_shares(self) -> dict[str, str]:
        """Unexpired holdings, keyed by repo id."""
        now = self.clock.now()
        with self._lock:
            return {r: e.share_text for r, e in self._entries.items() if e.live_at(now)}

    # CLI persistence: entries survive process restarts via a JSON snapshot.
    def snapshot(self) -> dict:
        with self._lock:
            return {
                r: {"share_text": e.share_text, "stored_at": e.stored_at, "ttl_s": e.ttl_s}
                for r, e in self._entries.items()
            }

    def restore(self, state: dict) -> None:
        with self._lock:
            self._entries = {
                r: CacheEntry(r, d["share_text"], d["stored_at"], d["ttl_s"])
                for r, d in state.items()
            }


class _Handler(BaseHTTPRequestHandler):
    cache: ShareCache  # set by make_server

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _repo_from_path(self, prefix: str = "/share/") -> str | None:
        if not self.path.startswith(prefix):
            return None
        return urllib.parse.unquote(self.path[len(prefix):])

    def do_POST(self) -> None:
        if self.path != "/share":
            self._reply(404, {"error": "unknown endpoint"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            doc = json.loads(self.rfile.read(length).decode())
            repo, share_text = doc["cid"], doc["share"]
            self.cache.store_share(repo, share_text)
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(200, {"ok": True})

    def do_GET(self) -> None:
        repo = self._repo_from_path()
        if repo is None:
            self._reply(404, {"error": "unknown endpoint"})
            return
        share_text = self.cache.fetch_share(repo)
        if share_text is None:
            self._reply(404, {"error": "absent"})
        else:
            self._reply(200, {"share": share_text})

    def do_DELETE(self) -> None:
        repo = self._repo_from_path()
        if repo is None:
            self._reply(404, {"error": "unknown endpoint"})
            return
        self.cache.evict(repo)
        self._reply(200, {"ok": True})

    def log_message(self, fmt, *args) -> None:  # quiet by default
        pass


class MiddlemanServer:
    """HTTP front end over a ShareCache; `port=0` picks a free port."""

    def __init__(self, cache: ShareCache | None = None, host: str = "127.0.0.1", port: int = 0):
        self.cache = cache if cache is not None else ShareCache()
        handler = type("BoundHandler", (_Handler,), {"cache": self.cache})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MiddlemanServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()


class HttpShareCache:
    """Client-side adapter giving the HTTP service the in-process interface."""

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def _request(self, method: str, path: str, body: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode() or "{}")
        except (urllib.error.URLError, OSError) as exc:
            raise MiddlemanUnavailableError(f"middleman at {self.base_url}: {exc}") from exc

    def store_share(self, repo: str, share_text: str) -> None:
        status, doc = self._request("POST", "/share", {"cid": repo, "share": share_text})
        if status == 400:
            raise ValueError(doc.get("error", "malformed share"))
        if status != 200:
            raise MiddlemanUnavailableError(f"unexpected status {status}")

    def fetch_share(self, repo: str) -> str | None:
        status, doc = self._request("GET", "/share/" + urllib.parse.quote(repo, safe=""))
        if status == 200:
            return doc["share"]
        if status == 404:
            return None
        raise MiddlemanUnavailableError(f"unexpected status {status}")

    def evict(self, repo: str) -> None:
        status, _ = self._request("DELETE", "/share/" + urllib.parse.quote(repo, safe=""))
        if status != 200:
            raise MiddlemanUnavailableError(f"unexpected status {status}")
