"""Temporary share-cache service: the fast fallback for key retrieval.

Holds at most one key share per repository id for a bounded time. Because
reconstruction needs two shares, this cache is deliberately unauthenticated:
serving its single share to anyone reveals nothing about the sealed key,
so fetches carry no access control and the service stays lightweight.

The cache is embeddable in-process (`ShareCache`) and exposable over HTTP
(`MiddlemanServer`), with a thin client (`HttpShareCache`) presenting the
same three-method contract either way:

- ``POST /share`` body ``{"cid": ..., "share": ...}`` -> 200, or 400 when
  the body is not a JSON object of two strings or the share encoding is
  malformed
- ``GET /share/<repoId>`` -> 200 with ``{"share": ...}``, or 404 when the
  entry is absent or expired
- ``DELETE /share/<repoId>`` -> 200 always (eviction is idempotent)

The service speaks HTTP/1.1 with keep-alive: each `HttpShareCache` holds one
connection and reuses it for every call, and each reply leaves the server
in one write. A request body is framed only by ``Content-Length``: a missing,
non-integer or negative length gets 400, a body over `MAX_BODY_BYTES` gets
413 unread, and either reply closes the connection, since the server can no
longer tell where the next request starts. A call that fails on a reused
connection before any reply arrives (the server closed it while idle) is
sent once more on a fresh connection; every call is idempotent, so the retry
is safe. Any other failure, or a timeout, raises `MiddlemanUnavailableError`.
`MiddlemanServer.stop` also shuts every open connection, so no client keeps
talking to a stopped server's cache.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .clock import Clock, RealClock
from .sss import Share

DEFAULT_TTL_S = 24 * 3600.0
DEFAULT_PORT = 8377
MAX_BODY_BYTES = 4096  # a store body is about 200 bytes


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
    cache: ShareCache  # set by MiddlemanServer

    protocol_version = "HTTP/1.1"  # keep the connection open between requests
    # Without this, Nagle's algorithm holds each small reply until the
    # client's delayed ACK, about 40 ms later.
    disable_nagle_algorithm = True
    wbufsize = -1  # buffer the reply; handle_one_request flushes it in one write

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client, or MiddlemanServer.stop, ended the connection

    def _reply(self, code: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")  # also sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        """The request body, or None after replying 400/413 and closing.

        Every handler reads the body before it replies, so a kept-alive
        connection never parses an unread body as the next request.
        """
        lengths = self.headers.get_all("Content-Length", [])
        chunked = "Transfer-Encoding" in self.headers  # not supported
        if not lengths and not chunked and self.command != "POST":
            return b""
        try:
            (text,) = lengths
            text = text.strip()
            length = int(text) if text.isascii() and text.isdigit() and not chunked else -1
        except ValueError:  # not exactly one header, or too many digits for int()
            length = -1
        if length < 0:
            self._reply(400, {"error": "request body needs one valid Content-Length"}, close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._reply(413, {"error": f"body over {MAX_BODY_BYTES} bytes"}, close=True)
            return None
        return self.rfile.read(length)

    def _repo_from_path(self, prefix: str = "/share/") -> str | None:
        if not self.path.startswith(prefix):
            return None
        return urllib.parse.unquote(self.path[len(prefix):])

    def do_POST(self) -> None:
        body = self._read_body()
        if body is None:
            return
        if self.path != "/share":
            self._reply(404, {"error": "unknown endpoint"})
            return
        try:
            doc = json.loads(body)
            if not isinstance(doc, dict):
                raise ValueError("body must be a JSON object")
            repo, share_text = doc.get("cid"), doc.get("share")
            if not isinstance(repo, str) or not isinstance(share_text, str):
                raise ValueError("cid and share must be strings")
            self.cache.store_share(repo, share_text)
        except (ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
            self._reply(400, {"error": str(exc)})
            return
        self._reply(200, {"ok": True})

    def do_GET(self) -> None:
        if self._read_body() is None:
            return
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
        if self._read_body() is None:
            return
        repo = self._repo_from_path()
        if repo is None:
            self._reply(404, {"error": "unknown endpoint"})
            return
        self.cache.evict(repo)
        self._reply(200, {"ok": True})

    def log_message(self, fmt, *args) -> None:  # quiet by default
        pass


class _Server(ThreadingHTTPServer):
    """Tracks accepted connections so `close_connections` can end them."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection; its handler thread then sees EOF."""
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already closed it


class MiddlemanServer:
    """HTTP front end over a ShareCache; `port=0` picks a free port."""

    def __init__(self, cache: ShareCache | None = None, host: str = "127.0.0.1", port: int = 0):
        self.cache = cache if cache is not None else ShareCache()
        handler = type("BoundHandler", (_Handler,), {"cache": self.cache})
        self._httpd = _Server((host, port), handler)
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
        """Stop accepting, then end every open connection."""
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()


# A reused connection that fails with one of these before any reply was
# most likely closed by the server while idle; the call is sent once more.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class HttpShareCache:
    """Client-side adapter giving the HTTP service the in-process interface.

    Holds one keep-alive connection, shared by all threads under a lock.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        parts = urllib.parse.urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"middleman URL must be http://host[:port][/prefix], got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._host, self._port = parts.hostname, parts.port  # .port raises on a bad port
        self._prefix = parts.path.rstrip("/")
        self._conn: http.client.HTTPConnection | None = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connection; the next call opens a new one."""
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(self, method: str, path: str, body: dict | None = None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data is not None else {}
        with self._lock:
            while True:
                reused = self._conn is not None
                if not reused:
                    self._conn = http.client.HTTPConnection(self._host, self._port, timeout=self.timeout_s)
                try:
                    try:
                        self._conn.request(method, self._prefix + path, body=data, headers=headers)
                        resp = self._conn.getresponse()
                    except _STALE_CONNECTION:
                        if not reused:
                            raise
                        self._drop()
                        continue
                    raw = resp.read()
                except (OSError, http.client.HTTPException) as exc:
                    self._drop()
                    raise MiddlemanUnavailableError(f"middleman at {self.base_url}: {exc}") from exc
                if resp.will_close:
                    self._drop()
                return resp.status, json.loads(raw.decode() or "{}")

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
