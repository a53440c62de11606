"""Temporary share-cache service: the fast fallback for key retrieval.

Holds at most one key share per repository id for a bounded time, and
serves it to anyone: fetches carry no access control, so the service stays
lightweight. Reconstruction needs two shares, so the cached share alone
reveals nothing about the sealed key. It is not a secret, though, and it is
not the only share in the open: the registration puts another share on the
chain, where every chain reader sees it (calldata, then contract storage).
The cached share and that public one rebuild the key, without the owner's
share, for as long as the entry lives (the cache TTL, 24 h by default). So
until the entry expires, a repository is only as confidential as its
on-chain share; the access check on the chain's view call does not limit
what a chain reader sees.

The cache is embeddable in-process (`ShareCache`) and exposable over HTTP
(`MiddlemanServer`), with a thin client (`HttpShareCache`) presenting the
same contract either way: `store_share`, `fetch_share` and `evict`, and
`store_share_while` and `fetch_share_while`, which also run the caller's own
work once. The client sends the request, runs the work while it is in
flight, then reads the reply; the in-process cache runs the work first. A
work that fails still has its request applied: the client reads the reply
before the error propagates, so its connection stays in step, and a caller
that must take a store back sends `evict` next. The endpoints:

- ``POST /share`` body ``{"cid": ..., "share": ...}`` -> 200, or 400 when
  the body is not a JSON object of two strings or the share encoding is
  malformed
- ``GET /share/<repoId>`` -> 200 with ``{"share": ...}``, or 404 when the
  entry is absent or expired
- ``DELETE /share/<repoId>`` -> 200 always (eviction is idempotent)

Both ends share one small HTTP/1.1 framer (`_read_head`, `_body_length`).
Each `HttpShareCache` holds one keep-alive connection, and each request and
each reply leaves in one write. A repo id travels percent-encoded in the
path, except `:`, which RFC 3986 allows there, so a CID goes as
``sha256:<hex>``. A message body is framed only by ``Content-Length``. The
server answers a request line over `MAX_LINE_BYTES` with 414, a longer
header line or more than `MAX_HEADER_FIELDS` fields with 431, any other
malformed head or a missing, non-integer or negative length with 400, and a
body over `MAX_BODY_BYTES` with 413 unread; each of these
closes the connection, since the server can no longer tell where the next
request starts. Other methods get 501. A connection that sends nothing for
`IDLE_TIMEOUT_S` is closed. A call that fails on a reused connection before
any reply byte arrives (the server closed it while idle) is sent once more
on a fresh connection; every call is idempotent, so the retry is safe. Any
other failure, a timeout or a malformed reply (a body that is not a JSON
object, or a 200 fetch reply without a string ``share``) raises
`MiddlemanUnavailableError`. `MiddlemanServer.stop` also shuts every open
connection, so no client keeps talking to a stopped server's cache.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import socket
import socketserver
import threading
import urllib.parse
from collections import OrderedDict, namedtuple

from .clock import Clock, RealClock, is_finite
from .sss import Share

DEFAULT_TTL_S = 24 * 3600.0
DEFAULT_PORT = 8377
MAX_BODY_BYTES = 4096  # a store body is about 200 bytes
MAX_LINE_BYTES = 65536  # the limits http.server applies
MAX_HEADER_FIELDS = 100
MAX_REPLY_BYTES = 65536  # a 400 reply may quote a store body, escaped
IDLE_TIMEOUT_S = 60.0  # a server connection silent this long is closed
_STOP_POLL_S = 0.02  # how often a started server checks for `stop`


class MiddlemanUnavailableError(ConnectionError):
    """The share-cache service could not be reached."""


# How a connection looks when the peer has closed it.
_CLOSED = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


# A named tuple, not a dataclass: `dataclasses` would load `inspect` into a
# service that should start fast.
class CacheEntry(namedtuple("CacheEntry", "share_text stored_at ttl_s")):
    """One cached share; a restored snapshot is checked as strictly as a store."""

    __slots__ = ()

    def __new__(cls, share_text: str, stored_at: float, ttl_s: float) -> "CacheEntry":
        if not isinstance(share_text, str):
            raise ValueError(f"share text must be a string, got {share_text!r}")
        Share.from_text(share_text)  # reject malformed encodings
        if not (is_finite(ttl_s) and ttl_s > 0):
            raise ValueError(f"ttl must be positive and finite, got {ttl_s!r}")
        if not (is_finite(stored_at) and math.isfinite(stored_at + ttl_s)):
            raise ValueError(f"stored_at must be finite, with a finite expiry, got {stored_at!r}")
        return tuple.__new__(cls, (share_text, stored_at, ttl_s))

    @property
    def expires_at(self) -> float:
        """The first instant at which the entry is no longer served."""
        return self.stored_at + self.ttl_s


class ShareCache:
    """In-process share cache with TTL expiry and last-writer-wins stores.

    Entries are kept in store order. With one TTL and a clock that does not
    step back, that is expiry order, so every call drops the expired entries
    from the front: the cache holds only live shares however few of them are
    ever fetched again, and an eviction or an overwrite frees its entry at
    once. An entry that expires before one ahead of it (a restored entry with
    another TTL, or a store after a real clock stepped back) waits behind it,
    but reads check expiry, so it is never served.
    """

    def __init__(self, ttl_s: float = DEFAULT_TTL_S, clock: Clock | None = None):
        if not (math.isfinite(ttl_s) and ttl_s > 0):
            raise ValueError("ttl must be positive and finite")
        self.ttl_s = ttl_s
        self.clock = clock if clock is not None else RealClock()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    def _drop_expired(self) -> float:
        """Drop expired entries from the front and return now; the caller holds the lock."""
        now = self.clock.now()
        # OrderedDict, not dict: a dict's first key after deletions at the front is found by a scan
        while self._entries and next(iter(self._entries.values())).expires_at <= now:
            self._entries.popitem(last=False)
        return now

    def store_share(self, repo: str, share_text: str) -> None:
        with self._lock:
            entry = CacheEntry(share_text, self._drop_expired(), self.ttl_s)
            self._entries.pop(repo, None)
            self._entries[repo] = entry

    def fetch_share(self, repo: str) -> str | None:
        with self._lock:
            now = self._drop_expired()
            entry = self._entries.get(repo)
            return entry.share_text if entry is not None and now < entry.expires_at else None

    def store_share_while(self, repo: str, share_text: str, work) -> None:
        """Run `work()`, then store: an in-process store has no round trip to overlap."""
        work()
        self.store_share(repo, share_text)

    def fetch_share_while(self, repo: str, work) -> str | None:
        """Run `work()`, then fetch, as `store_share_while` does."""
        work()
        return self.fetch_share(repo)

    def evict(self, repo: str) -> None:
        with self._lock:
            self._drop_expired()
            self._entries.pop(repo, None)

    def live_shares(self) -> dict[str, str]:
        """Unexpired holdings, keyed by repo id."""
        with self._lock:
            now = self._drop_expired()
            return {r: e.share_text for r, e in self._entries.items() if now < e.expires_at}

    # CLI persistence: live entries survive process restarts via a JSON snapshot.
    def snapshot(self) -> dict:
        with self._lock:
            now = self._drop_expired()
            return {r: e._asdict() for r, e in self._entries.items() if now < e.expires_at}

    def restore(self, state: dict) -> None:
        entries = sorted(((r, CacheEntry(**d)) for r, d in state.items()), key=lambda e: e[1].expires_at)
        with self._lock:
            self._entries = OrderedDict(entries)


class _FramingError(ValueError):
    """A message the framer refuses; `status` is the server's reply to it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _read_head(rfile) -> tuple[str, dict[str, list[str]]] | None:
    """Read a start line and header fields; None at EOF before the first byte.

    Field names come back lower-cased, each with its values in arrival order.
    """
    start = rfile.readline(MAX_LINE_BYTES + 1)
    if not start:
        return None
    if len(start) > MAX_LINE_BYTES:
        raise _FramingError(414, "start line too long")
    fields: dict[str, list[str]] = {}
    for _ in range(MAX_HEADER_FIELDS + 1):
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _FramingError(431, "header line too long")
        if line in (b"\r\n", b"\n"):
            return start.rstrip(b"\r\n").decode("latin-1"), fields
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not line.endswith(b"\n"):
            raise _FramingError(400, "malformed header line")
        fields.setdefault(name.strip().lower(), []).append(value.strip())
    raise _FramingError(431, f"more than {MAX_HEADER_FIELDS} header fields")


def _body_length(fields: dict[str, list[str]], required: bool) -> int:
    """The body's length: one all-digit Content-Length and no Transfer-Encoding.

    A message with neither has no body unless `required`.
    """
    lengths = fields.get("content-length", [])
    if not lengths and not required and "transfer-encoding" not in fields:
        return 0
    try:
        (text,) = lengths
        if "transfer-encoding" in fields or not (text.isascii() and text.isdigit()):
            raise ValueError(text)
        return int(text)
    except ValueError:  # not exactly one length, not all digits, or past int()'s digit limit
        raise _FramingError(400, "a body needs one valid Content-Length") from None


def _keep_alive(version: str, fields: dict[str, list[str]]) -> bool:
    """HTTP/1.1 keeps a connection open unless the message says `close`."""
    tokens = {t.strip().lower() for value in fields.get("connection", []) for t in value.split(",")}
    return version == "HTTP/1.1" and "close" not in tokens


_STATUS_LINE = re.compile(r"(HTTP/1\.[01]) ([0-9]{3})(?: .*)?", re.DOTALL)
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Content Too Large", 414: "URI Too Long",
            431: "Request Header Fields Too Large", 501: "Not Implemented"}


class _Handler(socketserver.StreamRequestHandler):
    # Without this, Nagle's algorithm can hold a small reply until the
    # client's delayed ACK, about 40 ms later.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.connection.settimeout(IDLE_TIMEOUT_S)
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # idle timeout, or the client or MiddlemanServer.stop ended the connection

    def _reply(self, code: int, payload: dict, close: bool = False) -> None:
        body = json.dumps(payload).encode()
        head = f"HTTP/1.1 {code} {_REASONS[code]}\r\nContent-Type: application/json\r\n"
        head += f"Content-Length: {len(body)}\r\n"
        if close:
            head += "Connection: close\r\n"
        self.connection.sendall(head.encode() + b"\r\n" + body)

    def _serve_one(self) -> bool:
        """Read and answer one request; False once the connection should close.

        The body is always read before the reply, so a kept-alive connection
        never parses an unread body as the next request.
        """
        try:
            head = _read_head(self.rfile)
            if head is None:
                return False
            start, fields = head
            parts = start.split(" ")
            if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
                raise _FramingError(400, "malformed request line")
            method, target, version = parts
            length = _body_length(fields, required=method == "POST")
            if length > MAX_BODY_BYTES:
                raise _FramingError(413, f"body over {MAX_BODY_BYTES} bytes")
        except _FramingError as exc:
            self._reply(exc.status, {"error": str(exc)}, close=True)
            return False
        body = self.rfile.read(length)
        if len(body) < length:
            return False  # the client closed mid-body
        if method not in ("POST", "GET", "DELETE"):
            self._reply(501, {"error": f"unsupported method {method}"}, close=True)
            return False
        keep = _keep_alive(version, fields)
        self._reply(*self._answer(method, target, body), close=not keep)
        return keep

    def _answer(self, method: str, target: str, body: bytes) -> tuple[int, dict]:
        if method == "POST":
            return self._store(body) if target == "/share" else (404, {"error": "unknown endpoint"})
        if not target.startswith("/share/"):
            return 404, {"error": "unknown endpoint"}
        repo = urllib.parse.unquote(target[len("/share/"):])
        if method == "DELETE":
            self.server.cache.evict(repo)
            return 200, {"ok": True}
        share_text = self.server.cache.fetch_share(repo)
        return (404, {"error": "absent"}) if share_text is None else (200, {"share": share_text})

    def _store(self, body: bytes) -> tuple[int, dict]:
        try:
            doc = json.loads(body)
            if not isinstance(doc, dict):
                raise ValueError("body must be a JSON object")
            repo, share_text = doc.get("cid"), doc.get("share")
            if not isinstance(repo, str) or not isinstance(share_text, str):
                raise ValueError("cid and share must be strings")
            self.server.cache.store_share(repo, share_text)
        except (ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
            return 400, {"error": str(exc)}
        return 200, {"ok": True}


class MiddlemanServer(socketserver.ThreadingTCPServer):
    """HTTP front end over a ShareCache; `port=0` picks a free port.

    Each request handler serves `self.server.cache`. Open connections are
    tracked so that `stop` can end them.
    """

    allow_reuse_address = True  # a restarted server takes its port back at once
    daemon_threads = True

    def __init__(self, cache: ShareCache | None = None, host: str = "127.0.0.1", port: int = 0):
        if not 0 <= port <= 65535:  # bind() would raise OverflowError
            raise ValueError(f"port must be 0-65535, got {port}")
        self.cache = cache if cache is not None else ShareCache()
        super().__init__((host, port), _Handler)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def start(self) -> "MiddlemanServer":
        self._thread = threading.Thread(target=self.serve_forever, args=(_STOP_POLL_S,), daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then shut every open connection; its handler thread then sees EOF."""
        if self._thread is not None:  # shutdown() would wait forever for a loop never started
            self.shutdown()
            self._thread.join()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already closed it
        self.server_close()


def _share_path(repo: str) -> str:
    """`/share/<repo>` with the id percent-encoded except `:`.

    A CID needs no escaping then, so `quote` returns it early instead of
    mapping it character by character, and the server's `unquote` finds no `%`.
    """
    return "/share/" + urllib.parse.quote(repo, safe=":")


class HttpShareCache:
    """Client-side adapter giving the HTTP service the in-process interface.

    Holds one keep-alive connection, shared by all threads under a lock.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0):
        parts = urllib.parse.urlsplit(base_url)
        prefix = parts.path.rstrip("/")
        # the prefix goes into the request line as-is: printable ASCII, no spaces
        if parts.scheme != "http" or not parts.hostname or not all("!" <= c <= "~" for c in prefix):
            raise ValueError(f"middleman URL must be http://host[:port][/prefix], got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._address = (parts.hostname, parts.port or 80)  # .port raises on a bad port
        self._host_field = parts.netloc.rpartition("@")[2]
        self._prefix = prefix
        self._sock: socket.socket | None = None
        self._rfile = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the connection; the next call opens a new one."""
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def _send(self, message: bytes) -> bool:
        """Send one request; True if it went on a reused connection.

        A reused connection that refuses it (the server closed it while idle)
        is dropped, and the request goes on a fresh one at once.
        """
        if self._sock is not None:
            try:
                self._sock.sendall(message)
                return True
            except _CLOSED:
                self._drop()
        sock = socket.create_connection(self._address, timeout=self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._rfile = sock, sock.makefile("rb")
        sock.sendall(message)
        return False

    def _reply(self, message: bytes, reused: bool) -> tuple[int, dict]:
        """Read the reply to `message`, which `_send` sent.

        A reused connection that ends before any reply byte (the server closed
        it while idle) gets the request once more, on a fresh connection.
        """
        try:
            if not self._rfile.peek(1):
                raise ConnectionResetError("connection closed before any reply")
        except _CLOSED:
            if not reused:
                raise
            self._drop()
            return self._reply(message, self._send(message))
        start, fields = _read_head(self._rfile)  # a first byte has arrived
        status_line = _STATUS_LINE.fullmatch(start)
        if status_line is None:
            raise ValueError(f"bad status line {start!r}")
        length = _body_length(fields, required=True)
        if length > MAX_REPLY_BYTES:
            raise ValueError(f"reply body of {length} bytes")
        raw = self._rfile.read(length)
        if len(raw) < length:
            raise ValueError("reply body cut short")
        doc = json.loads(raw or b"{}")
        if not isinstance(doc, dict):
            raise ValueError("reply body is not a JSON object")
        if not _keep_alive(status_line[1], fields):
            self._drop()
        return int(status_line[2]), doc

    def _unless_failed(self, step, *args):
        """Run one step of a call; if it fails, drop the connection and raise MiddlemanUnavailableError."""
        try:
            return step(*args)
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: deeply nested JSON
            self._drop()
            raise MiddlemanUnavailableError(f"middleman at {self.base_url}: {exc}") from exc

    def _message(self, method: str, path: str, body: dict | None = None) -> bytes:
        head = f"{method} {self._prefix}{path} HTTP/1.1\r\nHost: {self._host_field}\r\n"
        data = b""
        if body is not None:
            data = json.dumps(body).encode()
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        return (head + "\r\n").encode() + data

    def _request(self, method: str, path: str, body: dict | None = None, work=None) -> tuple[int, dict]:
        """Send one request, run `work()` once, then read the reply.

        `work` runs once whatever the request does, also when it cannot be
        sent. If `work` raises, the reply is still read, so the server has
        applied the request and the connection stays in step for the next
        one; a failure to read it is suppressed, and `work`'s error
        propagates as itself.
        """
        message = self._message(method, path, body)
        with self._lock:
            try:
                reused = self._unless_failed(self._send, message)
            except MiddlemanUnavailableError:
                if work is not None:
                    work()
                raise
            if work is not None:
                try:
                    work()
                except BaseException:
                    with contextlib.suppress(MiddlemanUnavailableError):  # work's error says more
                        self._unless_failed(self._reply, message, reused)
                    raise
            return self._unless_failed(self._reply, message, reused)

    def store_share(self, repo: str, share_text: str) -> None:
        self.store_share_while(repo, share_text, None)

    def store_share_while(self, repo: str, share_text: str, work) -> None:
        """`store_share`, with `work()` run once while the request is in flight.

        The rules of `fetch_share_while` hold. If `work` raises, the entry is
        stored all the same; a caller that must not leave it live evicts it.
        """
        status, doc = self._request("POST", "/share", {"cid": repo, "share": share_text}, work)
        if status == 400:
            raise ValueError(doc.get("error", "malformed share"))
        if status != 200:
            raise MiddlemanUnavailableError(f"unexpected status {status}")

    def fetch_share(self, repo: str) -> str | None:
        return self.fetch_share_while(repo, None)

    def fetch_share_while(self, repo: str, work) -> str | None:
        """`fetch_share`, with `work()` run once while the request is in flight.

        The request is sent, then `work` runs, then the reply is read, so the
        round trip and the work overlap. `work` runs once, also when the
        request is sent again on a fresh connection, or cannot be sent at all.
        If `work` raises, the reply is still read, so the connection can serve
        the next call, and the error propagates as it is. `work` runs under
        this client's lock, which is not reentrant, so it must not call this
        client.
        """
        status, doc = self._request("GET", _share_path(repo), work=work)
        if status == 200:
            if not isinstance(doc.get("share"), str):
                raise MiddlemanUnavailableError(f"middleman at {self.base_url}: reply has no share string")
            return doc["share"]
        if status == 404:
            return None
        raise MiddlemanUnavailableError(f"unexpected status {status}")

    def evict(self, repo: str) -> None:
        status, _ = self._request("DELETE", _share_path(repo))
        if status != 200:
            raise MiddlemanUnavailableError(f"unexpected status {status}")
