import http.client
import json
import random
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from socketserver import ThreadingMixIn

import pytest

import shardvcs
from shardvcs import middleman
from shardvcs.clock import VirtualClock
from shardvcs.middleman import (
    MAX_BODY_BYTES,
    HttpShareCache,
    MiddlemanServer,
    MiddlemanUnavailableError,
    ShareCache,
)
from shardvcs.sss import ReconstructionError, Share, ThresholdParams, combine, split

from scripted_middleman import http_reply, scripted_middleman


def test_store_fetch_roundtrip():
    cache = ShareCache()
    cache.store_share("repo-1", "02aabb")
    assert cache.fetch_share("repo-1") == "02aabb"


def test_fetch_unknown_is_absent():
    assert ShareCache().fetch_share("ghost") is None


def test_last_writer_wins():
    cache = ShareCache()
    cache.store_share("repo", "02aa")
    cache.store_share("repo", "02bb")
    assert cache.fetch_share("repo") == "02bb"


def test_malformed_share_rejected():
    cache = ShareCache()
    with pytest.raises(ValueError):
        cache.store_share("repo", "zz not hex")
    with pytest.raises(ValueError):
        cache.store_share("repo", "02")  # payload missing
    with pytest.raises(ValueError):
        cache.store_share("repo", "00ff")  # index 0 is never a valid share
    assert cache.fetch_share("repo") is None


@pytest.mark.parametrize("ttl_s", [0.0, -1.0, float("nan"), float("inf")])
def test_share_cache_rejects_a_ttl_that_is_not_positive_and_finite(ttl_s):
    with pytest.raises(ValueError, match="ttl"):
        ShareCache(ttl_s=ttl_s)


def test_ttl_expiry_boundary_is_strict():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=10.0, clock=clock)
    cache.store_share("repo", "02aa")
    clock.advance(9.999)
    assert cache.fetch_share("repo") == "02aa"
    clock.advance(0.001)  # now == stored_at + ttl: no longer retrievable
    assert cache.fetch_share("repo") is None


def test_evict_is_idempotent():
    cache = ShareCache()
    cache.evict("never stored")
    cache.store_share("repo", "02aa")
    cache.evict("repo")
    cache.evict("repo")
    assert cache.fetch_share("repo") is None
    cache.store_share("repo", "02bb")
    assert cache.fetch_share("repo") == "02bb"


def test_repos_are_isolated():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=100.0, clock=clock)
    cache.store_share("repo-a", "02aa")
    clock.advance(60.0)
    cache.store_share("repo-b", "02bb")
    cache.evict("repo-a")
    assert cache.fetch_share("repo-a") is None
    assert cache.fetch_share("repo-b") == "02bb"
    clock.advance(100.0)  # now at repo-b's expiry instant
    assert cache.fetch_share("repo-b") is None


def test_holdings_alone_cannot_reconstruct():
    # the cache owns at most one share per repo; k=2 needs two
    cache = ShareCache()
    rng = random.Random(3)
    for i in range(5):
        shares = split(rng.randbytes(44), ThresholdParams(2, 3), rng)
        cache.store_share(f"repo-{i}", shares[1].to_text())
    for repo, text in cache.live_shares().items():
        with pytest.raises(ReconstructionError):
            combine([Share.from_text(text)], threshold=2)


def test_snapshot_restore():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=50.0, clock=clock)
    cache.store_share("repo", "02aa")
    state = cache.snapshot()
    clock2 = VirtualClock(start=clock.now())
    cache2 = ShareCache(ttl_s=50.0, clock=clock2)
    cache2.restore(state)
    assert cache2.fetch_share("repo") == "02aa"
    clock2.advance(50.0)
    assert cache2.fetch_share("repo") is None


# -- HTTP wire interface -------------------------------------------------------


@pytest.fixture
def server():
    srv = MiddlemanServer(ShareCache(ttl_s=60.0), port=0).start()
    yield srv
    srv.stop()


def _raw(method: str, url: str, body: dict | None = None) -> tuple[int, dict]:
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def test_http_store_fetch_delete(server):
    repo = "sha256:" + "ab" * 32
    status, _ = _raw("POST", server.url + "/share", {"cid": repo, "share": "02ffee"})
    assert status == 200
    status, doc = _raw("GET", server.url + "/share/" + urllib.parse.quote(repo, safe=""))
    assert status == 200
    assert doc == {"share": "02ffee"}
    status, _ = _raw("DELETE", server.url + "/share/" + urllib.parse.quote(repo, safe=""))
    assert status == 200
    status, _ = _raw("GET", server.url + "/share/" + urllib.parse.quote(repo, safe=""))
    assert status == 404


def test_http_malformed_share_is_400(server):
    status, doc = _raw("POST", server.url + "/share", {"cid": "r", "share": "not hex"})
    assert status == 400
    assert "error" in doc
    status, _ = _raw("POST", server.url + "/share", {"cid": "r"})
    assert status == 400


def test_http_delete_absent_is_200(server):
    status, _ = _raw("DELETE", server.url + "/share/ghost")
    assert status == 200


def test_http_unknown_endpoint_is_404(server):
    status, _ = _raw("POST", server.url + "/nope", {})
    assert status == 404


def test_http_client_adapter_matches_in_process_contract(server):
    client = HttpShareCache(server.url)
    try:
        assert client.fetch_share("repo") is None
        client.store_share("repo", "02abcd")
        assert client.fetch_share("repo") == "02abcd"
        with pytest.raises(ValueError):
            client.store_share("repo", "XYZ")
        client.evict("repo")
        client.evict("repo")
        assert client.fetch_share("repo") is None
    finally:
        client.close()


def test_http_non_object_bodies_and_non_string_fields_are_400(server):
    for body in ([], "cid", {"cid": 5, "share": "02aa"}, {"cid": "r", "share": 2}):
        status, doc = _raw("POST", server.url + "/share", body)
        assert status == 400, body
        assert "error" in doc
    # an int cid must not be stored under a key that GET can never name
    assert _raw("GET", server.url + "/share/5")[0] == 404


# -- connection behaviour --------------------------------------------------------


@pytest.fixture
def accepts(monkeypatch):
    """Count the connections every server accepts, seen from the server side."""
    count = [0]
    original = ThreadingMixIn.process_request

    def counting(self, request, client_address):
        count[0] += 1  # the accept loop runs on one thread
        original(self, request, client_address)

    monkeypatch.setattr(ThreadingMixIn, "process_request", counting)
    return count


def _host_port(url: str) -> tuple[str, int]:
    parts = urllib.parse.urlsplit(url)
    return parts.hostname, parts.port


def _exchange(conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None):
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    return resp.status, resp.read()


def _send_until_closed(url: str, request: bytes, byte_by_byte: bool = False) -> bytes:
    """Send raw bytes, keep our side open, and read until the server closes."""
    with socket.create_connection(_host_port(url), timeout=5) as sock:
        if byte_by_byte:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.send(request[i : i + 1])
                time.sleep(0.001)
        else:
            sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def test_http_client_uses_one_connection_for_many_calls(server, accepts):
    client = HttpShareCache(server.url)
    try:
        for i in range(25):
            client.store_share(f"repo-{i}", f"02{i:02x}")
            assert client.fetch_share(f"repo-{i}") == f"02{i:02x}"
            client.evict(f"repo-{i}")
            assert client.fetch_share(f"repo-{i}") is None
    finally:
        client.close()
    assert accepts[0] == 1


def test_unread_body_is_not_taken_for_the_next_request(server, accepts):
    _raw("POST", server.url + "/share", {"cid": "repo", "share": "02aa"})
    conn = http.client.HTTPConnection(*_host_port(server.url), timeout=5)
    try:
        body = b'GET /share/other HTTP/1.1\r\n\r\n'  # would parse as a request if left unread
        assert _exchange(conn, "POST", "/nope", body)[0] == 404
        status, reply = _exchange(conn, "GET", "/share/repo")
        assert (status, json.loads(reply)) == (200, {"share": "02aa"})
    finally:
        conn.close()
    assert accepts[0] == 2  # one for _raw, one kept alive for both requests


def test_threads_sharing_one_client_each_see_their_own_values(server, accepts):
    client = HttpShareCache(server.url)
    errors = []

    def work(t: int) -> None:
        try:
            for i in range(50):
                share = f"{t + 1:02x}{i:04x}"
                client.store_share(f"repo-{t}", share)
                got = client.fetch_share(f"repo-{t}")
                if got != share:
                    errors.append((t, i, got))
        except Exception as exc:  # reported by the assertion below
            errors.append((t, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
        client.close()
    assert errors == []
    assert accepts[0] == 1


def test_client_reaches_a_server_restarted_on_the_same_port():
    first = MiddlemanServer(ShareCache(), port=0).start()
    client = HttpShareCache(first.url)
    try:
        client.store_share("repo", "02aa")
        first.stop()
        second = MiddlemanServer(ShareCache(), port=_host_port(first.url)[1]).start()
        try:
            assert client.fetch_share("repo") is None  # the new, empty cache answers
            client.store_share("repo", "02bb")
            assert second.cache.fetch_share("repo") == "02bb"
        finally:
            second.stop()
    finally:
        client.close()


def test_stopped_server_does_not_answer_open_connections():
    srv = MiddlemanServer(ShareCache(), port=0).start()
    client = HttpShareCache(srv.url)
    try:
        client.store_share("repo", "02aa")
        assert client.fetch_share("repo") == "02aa"
        srv.stop()
        with pytest.raises(MiddlemanUnavailableError):
            client.fetch_share("repo")
    finally:
        client.close()


def test_close_is_idempotent_and_the_next_call_reconnects(server, accepts):
    client = HttpShareCache(server.url)
    client.close()  # before any connection exists
    client.store_share("repo", "02aa")
    client.close()
    client.close()
    assert client.fetch_share("repo") == "02aa"
    client.close()
    assert accepts[0] == 2


def test_unsupported_method_is_501_promptly(server):
    conn = http.client.HTTPConnection(*_host_port(server.url), timeout=2)
    try:
        assert _exchange(conn, "PUT", "/share", b"{}")[0] == 501
    finally:
        conn.close()


@pytest.mark.parametrize(
    "headers, body, status",
    [
        pytest.param(b"", b"", 400, id="no-length"),
        pytest.param(b"Content-Length: two\r\n", b"", 400, id="non-integer"),
        pytest.param(b"Content-Length: -1\r\n", b"", 400, id="negative"),
        pytest.param(b"Content-Length: 2\r\nContent-Length: 3\r\n", b"{}", 400, id="two-lengths"),
        pytest.param(b"Transfer-Encoding: chunked\r\n", b"2\r\n{}\r\n0\r\n\r\n", 400, id="chunked"),
        # the body is never sent, so the server must answer without awaiting it
        pytest.param(b"Content-Length: 1000000000\r\n", b"", 413, id="huge-unsent"),
        pytest.param(
            b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1), b"x" * (MAX_BODY_BYTES + 1), 413, id="one-over"
        ),
    ],
)
def test_badly_framed_post_is_refused_and_closed(server, headers, body, status):
    request = b"POST /share HTTP/1.1\r\nHost: test\r\n" + headers + b"\r\n" + body
    reply = _send_until_closed(server.url, request)  # returns only once the server closes
    assert reply.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close\r\n" in reply


def test_deeply_nested_json_is_400(server):
    conn = http.client.HTTPConnection(*_host_port(server.url), timeout=5)
    try:
        assert _exchange(conn, "POST", "/share", b"[" * MAX_BODY_BYTES)[0] == 400
        assert _exchange(conn, "GET", "/share/ghost")[0] == 404  # connection still serves
    finally:
        conn.close()


def test_hung_middleman_costs_one_timeout():
    with socket.socket() as listener:  # accepts connections, never answers
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        client = HttpShareCache("http://127.0.0.1:%d" % listener.getsockname()[1], timeout_s=0.3)
        start = time.monotonic()
        with pytest.raises(MiddlemanUnavailableError):
            client.fetch_share("repo")
        assert time.monotonic() - start < 1.0
        client.close()


@pytest.mark.parametrize(
    "url", ["https://127.0.0.1:8377", "ftp://127.0.0.1", "127.0.0.1:8377", "http://", "http://127.0.0.1:8377/a b"]
)
def test_client_rejects_urls_it_cannot_speak_to(url):
    with pytest.raises(ValueError):
        HttpShareCache(url)



# -- the HTTP/1.1 framer ------------------------------------------------------------


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        # http.server's limits: 65,536-byte lines and 100 header fields
        pytest.param(b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414, id="long-request-line"),
        pytest.param(b"GET /share/x HTTP/1.1\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n", 431, id="long-header-line"),
        pytest.param(b"GET /share/x HTTP/1.1\r\n" + b"X-Field: 1\r\n" * 101 + b"\r\n", 431, id="101-fields"),
        pytest.param(b"GET /share/x HTTP/1.1\r\nno colon here\r\n\r\n", 400, id="no-colon"),
        pytest.param(b"GET /share/x\r\n\r\n", 400, id="two-word-request-line"),
        pytest.param(b"GET /share/x HTTP/2.0\r\n\r\n", 400, id="unknown-version"),
    ],
)
def test_malformed_head_is_refused_and_closed(server, request_bytes, status):
    reply = _send_until_closed(server.url, request_bytes)
    assert reply.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close\r\n" in reply


def test_head_at_the_limits_is_served(server):
    fields = b"X-Field: 1\r\n" * 99 + b"X-Pad: " + b"a" * 65000 + b"\r\n"  # 100 fields
    request = b"GET /share/ghost HTTP/1.1\r\n" + fields + b"\r\nGET /share/ghost HTTP/1.1\r\nConnection: close\r\n\r\n"
    reply = _send_until_closed(server.url, request)
    assert reply.count(b"HTTP/1.1 404 Not Found\r\n") == 2  # and the connection served a second request


@pytest.mark.parametrize(
    "request_bytes",
    [
        pytest.param(b"GET /share/ghost HTTP/1.0\r\n\r\n", id="http-1.0"),
        pytest.param(b"GET /share/ghost HTTP/1.1\r\nConnection: close\r\n\r\n", id="connection-close"),
    ],
)
def test_closing_requests_are_answered_then_closed(server, request_bytes):
    reply = _send_until_closed(server.url, request_bytes)  # returns only once the server closes
    assert reply.startswith(b"HTTP/1.1 404 ")
    assert reply.endswith(b'{"error": "absent"}')


@pytest.mark.parametrize("byte_by_byte", [False, True], ids=["one-send", "one-byte-at-a-time"])
def test_pipelined_requests_get_replies_in_order(server, byte_by_byte):
    store = b'{"cid": "repo", "share": "02aa"}'
    request = b"POST /share HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(store), store)
    request += b"GET /share/repo HTTP/1.1\r\nConnection: close\r\n\r\n"
    first, second = _send_until_closed(server.url, request, byte_by_byte).split(b"HTTP/1.1 ")[1:]
    assert first.startswith(b"200 ") and first.endswith(b'{"ok": true}')
    assert second.startswith(b"200 ") and second.endswith(b'{"share": "02aa"}')


@pytest.mark.parametrize(
    "bad_reply",
    [
        pytest.param(b'HTTP/1.1 200 OK\r\n\r\n{"share": "02aa"}', id="no-length"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n", id="oversized-length"),
        pytest.param(b'HTTP/1.1 OK\r\nContent-Length: 17\r\n\r\n{"share": "02aa"}', id="bad-status-line"),
        pytest.param(b"garbage\r\n\r\n", id="not-http"),
        pytest.param(b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"share": "02aa"}', id="body-cut-short"),
        pytest.param(http_reply(b"{}"), id="no-share"),
        pytest.param(http_reply(b"[1]"), id="not-an-object"),
        pytest.param(http_reply(b'{"share": 5}'), id="share-not-a-string"),
        pytest.param(http_reply(b"[" * 60000), id="deeply-nested"),
    ],
)
def test_malformed_reply_raises_and_the_next_call_reconnects(bad_reply):
    with scripted_middleman([bad_reply, http_reply(b'{"share": "02aa"}')]) as (url, accepted):
        client = HttpShareCache(url, timeout_s=2)
        try:
            with pytest.raises(MiddlemanUnavailableError):
                client.fetch_share("repo")
            assert client.fetch_share("repo") == "02aa"
        finally:
            client.close()
    assert len(accepted) == 2


@pytest.mark.parametrize("body", [b"[1]", b'"no"', b"null"])
def test_refused_store_with_a_non_object_reply_raises_unavailable(body):
    with scripted_middleman([http_reply(body, b"400 Bad Request")]) as (url, _):
        client = HttpShareCache(url, timeout_s=2)
        try:
            with pytest.raises(MiddlemanUnavailableError):
                client.store_share("repo", "02aa")
        finally:
            client.close()


# -- idle connections and stop() ---------------------------------------------------


def _handler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.endswith("(process_request_thread)")]


def test_silent_connections_are_closed_after_the_idle_timeout(server, monkeypatch):
    monkeypatch.setattr(middleman, "IDLE_TIMEOUT_S", 0.2)
    before = len(_handler_threads())
    start = time.monotonic()
    socks = [socket.create_connection(_host_port(server.url), timeout=5) for _ in range(5)]
    try:
        for sock in socks:
            assert sock.recv(1) == b""  # EOF from the server, not our own 5 s timeout
    finally:
        for sock in socks:
            sock.close()
    assert time.monotonic() - start < 3.0
    deadline = time.monotonic() + 5.0
    while len(_handler_threads()) > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(_handler_threads()) <= before


def test_client_idle_past_the_timeout_reconnects_once(server, accepts, monkeypatch):
    monkeypatch.setattr(middleman, "IDLE_TIMEOUT_S", 0.2)
    client = HttpShareCache(server.url)
    try:
        client.store_share("repo", "02aa")
        time.sleep(0.5)  # the server closes the idle connection meanwhile
        assert client.fetch_share("repo") == "02aa"
        assert client.fetch_share("repo") == "02aa"
    finally:
        client.close()
    assert accepts[0] == 2


def test_stop_on_a_server_never_started_returns_and_frees_the_port():
    srv = MiddlemanServer(ShareCache(), port=0)
    stopper = threading.Thread(target=srv.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=2)
    assert not stopper.is_alive()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(_host_port(srv.url), timeout=2).close()


def test_importing_shardvcs_loads_no_stdlib_http_or_email():
    src = os.path.dirname(os.path.dirname(shardvcs.__file__))
    code = "import shardvcs, sys; print(sorted(m for m in sys.modules if m.split('.')[0] in ('http', 'email')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout.strip()) == (0, "[]"), out.stderr
