import http.client
import json
import random
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import shardvcs
from shardvcs import middleman
from shardvcs.clock import VirtualClock
from shardvcs.middleman import (
    MAX_BODY_BYTES,
    CacheEntry,
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
    clock.sleep(9.999)
    assert cache.fetch_share("repo") == "02aa"
    clock.sleep(0.001)  # now == stored_at + ttl: no longer retrievable
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
    clock.sleep(60.0)
    cache.store_share("repo-b", "02bb")
    cache.evict("repo-a")
    assert cache.fetch_share("repo-a") is None
    assert cache.fetch_share("repo-b") == "02bb"
    clock.sleep(100.0)  # now at repo-b's expiry instant
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
    clock2 = VirtualClock()
    clock2.advance_to(clock.now())
    cache2 = ShareCache(ttl_s=50.0, clock=clock2)
    cache2.restore(state)
    assert cache2.fetch_share("repo") == "02aa"
    clock2.sleep(50.0)
    assert cache2.fetch_share("repo") is None


def test_snapshot_layout_is_a_plain_dict_per_repo():
    clock = VirtualClock()
    clock.advance_to(7.5)
    cache = ShareCache(ttl_s=50.0, clock=clock)
    cache.store_share("repo", "02aa")
    assert cache.snapshot() == {"repo": {"share_text": "02aa", "stored_at": 7.5, "ttl_s": 50.0}}
    cache.restore({"other": {"share_text": "03bb", "stored_at": 1.0, "ttl_s": 10.0}})
    assert cache.live_shares() == {"other": "03bb"}
    clock.advance_to(11.0)
    assert cache.snapshot() == {}


def test_expired_shares_are_dropped_without_being_fetched():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=10.0, clock=clock)
    for i in range(1000):
        cache.store_share(f"old-{i}", "02aa")
    clock.sleep(10.0)
    for i in range(10):
        cache.store_share(f"new-{i}", "02bb")
    assert len(cache._entries) == 10


def test_an_overwrite_before_expiry_keeps_the_newer_entry():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=10.0, clock=clock)
    cache.store_share("repo", "02aa")
    clock.sleep(5.0)
    cache.store_share("repo", "02bb")
    clock.sleep(5.0)  # the first entry's expiry
    assert cache.fetch_share("repo") == "02bb"
    clock.advance_to(14.999)
    assert cache.live_shares() == {"repo": "02bb"}
    clock.advance_to(15.0)
    assert cache.fetch_share("repo") is None
    assert cache._entries == {}


def test_entries_with_equal_expiry_times():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=10.0, clock=clock)
    cache.store_share("repo-a", "02aa")
    cache.store_share("repo-b", "02bb")
    cache.store_share("repo-a", "03cc")  # same instant: every entry shares one expiry
    cache.evict("repo-b")
    cache.store_share("repo-b", "03dd")
    clock.advance_to(9.999)
    assert cache.live_shares() == {"repo-a": "03cc", "repo-b": "03dd"}
    clock.advance_to(10.0)
    assert cache.snapshot() == {}
    assert cache._entries == {}


def test_restored_entries_expire_in_expiry_order():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=10.0, clock=clock)
    late = {"share_text": "02aa", "stored_at": 5.0, "ttl_s": 10.0}
    early = {"share_text": "03bb", "stored_at": 1.0, "ttl_s": 2.0}
    cache.restore({"late": late, "early": early})
    clock.advance_to(3.0)
    cache.store_share("new", "02cc")
    assert set(cache._entries) == {"late", "new"}


def test_an_entry_behind_a_later_expiry_is_not_served():
    clock = VirtualClock()
    cache = ShareCache(ttl_s=10.0, clock=clock)
    cache.restore({"long": {"share_text": "02aa", "stored_at": 0.0, "ttl_s": 100.0}})
    cache.store_share("short", "03bb")
    clock.advance_to(9.999)
    assert cache.fetch_share("short") == "03bb"
    clock.advance_to(10.0)  # "short" expires, but waits behind "long"
    assert cache.fetch_share("short") is None
    assert cache.live_shares() == {"long": "02aa"}
    assert cache.snapshot() == {"long": {"share_text": "02aa", "stored_at": 0.0, "ttl_s": 100.0}}
    assert list(cache._entries) == ["long", "short"]
    clock.advance_to(100.0)
    assert cache.live_shares() == {} and cache._entries == {}


def test_evictions_and_overwrites_free_their_entries_at_once():
    clock = VirtualClock()
    cache = ShareCache(clock=clock)
    tracemalloc.start()
    try:
        for i in range(10_000):
            cache.store_share(f"repo-{i}", "02aa")
            cache.evict(f"repo-{i}")
        for _ in range(10_000):
            cache.store_share("repo", "03bb")
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache._entries) == 1
    assert traced < 64 * 1024, f"{traced} bytes traced for one entry"


def test_threads_sharing_one_cache_never_lose_a_live_entry():
    """Drops from the front run under the lock: a pop racing another would take a live entry."""
    clock = VirtualClock()
    cache = ShareCache(ttl_s=1.0, clock=clock)
    errors, done = [], threading.Event()

    def work(t: int) -> None:
        try:
            for i in range(3000):
                share = f"{t + 1:02x}{i:04x}"
                before = clock.now()
                cache.store_share(f"repo-{t}", share)
                cache.store_share(f"tmp-{t}-{i}", share)  # expires soon, so every call has drops to make
                got = cache.fetch_share(f"repo-{t}")
                if got != share and clock.now() < before + 1.0:
                    errors.append((t, i, got))
        except Exception as exc:  # reported by the assertion below
            errors.append((t, exc))

    def tick() -> None:
        while not done.is_set():
            clock.sleep(0.001)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ticker = threading.Thread(target=tick)
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        ticker.start()
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        done.set()
        ticker.join(timeout=10)
        assert not any(th.is_alive() for th in threads + [ticker])
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert errors == []


_MALFORMED_ENTRIES = {
    "not hex": {"share_text": "zz", "stored_at": 1.0, "ttl_s": 10.0},
    "no payload": {"share_text": "02", "stored_at": 1.0, "ttl_s": 10.0},
    "not a string": {"share_text": 2, "stored_at": 1.0, "ttl_s": 10.0},
    "NaN stored_at": {"share_text": "02aa", "stored_at": float("nan"), "ttl_s": 10.0},
    "infinite stored_at": {"share_text": "02aa", "stored_at": float("inf"), "ttl_s": 10.0},
    "string stored_at": {"share_text": "02aa", "stored_at": "1.0", "ttl_s": 10.0},
    "expiry past float range": {"share_text": "02aa", "stored_at": 1.7e308, "ttl_s": 1.7e308},
    "infinite ttl": {"share_text": "02aa", "stored_at": 1.0, "ttl_s": float("inf")},
    "NaN ttl": {"share_text": "02aa", "stored_at": 1.0, "ttl_s": float("nan")},
    "zero ttl": {"share_text": "02aa", "stored_at": 1.0, "ttl_s": 0.0},
    "negative ttl": {"share_text": "02aa", "stored_at": 1.0, "ttl_s": -5.0},
}


@pytest.mark.parametrize("entry", _MALFORMED_ENTRIES.values(), ids=_MALFORMED_ENTRIES.keys())
def test_restore_rejects_a_malformed_or_non_finite_entry(entry):
    clock = VirtualClock()
    cache = ShareCache(ttl_s=10.0, clock=clock)
    cache.store_share("kept", "03bb")
    with pytest.raises(ValueError):
        cache.restore({"good": {"share_text": "02aa", "stored_at": 0.0, "ttl_s": 10.0}, "bad": entry})
    assert cache.live_shares() == {"kept": "03bb"}  # a refused restore leaves the cache as it was


_CACHE_REPOS = ["repo-a", "repo-b", "repo-c"]


class ShareCacheModel(RuleBasedStateMachine):
    """The cache beside a plain dict of repo -> (share, stored_at) and the same clock.

    Steps of 0 s and whole multiples of 0.5 s against a 2 s TTL give overwrites,
    entries that expire at the same instant, and calls at the exact expiry time.
    After each cache call the entries the cache holds must be exactly the live ones.
    """

    TTL_S = 2.0

    @initialize()
    def start(self):
        self.clock = VirtualClock()
        self.cache = ShareCache(ttl_s=self.TTL_S, clock=self.clock)
        self.model: dict[str, tuple[str, float]] = {}

    def _live(self) -> dict[str, str]:
        now = self.clock.now()
        return {r: share for r, (share, at) in self.model.items() if now < at + self.TTL_S}

    def _holds_only_live_entries(self) -> None:
        assert {r: e.share_text for r, e in self.cache._entries.items()} == self._live()

    @rule(repo=st.sampled_from(_CACHE_REPOS), share=st.sampled_from(["02aa", "03bb"]))
    def store(self, repo, share):
        self.cache.store_share(repo, share)
        self.model[repo] = (share, self.clock.now())
        self._holds_only_live_entries()

    @rule(repo=st.sampled_from(_CACHE_REPOS))
    def fetch(self, repo):
        assert self.cache.fetch_share(repo) == self._live().get(repo)
        self._holds_only_live_entries()

    @rule(repo=st.sampled_from(_CACHE_REPOS))
    def evict(self, repo):
        self.cache.evict(repo)
        self.model.pop(repo, None)
        self._holds_only_live_entries()

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
    def advance(self, dt):
        self.clock.sleep(dt)

    @rule()
    def snapshot_and_restore(self):
        """Reload into a fresh cache and clock, as each CLI command does."""
        state = json.loads(json.dumps(self.cache.snapshot()))
        self._holds_only_live_entries()
        now, self.clock = self.clock.now(), VirtualClock()
        self.clock.advance_to(now)
        self.cache = ShareCache(ttl_s=self.TTL_S, clock=self.clock)
        self.cache.restore(state)
        assert self.cache.snapshot() == state

    @invariant()
    def serves_the_live_shares(self):
        assert self.cache.live_shares() == self._live()
        self._holds_only_live_entries()


ShareCacheModel.TestCase.settings = settings(max_examples=150, stateful_step_count=30, deadline=None)
TestShareCacheModel = ShareCacheModel.TestCase


def test_cache_entries_are_immutable_values():
    entry = CacheEntry(share_text="02aa", stored_at=1.0, ttl_s=2.0)
    with pytest.raises(AttributeError):
        entry.stored_at = 5.0
    assert entry == CacheEntry("02aa", 1.0, 2.0) and entry != CacheEntry("02aa", 1.0, 3.0)
    assert hash(entry) == hash(CacheEntry("02aa", 1.0, 2.0))
    assert repr(entry) == "CacheEntry(share_text='02aa', stored_at=1.0, ttl_s=2.0)"
    with pytest.raises(TypeError):
        CacheEntry(share_text="02aa", stored_at=1.0, ttl_s=2.0, extra=0)


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


# -- work while a fetch is in flight ------------------------------------------------


def test_fetch_share_while_sends_the_request_before_the_work_runs():
    heads = []
    seen = []

    def work() -> None:
        deadline = time.monotonic() + 5.0
        while not heads and time.monotonic() < deadline:
            time.sleep(0.001)
        seen.append(list(heads))

    with scripted_middleman([http_reply(b'{"share": "02aa"}')], heads) as (url, _):
        client = HttpShareCache(url, timeout_s=2)
        try:
            assert client.fetch_share_while("repo", work) == "02aa"
        finally:
            client.close()
    assert seen == [[b"GET /share/repo HTTP/1.1\r\nHost: " + url[len("http://"):].encode() + b"\r\n\r\n"]]


@pytest.mark.parametrize("error", [OSError(5, "blob read failed"), ValueError("bad piece")], ids=["oserror", "valueerror"])
def test_an_error_in_the_work_propagates_as_itself_and_the_next_call_reconnects(error):
    def work() -> None:
        raise error

    replies = [http_reply(b'{"share": "02aa"}'), http_reply(b'{"share": "02bb"}')]
    with scripted_middleman(replies) as (url, accepted):
        client = HttpShareCache(url, timeout_s=2)
        try:
            with pytest.raises(type(error)) as raised:
                client.fetch_share_while("repo", work)
            assert raised.value is error
            assert client.fetch_share("repo") == "02bb"  # the server closed the first connection after its reply
        finally:
            client.close()
    assert len(accepted) == 2


def test_a_request_sent_again_on_a_fresh_connection_runs_the_work_once():
    calls = []
    heads = []
    replies = [http_reply(b'{"ok": true}'), http_reply(b'{"share": "02aa"}')]
    with scripted_middleman(replies, heads) as (url, accepted):
        client = HttpShareCache(url, timeout_s=2)
        try:
            client.store_share("repo", "02aa")  # kept alive by the client; the server closes it
            assert client.fetch_share_while("repo", lambda: calls.append(1)) == "02aa"
        finally:
            client.close()
    assert calls == [1]
    assert len(accepted) == 2
    assert [head.split(b"\r\n", 1)[0] for head in heads] == [b"POST /share HTTP/1.1", b"GET /share/repo HTTP/1.1"]


def test_store_share_while_sends_the_request_before_the_work_runs():
    heads = []
    seen = []

    def work() -> None:
        deadline = time.monotonic() + 5.0
        while not heads and time.monotonic() < deadline:
            time.sleep(0.001)
        seen.append([head.split(b"\r\n", 1)[0] for head in heads])

    with scripted_middleman([http_reply(b'{"ok": true}')], heads) as (url, _):
        client = HttpShareCache(url, timeout_s=2)
        try:
            client.store_share_while("repo", "02aa", work)
        finally:
            client.close()
    assert seen == [[b"POST /share HTTP/1.1"]]


def test_a_store_sent_again_on_a_fresh_connection_runs_the_work_once():
    calls = []
    heads = []
    replies = [http_reply(b'{"share": "02aa"}'), http_reply(b'{"ok": true}')]
    with scripted_middleman(replies, heads) as (url, accepted):
        client = HttpShareCache(url, timeout_s=2)
        try:
            assert client.fetch_share("repo") == "02aa"  # kept alive by the client; the server closes it
            client.store_share_while("repo", "02aa", lambda: calls.append(1))
        finally:
            client.close()
    assert calls == [1]
    assert len(accepted) == 2
    assert [head.split(b"\r\n", 1)[0] for head in heads] == [b"GET /share/repo HTTP/1.1", b"POST /share HTTP/1.1"]


@pytest.mark.parametrize("call", ["store", "fetch"])
def test_the_work_runs_once_when_the_request_cannot_be_sent(call):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        url = "http://127.0.0.1:%d" % listener.getsockname()[1]
    calls = []
    client = HttpShareCache(url, timeout_s=2)
    try:
        with pytest.raises(MiddlemanUnavailableError):
            if call == "store":
                client.store_share_while("repo", "02aa", lambda: calls.append(1))
            else:
                client.fetch_share_while("repo", lambda: calls.append(1))
    finally:
        client.close()
    assert calls == [1]


def test_a_fetch_whose_work_fails_reads_its_reply_so_the_next_call_reuses_the_connection(server, accepts):
    error = OSError(5, "blob read failed")

    def work() -> None:
        raise error

    server.cache.store_share("repo", "02aa")
    client = HttpShareCache(server.url, timeout_s=2)
    try:
        with pytest.raises(OSError) as raised:
            client.fetch_share_while("repo", work)
        assert raised.value is error
        assert client.fetch_share("repo") == "02aa"
    finally:
        client.close()
    assert accepts[0] == 1


def test_the_in_process_cache_runs_the_work_first():
    cache = ShareCache()
    seen = []
    cache.store_share_while("repo", "02aa", lambda: seen.append(cache.fetch_share("repo")))
    assert cache.fetch_share_while("repo", lambda: seen.append("work")) == "02aa"
    assert seen == [None, "work"]

    def failing_work() -> None:
        raise OSError("failed")

    with pytest.raises(OSError):
        cache.store_share_while("other", "02bb", failing_work)
    assert cache.live_shares() == {"repo": "02aa"}


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


# -- repo ids on the wire ----------------------------------------------------------

ODD_IDS = ["a/b", "a b", "100%", "a%2Fb", "q?x=1", "frag#1", "grün", ":", "a:b/c", "", "sha256:" + "ab" * 32]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["store", "fetch", "evict"]),
                  st.sampled_from(ODD_IDS) | st.text(alphabet="/ %?#ü:a", max_size=6)),
        max_size=20,
    )
)
def test_ids_round_trip_over_http_as_in_process(server, ops):
    server.cache.restore({})
    reference = ShareCache(ttl_s=60.0)
    client = HttpShareCache(server.url)
    try:
        for i, (op, repo) in enumerate(ops):
            if op == "store":
                share = f"{i % 255 + 1:02x}{i:04x}"
                client.store_share(repo, share)
                reference.store_share(repo, share)
            elif op == "fetch":
                assert client.fetch_share(repo) == reference.fetch_share(repo), repo
            else:
                client.evict(repo)
                reference.evict(repo)
        assert server.cache.live_shares() == reference.live_shares()
    finally:
        client.close()


def test_a_cid_travels_unescaped_and_other_ids_escaped():
    cid = "sha256:" + "0f" * 32
    heads = []
    replies = [http_reply(b'{"share": "02aa"}'), http_reply(b'{"ok": true}'),
               http_reply(b'{"error": "absent"}', b"404 Not Found")]
    with scripted_middleman(replies, heads) as (url, _):
        client = HttpShareCache(url, timeout_s=2)
        try:
            assert client.fetch_share(cid) == "02aa"
            client.evict(cid)
            assert client.fetch_share("a/b c%?#ü:") is None
        finally:
            client.close()
    assert [head.split(b"\r\n", 1)[0] for head in heads] == [
        b"GET /share/" + cid.encode() + b" HTTP/1.1",
        b"DELETE /share/" + cid.encode() + b" HTTP/1.1",
        b"GET /share/a%2Fb%20c%25%3F%23%C3%BC: HTTP/1.1",
    ]
