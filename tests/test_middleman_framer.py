"""Property tests for the middleman's HTTP/1.1 framer, on both ends.

Server side: Hypothesis builds requests, valid and not, and each one is sent
whole, one byte at a time, and pipelined behind a valid request. `spec` says
what the server answers and whether it keeps the connection open. It is
written from README's wire paragraph and RFC 9112 sections 2-6, and uses
nothing from `shardvcs.middleman`.

Client side: replies built the same way come from `scripted_middleman`. A
fetch returns what `reply_spec` says or raises `MiddlemanUnavailableError`,
and it never waits past its timeout.
"""

import json
import re
import socket
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shardvcs.middleman import HttpShareCache, MiddlemanServer, MiddlemanUnavailableError, ShareCache

from scripted_middleman import scripted_middleman

LINE_CAP = 65536  # README: a start or header line, its line end included
FIELD_CAP = 100
BODY_CAP = 4096
REPLY_BODY_CAP = 65536

# POST /share bodies and the status each gets: a JSON object whose `cid` and
# `share` are strings, the share a valid encoding, is stored.
STORE_BODIES = {
    b'{"cid": "r", "share": "02aa"}': 200,
    b'{"cid": "r"}': 400,
    b'{"cid": "r", "share": "zz"}': 400,
    b"[1]": 400,
    b"not json": 400,
}
SENTINEL = b"GET /share/ghost HTTP/1.1\r\nConnection: close\r\n\r\n"  # 404, then the server closes
LEADER = b"GET /share/ghost HTTP/1.1\r\nHost: test\r\n\r\n"  # 404, connection kept


def _lines(message: bytes) -> tuple[list[bytes], bytes]:
    """The head's lines, each with its line end, and what follows the blank line.

    RFC 9112 section 2.2: a line ends at LF, and a CR right before it is part
    of the line end. `message` always holds a whole head.
    """
    lines, at = [], 0
    while True:
        lf = message.index(b"\n", at)
        lines.append(message[at : lf + 1])
        at = lf + 1
        if len(lines) > 1 and lines[-1] in (b"\r\n", b"\n"):
            return lines[:-1], message[at:]


def _content(line: bytes) -> bytes:
    return line[:-1].removesuffix(b"\r")


def _head_error(lines: list[bytes], too_long_start: int) -> int | None:
    """The status a head's lines earn, checked in arrival order, or None."""
    if len(lines[0]) > LINE_CAP:
        return too_long_start
    for count, line in enumerate(lines[1:], start=1):
        if len(line) > LINE_CAP:
            return 431
        if b":" not in line:
            return 400
        if count > FIELD_CAP:
            return 431
    return None


def _fields(lines: list[bytes]) -> dict[str, list[str]]:
    """RFC 9112 section 5: names are case-insensitive, values lose surrounding whitespace."""
    fields: dict[str, list[str]] = {}
    for line in lines[1:]:
        name, _, value = _content(line).decode("latin-1").partition(":")
        fields.setdefault(name.strip().lower(), []).append(value.strip())
    return fields


def _length(fields: dict[str, list[str]], required: bool) -> int | None:
    """README: framed only by one all-digit Content-Length, never Transfer-Encoding."""
    lengths = fields.get("content-length", [])
    if "transfer-encoding" in fields or len(lengths) > 1:
        return None
    if not lengths:
        return None if required else 0
    text = lengths[0]
    return int(text) if text and all("0" <= c <= "9" for c in text) else None


def _closes(version: bytes, fields: dict[str, list[str]]) -> bool:
    """RFC 9112 section 9.3: HTTP/1.1 persists unless a `close` token says otherwise."""
    tokens = [t.strip().lower() for v in fields.get("connection", []) for t in v.split(",")]
    return version != b"HTTP/1.1" or "close" in tokens


def spec(request: bytes) -> tuple[int, bool]:
    """The server's status for one whole request, and whether it keeps the connection."""
    lines, body = _lines(request)
    status = _head_error(lines, too_long_start=414)
    if status is not None:
        return status, False
    words = _content(lines[0]).split(b" ")
    if len(words) != 3 or words[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
        return 400, False
    method, target, version = words
    fields = _fields(lines)
    length = _length(fields, required=method == b"POST")
    if length is None:
        return 400, False
    if length > BODY_CAP:
        return 413, False
    if method not in (b"GET", b"POST", b"DELETE"):
        return 501, False
    if method == b"POST":
        status = STORE_BODIES[body[:length]] if target == b"/share" else 404
    elif not target.startswith(b"/share/"):
        status = 404
    else:
        status = 200 if method == b"DELETE" else 404  # nothing stores `ghost`
    return status, not _closes(version, fields)


def _padded(prefix: bytes, suffix: bytes, total: int) -> bytes:
    """prefix + a run of `a` + suffix, `total` bytes long."""
    return prefix + b"a" * (total - len(prefix) - len(suffix)) + suffix


NEAR_CAP = st.integers(LINE_CAP - 2, LINE_CAP + 2)
LINE_ENDS = st.sampled_from([b"\r\n", b"\r\n", b"\n"])
RARELY = st.sampled_from([False] * 7 + [True])  # Hypothesis leans to a list's first items


@st.composite
def header_lines(draw, content_length: bytes | None) -> list[bytes]:
    """Header lines: filler fields near the cap, and at drawn places a
    Content-Length choice, Transfer-Encoding, Connection, a line without a
    colon and a line near the line cap."""
    fillers = st.integers(97, 102) if draw(RARELY) else st.integers(0, 3)
    lines = [b"X-Field: %d" % i for i in range(draw(fillers))]
    specials = [b"" if draw(RARELY) else b"Host: test"]
    if content_length is not None:
        specials.append(b"Content-Length: " + content_length)
        if draw(RARELY):  # duplicated, with the same value or another
            specials.append(b"Content-Length: " + draw(st.sampled_from([content_length, b"7"])))
    if draw(RARELY):
        specials.append(b"Transfer-Encoding: chunked")
    specials.append(draw(st.sampled_from([b"", b"Connection: close", b"Connection: keep-alive",
                                          b"connection: Keep-Alive, CLOSE"])))
    if draw(RARELY):
        specials.append(b"no colon here")
    if draw(RARELY):
        specials.append(_padded(b"X-Pad: ", b"", draw(NEAR_CAP) - 2))
    for line in filter(None, specials):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@st.composite
def requests(draw) -> bytes:
    method = draw(st.sampled_from([b"GET", b"DELETE", b"POST", b"POST", b"PUT"]))
    target = draw(st.sampled_from([b"/share/ghost", b"/share", b"/nope", b"/share/gh%6Fst"]))
    version = draw(st.sampled_from([b"HTTP/1.1"] * 8 + [b"HTTP/1.0", b"HTTP/2.0", b"http/1.1", b""]))
    start = b" ".join(filter(None, [method, target, version]))
    if draw(RARELY):  # a start line near the line cap
        start = _padded(method + b" /share/", b" " + version, draw(NEAR_CAP) - 2)
    body = draw(st.sampled_from(sorted(STORE_BODIES)) if method == b"POST" else st.sampled_from([b"", b"xyz"]))
    kind = draw(st.sampled_from(["exact"] * 12 + ["none"] * 2 + ["two", "-1", "+3", " 1e3", "huge", "over"]))
    content_length = {"exact": b"%d" % len(body), "none": None, "huge": b"9" * 30,
                      "over": b"%d" % (BODY_CAP + 1)}.get(kind, kind.encode())
    if kind in ("none", "huge", "over"):
        body = b""  # nothing frames it, or the server must answer without it
    lines = [start, *draw(header_lines(content_length)), b""]
    return b"".join(line + draw(LINE_ENDS) for line in lines) + body


def _pieces(data: bytes) -> list[bytes]:
    """`data` one byte a piece, but for the middle of each run of `a` longer
    than 64 bytes: that goes as one piece, to keep a near-cap line quick."""
    pieces, at = [], 0
    for run in re.finditer(rb"a{65,}", data):
        pieces += [data[i : i + 1] for i in range(at, run.start() + 16)]
        pieces.append(data[run.start() + 16 : run.end() - 16])
        at = run.end() - 16
    return pieces + [data[i : i + 1] for i in range(at, len(data))]


def _exchange(address, data: bytes, one_at_a_time: bool) -> bytes:
    """Send `data`, keep our side open, and read until the server closes."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for piece in _pieces(data) if one_at_a_time else [data]:
                sock.sendall(piece)
                time.sleep(0)  # lets the server thread read each piece on its own
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server refused the request and closed before the rest arrived
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass  # unread bytes at the server's close: what it sent before is already here
    return reply


def _replies(stream: bytes) -> list[tuple[int, bool]]:
    """(status, says `Connection: close`) for each reply in `stream`."""
    out = []
    while stream:
        head, _, stream = stream.partition(b"\r\n\r\n")
        status_line, *lines = head.split(b"\r\n")
        fields = dict(line.lower().split(b": ", 1) for line in lines)
        length = int(fields[b"content-length"])
        assert len(stream) >= length, "reply cut short"
        stream = stream[length:]
        out.append((int(status_line.split(b" ")[1]), fields.get(b"connection") == b"close"))
    return out


@pytest.fixture(scope="module")
def address():
    srv = MiddlemanServer(ShareCache(ttl_s=60.0), port=0).start()
    yield srv.server_address[:2]
    srv.stop()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=requests(), mode=st.sampled_from(["whole", "byte by byte", "pipelined"]))
def test_server_answers_every_request_as_the_spec_says(address, request, mode):
    _check_server(address, request, mode)


def _check_server(address, request: bytes, mode: str) -> None:
    status, keep = spec(request)
    data = (LEADER if mode == "pipelined" else b"") + request + (SENTINEL if keep else b"")
    replies = _replies(_exchange(address, data, one_at_a_time=mode == "byte by byte"))
    expected = [(status, not keep)] + ([(404, True)] if keep else [])
    if mode == "pipelined":
        expected.insert(0, (404, False))
    assert replies == expected


@pytest.mark.parametrize(
    "request_bytes, expected",
    [
        (b"GET /share/x HTTP/1.1\r\nX-Field: 1\r\n\r\n", (404, True)),
        (b"GET /share/x HTTP/1.1\nConnection: close\n\n", (404, False)),
        (b"GET /share/x HTTP/1.1\r\n" + b"X: 1\r\n" * 101 + b"\r\n", (431, False)),
        (b"GET /share/x HTTP/1.1\r\n" + b"X: 1\r\n" * 100 + b"no colon\r\n\r\n", (400, False)),
        (b"GET /share/x HTTP/1.1\r\nno colon\r\n" + b"X: 1\r\n" * 101 + b"\r\n", (400, False)),
        (_padded(b"GET /", b" HTTP/1.1\r\n", LINE_CAP) + b"\r\n", (404, True)),
        (_padded(b"GET /", b" HTTP/1.1\r\n", LINE_CAP + 1) + b"\r\n", (414, False)),
        (_padded(b"GET /", b" HTTP/1.1\r\n", LINE_CAP + 2) + b"\r\n", (414, False)),
        (_padded(b"GET /", b" HTTP/1.1\n", LINE_CAP) + b"\n", (404, True)),
        (b"GET /share/x HTTP/1.1\r\nX-Pad: " + b"a" * (LINE_CAP - 9) + b"\r\n\r\n", (404, True)),
        (b"GET /share/x HTTP/1.1\r\nX-Pad: " + b"a" * (LINE_CAP - 8) + b"\r\n\r\n", (431, False)),
        (b"GET /share/x HTTP/1.1\r\nA: 1\nConnection: close\r\n\r\n", (404, False)),
        (b"GET /share/x HTTP/1.1\r\nA: 1\n\r\n", (404, True)),
        (b"POST /share HTTP/1.1\r\nContent-Length: 4097\r\n\r\n", (413, False)),
        (b"GET /share/x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n", (400, False)),
        (b"PUT /share HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz", (501, False)),
        (b"POST /share HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]", (400, True)),
        (b"POST /share HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n[1]", (400, False)),
        (b"GET /share/x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", (400, False)),
    ],
)
def test_spec_and_server_on_hand_picked_requests(address, request_bytes, expected):
    assert spec(request_bytes) == expected
    for mode in ("whole", "byte by byte", "pipelined"):
        _check_server(address, request_bytes, mode)


@pytest.mark.parametrize(
    "head",
    [
        b"GET /share/x HTTP/1.1\r\n" + b"X: 1\r\n" * 100 + b"X: 1",  # a 101st line, cut short
        b"GET /share/x HTTP/1.1\r\nHost: a",
    ],
    ids=["101st field cut short", "cut after Host"],
)
def test_a_head_cut_off_by_the_clients_eof_is_400(address, head):
    """A last line with no line end is malformed, however many fields came before."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert _replies(reply) == [(400, True)]


# -- client side ---------------------------------------------------------------------

REPLY_BODIES = [b'{"share": "02aa"}', b'{"error": "absent"}', b"{}", b'{"share": 5}', b"[1]", b"not json"]


def reply_spec(reply: bytes):
    """What `fetch_share` returns for `reply`, or `MiddlemanUnavailableError`.

    README: a reply is framed only by Content-Length and fails the call when
    it has none, has more than 64 KiB, has a bad status line or is cut short,
    or when its body is not a JSON object; a 200 needs a string `share`, a
    404 means absent, and any other status fails. Its head obeys the same
    line and field caps as a request's.
    """
    failed = MiddlemanUnavailableError
    if b"\n\r\n" not in reply and b"\n\n" not in reply:
        return failed  # the server closed before the head ended
    lines, body = _lines(reply)
    if _head_error(lines, too_long_start=400) is not None:
        return failed
    version, _, rest = _content(lines[0]).partition(b" ")
    code, space, _ = rest.partition(b" ")
    if version not in (b"HTTP/1.0", b"HTTP/1.1") or len(code) != 3 or not code.isdigit():
        return failed
    length = _length(_fields(lines), required=True)
    if length is None or length > REPLY_BODY_CAP or len(body) < length:
        return failed
    try:
        doc = json.loads(body[:length]) if length else {}  # an empty body has no fields
    except ValueError:
        return failed
    if not isinstance(doc, dict) or code not in (b"200", b"404"):
        return failed
    if code == b"404":
        return None
    return doc["share"] if isinstance(doc.get("share"), str) else failed


@st.composite
def replies(draw) -> bytes:
    status = draw(st.sampled_from([b"HTTP/1.1 200 OK"] * 12 + [b"HTTP/1.1 404 Not Found"] * 3 + [
        b"HTTP/1.0 200 OK", b"HTTP/1.1 200", b"HTTP/1.1 500 Internal Server Error",
        b"HTTP/1.1 OK", b"HTTP/2 200 OK", b"HTTP/1.1 2000 OK", b"garbage"]))
    if draw(RARELY):  # a status line near the line cap
        status = _padded(b"HTTP/1.1 200 ", b"", draw(NEAR_CAP) - 2)
    body = draw(st.sampled_from(REPLY_BODIES[:1] * 8 + REPLY_BODIES))
    kind = draw(st.sampled_from(["exact"] * 12 + ["none", "two", "-1", "short", "long", "over"]))
    content_length = {"exact": b"%d" % len(body), "none": None, "short": b"%d" % (len(body) + 5),
                      "long": b"%d" % max(len(body) - 2, 0),
                      "over": b"%d" % (REPLY_BODY_CAP + 1)}.get(kind, kind.encode())
    if kind == "over":
        body = b""
    lines = [status, *draw(header_lines(content_length)), b""]
    reply = b"".join(line + draw(LINE_ENDS) for line in lines) + body
    return reply[: draw(st.sampled_from([len(reply)] * 12 + [0, len(reply) // 2]))]


@settings(max_examples=200, deadline=None)
@given(reply=replies())
def test_client_parses_every_reply_as_the_spec_says_or_fails_in_time(reply):
    expected = reply_spec(reply)
    with scripted_middleman([reply]) as (url, _):
        client = HttpShareCache(url, timeout_s=2.0)
        start = time.monotonic()
        try:
            got = client.fetch_share("repo")
        except MiddlemanUnavailableError as exc:
            got = type(exc)
        finally:
            client.close()
        assert time.monotonic() - start < 2.0
    assert got == expected
