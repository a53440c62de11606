"""A fake middleman that answers each connection's first request with a canned reply."""

from __future__ import annotations

import contextlib
import socket
import threading


@contextlib.contextmanager
def scripted_middleman(replies: list[bytes], heads: list[bytes] | None = None):
    """Answer the first request of the i-th connection with replies[i], then close it.

    Yields the server's URL and the list of accepted connections. Each
    request's head, its blank line included, is appended to `heads` if given.
    """
    accepted = []
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def serve() -> None:
            for reply in replies:
                conn, _ = listener.accept()
                with conn:
                    accepted.append(conn)
                    head = b""
                    while b"\r\n\r\n" not in head:
                        head += conn.recv(65536)
                    if heads is not None:
                        heads.append(head[: head.index(b"\r\n\r\n") + 4])
                    conn.sendall(reply)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield "http://127.0.0.1:%d" % listener.getsockname()[1], accepted
        thread.join(timeout=5)
        assert not thread.is_alive()


def http_reply(body: bytes, status: bytes = b"200 OK") -> bytes:
    return b"HTTP/1.1 %s\r\nContent-Length: %d\r\n\r\n%s" % (status, len(body), body)
