"""The stdlib socket server over raw sockets: what is asserted is the
bytes on the wire, not a client library's reading of them, and every
test ends with the event loop's exception handler having seen nothing.
"""

from __future__ import annotations

import json
import socket
from typing import BinaryIO, List, NamedTuple, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.http import HttpServerThread, TestClient, create_app

from tests.service.http.conftest import valid_query

EXHAUSTIVE = {"entity1": "Protein", "entity2": "DNA", "method": "fast-top"}


class WireResponse(NamedTuple):
    status: int
    headers: List[Tuple[str, str]]
    body: bytes

    def values(self, name: str) -> List[str]:
        return [value for header, value in self.headers if header == name]


def read_response(stream: BinaryIO) -> WireResponse:
    """Parse one response off the wire, de-chunking when it is chunked."""
    status = int(stream.readline().split(b" ")[1])
    headers: List[Tuple[str, str]] = []
    while True:
        line = stream.readline().rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers.append((name.strip().lower(), value.strip()))
    if ("transfer-encoding", "chunked") not in headers:
        length = next(int(value) for name, value in headers if name == "content-length")
        return WireResponse(status, headers, stream.read(length))
    parts = []
    while True:
        size = int(stream.readline().strip(), 16)
        parts.append(stream.read(size))
        assert stream.read(2) == b"\r\n"
        if size == 0:
            return WireResponse(status, headers, b"".join(parts))


def request_bytes(verb: str, path: str, body: bytes = b"", version="HTTP/1.1"):
    lines = [f"{verb} {path} {version}", "Host: test"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


@pytest.fixture()
def serve():
    """``serve(app)`` starts a server and returns ``connect() -> (socket,
    buffered reader)``; ``connect.unhandled`` is what the loop's
    exception handler has recorded so far."""
    threads: list = []
    sockets: list = []
    unhandled: list = []

    def serve(app):
        thread = HttpServerThread(app)
        thread._loop.set_exception_handler(lambda loop, context: unhandled.append(context))
        threads.append(thread)
        host, port = thread.start().split("//", 1)[1].split(":")

        def connect():
            sock = socket.create_connection((host, int(port)), timeout=10)
            sockets.append(sock)
            return sock, sock.makefile("rb")

        connect.unhandled = unhandled
        return connect

    try:
        yield serve
    finally:
        for sock in sockets:
            sock.close()
        for thread in threads:
            thread.stop()
    assert unhandled == []


@pytest.fixture()
def wire(serve, app):
    return serve(app)


class TestConnections:
    def test_two_requests_on_one_keep_alive_connection(self, wire):
        sock, stream = wire()
        sock.sendall(request_bytes("GET", "/healthz"))
        first = read_response(stream)
        body = json.dumps(valid_query()).encode()
        sock.sendall(request_bytes("POST", "/query", body))
        second = read_response(stream)
        assert (first.status, second.status) == (200, 200)
        assert first.values("connection") == ["keep-alive"]
        assert second.values("connection") == ["keep-alive"]
        assert json.loads(first.body)["status"] == "ok"
        assert json.loads(second.body)["count"] == len(json.loads(second.body)["tids"])

    def test_http_1_0_without_keep_alive_closes(self, wire):
        sock, stream = wire()
        sock.sendall(request_bytes("GET", "/healthz", version="HTTP/1.0"))
        response = read_response(stream)
        assert response.status == 200
        assert response.values("connection") == ["close"]
        assert stream.read(1) == b""  # the server closed


class TestFraming:
    def test_plain_response_has_exactly_one_content_length(self, wire):
        sock, stream = wire()
        sock.sendall(request_bytes("GET", "/healthz"))
        response = read_response(stream)
        assert response.values("content-length") == [str(len(response.body))]
        assert response.values("transfer-encoding") == []
        sock.sendall(request_bytes("GET", "/nope"))
        error = read_response(stream)
        assert error.status == 404
        assert error.values("content-length") == [str(len(error.body))]

    def test_streamed_query_dechunks_to_the_test_client_body(self, wire, app):
        with TestClient(app) as client:
            reference = client.post("/query", json=EXHAUSTIVE)
        assert len(reference.chunks) >= 3  # the app did stream it
        sock, stream = wire()
        sock.sendall(request_bytes("POST", "/query", json.dumps(EXHAUSTIVE).encode()))
        response = read_response(stream)
        assert response.status == 200
        assert response.values("transfer-encoding") == ["chunked"]
        assert response.values("content-length") == []
        # Byte for byte the same document, but for the per-request id.
        mine = response.values("x-trace-id")[0].encode()
        theirs = reference.headers["x-trace-id"].encode()
        assert response.body.replace(mine, b"ID") == reference.body.replace(theirs, b"ID")


class TestBodyLimit:
    def test_over_limit_body_is_413_before_it_is_all_sent(self, server, serve):
        """The client declares 2 MB, sends 128 KB and stops: the 413 must
        arrive anyway — a server that buffers the declared body first
        would wait for the rest forever."""
        with create_app(server, max_body_bytes=1024) as small_app:
            sock, stream = serve(small_app)()
            head = b"POST /query HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n"
            sock.sendall(head + b"x" * (128 * 1024))
            response = read_response(stream)
        assert response.status == 413
        assert json.loads(response.body)["error"]["code"] == "body_too_large"

    def test_unread_body_is_dropped_and_the_connection_stays_in_step(self, wire):
        sock, stream = wire()
        sock.sendall(request_bytes("POST", "/nope", b"y" * 200_000))
        assert read_response(stream).status == 404
        sock.sendall(request_bytes("GET", "/healthz"))
        assert read_response(stream).status == 200

    def test_client_leaving_mid_body_is_the_apps_disconnect(self, wire):
        sock, stream = wire()
        sock.sendall(b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
        sock.shutdown(socket.SHUT_WR)
        response = read_response(stream)
        assert response.status == 400
        assert json.loads(response.body)["error"]["code"] == "invalid_request"


class TestRequestsThatCannotBeFramed:
    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
            b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GARBAGE\r\n\r\n",
        ],
        ids=["negative-length", "non-numeric-length", "underscore-length",
             "chunked-request", "no-request-line"],
    )
    def test_400_in_the_apps_error_shape_then_close(self, wire, client, raw):
        sock, stream = wire()
        sock.sendall(raw)
        response = read_response(stream)
        assert response.status == 400
        assert response.values("connection") == ["close"]
        assert response.values("content-type") == ["application/json"]
        assert response.values("content-length") == [str(len(response.body))]
        error = json.loads(response.body)["error"]
        assert error["code"] == "invalid_request" and error["message"]
        # Same keys as an error the app itself produces.
        app_error = client.get("/nope").json()["error"]
        assert set(error) == set(app_error)
        assert stream.read(1) == b""  # the server closed

    def test_oversized_head_is_400_not_a_bare_close(self, wire):
        """A 70 KB header overruns the 64 KiB head limit: the client is
        told so, instead of the connection just dropping."""
        sock, stream = wire()
        padding = "x" * (70 * 1024)
        sock.sendall(f"GET /healthz HTTP/1.1\r\nX-Pad: {padding}\r\n\r\n".encode("ascii"))
        response = read_response(stream)
        assert response.status == 400
        assert response.values("connection") == ["close"]
        error = json.loads(response.body)["error"]
        assert error["code"] == "invalid_request"
        assert "65536" in error["message"]
        assert stream.read(1) == b""  # the server closed


_HEADER_NAME = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=":"),
    min_size=1, max_size=20,
)
_HEADER_VALUE = st.text(st.characters(min_codepoint=0, max_codepoint=255), max_size=40)
_HEADER = st.one_of(
    st.tuples(_HEADER_NAME, _HEADER_VALUE),
    st.tuples(st.sampled_from(["Connection", "Transfer-Encoding", "Host"]), _HEADER_VALUE),
    # Signs, underscores and padding are what int() accepts and a
    # Content-Length must not.
    st.tuples(st.just("Content-Length"), st.from_regex(r"[ +\-]?[0-9_]{1,4}", fullmatch=True)),
)
_REQUEST_LINE = st.sampled_from([
    b"GET /healthz HTTP/1.1",
    b"GET /healthz HTTP/1.0",
    b"POST /query HTTP/1.1",
    b"POST /query_many HTTP/1.1",
    b"POST /explain HTTP/1.1",
    b"GET /stats?x=1 HTTP/1.1",
])


@st.composite
def _framed_request(draw) -> bytes:
    headers = draw(st.lists(_HEADER, max_size=6))
    head = draw(_REQUEST_LINE) + b"".join(
        b"\r\n" + f"{name}: {value}".encode("latin-1") for name, value in headers
    )
    return head + b"\r\n\r\n" + draw(st.binary(max_size=300))


# Arbitrary bytes, with the delimiters the parser splits on mixed in so
# that heads actually end and get parsed.
_RAW = st.lists(
    st.one_of(st.binary(max_size=40), st.sampled_from([b"\r\n", b"\r\n\r\n", b" ", b":"])),
    max_size=20,
).map(b"".join)

_FUZZ = settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestWireFuzz:
    """Crash-freedom of the request parser over untrusted bytes: whatever
    arrives on a connection, the loop's exception handler sees nothing
    and the same server still answers ``GET /healthz``.  Run with
    ``--hypothesis-profile ci`` for a deeper sweep."""

    @staticmethod
    def exchange(connect, raw: bytes) -> None:
        sock, stream = connect()
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            while stream.read(65536):
                pass  # whatever the answer, the server must end it
        except ConnectionError:
            pass  # closing with request bytes unread resets the connection
        finally:
            stream.close()
            sock.close()
        sock, stream = connect()
        try:
            sock.sendall(request_bytes("GET", "/healthz"))
            assert read_response(stream).status == 200
        finally:
            stream.close()
            sock.close()
        assert connect.unhandled == []

    @_FUZZ
    @given(raw=_RAW)
    def test_raw_bytes(self, wire, raw):
        self.exchange(wire, raw)

    @_FUZZ
    @given(raw=_framed_request())
    def test_request_line_then_random_headers_and_body(self, wire, raw):
        self.exchange(wire, raw)
