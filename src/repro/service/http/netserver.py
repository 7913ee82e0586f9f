"""A stdlib HTTP/1.1 server for the ASGI app — real sockets, no deps.

Production deployments should run :class:`TopologyHttpApp` under a real
ASGI server (:func:`serve_uvicorn` does, when uvicorn is installed).
This module is the dependency-free fallback that makes the wire
protocol *testable and benchmarkable everywhere*: an asyncio
``start_server`` loop that parses HTTP/1.1 requests, drives the ASGI
interface, and writes responses back — with keep-alive and chunked
transfer encoding for streamed bodies.  The closed-loop HTTP benchmark
and the end-to-end socket tests run against this.

It is deliberately minimal: ``Content-Length`` request bodies only (no
request chunking, no trailers, no TLS), HTTP/1.0 and 1.1.  Everything a
stdlib ``http.client`` or ``curl`` sends.  The server owns framing: it
writes the one ``content-length`` (or ``transfer-encoding``) and
``connection`` header of every response, hands a request body to the
app in bounded frames so the app's size limit fires before the rest is
read, and answers a request it cannot frame with ``400`` and a close.

>>> server = HttpServerThread(app)           # port 0 = ephemeral
>>> with server as base_url:
...     urllib.request.urlopen(base_url + "/healthz")
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.service.http.schemas import error_to_wire

__all__ = ["AsgiHttpServer", "HttpServerThread", "serve_uvicorn"]

#: Longest request head (request line + headers): the stream reader's
#: limit, so a longer one is answered ``400``.
_MAX_HEADER_BYTES = 64 * 1024
#: Most of a request body one ``receive()`` hands to the app.
_BODY_FRAME_BYTES = 64 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """A request head that cannot be framed; answered ``400`` + close."""


class AsgiHttpServer:
    """Serve an ASGI 3 app over HTTP/1.1 on an asyncio event loop."""

    def __init__(self, app: Any, host: str = "127.0.0.1", port: int = 0) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=_MAX_HEADER_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    await self._write_bad_request(writer, str(error))
                    break
                if request is None:
                    break
                verb, path, version, headers, length = request
                keep_alive = self._keep_alive(version, headers)
                await self._dispatch(
                    reader, writer, verb, path, version, headers, length, keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, List[Tuple[str, str]], int]]:
        """One request head and its declared body length; the body
        itself stays on the socket for ``receive()``."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF between requests
            raise
        except asyncio.LimitOverrunError:
            raise _BadRequest(
                f"request head exceeds {_MAX_HEADER_BYTES} bytes"
            ) from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {lines[0]!r}")
        verb, target, version = parts
        headers: List[Tuple[str, str]] = []
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers.append((name.strip().lower(), value.strip()))
        length = 0
        for name, value in headers:
            if name == "content-length":
                # ``int()`` alone would take "-5", "+5" and "1_000".
                if not (value.isascii() and value.isdigit()):
                    raise _BadRequest(f"bad content-length: {value!r}")
                length = int(value)
            elif name == "transfer-encoding":
                raise _BadRequest("request transfer-encoding is not supported")
        return verb, target, version, headers, length

    @staticmethod
    def _keep_alive(version: str, headers: List[Tuple[str, str]]) -> bool:
        connection = next((v.lower() for n, v in headers if n == "connection"), "")
        if version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    async def _dispatch(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        verb: str,
        target: str,
        version: str,
        headers: List[Tuple[str, str]],
        length: int,
        keep_alive: bool,
    ) -> None:
        path, _, query_string = target.partition("?")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": version.split("/", 1)[-1],
            "method": verb.upper(),
            "scheme": "http",
            "path": path,
            "raw_path": path.encode("utf-8"),
            "query_string": query_string.encode("utf-8"),
            "root_path": "",
            "headers": [
                (name.encode("latin-1"), value.encode("latin-1"))
                for name, value in headers
            ],
            "client": writer.get_extra_info("peername"),
            "server": writer.get_extra_info("sockname"),
        }

        # The body is read as the app asks for it, one bounded frame per
        # ``receive()``: the app's size check sees the running total and
        # can answer 413 while the rest is still on the socket.
        unread = length
        delivered = False

        async def receive() -> dict:
            nonlocal unread, delivered
            if delivered:
                return {"type": "http.disconnect"}
            try:
                body = await reader.readexactly(min(unread, _BODY_FRAME_BYTES))
            except asyncio.IncompleteReadError:  # client left mid-body
                delivered, unread = True, 0
                return {"type": "http.disconnect"}
            unread -= len(body)
            delivered = unread == 0
            return {"type": "http.request", "body": body, "more_body": not delivered}

        # Response state machine: buffer the start message until the
        # first body frame decides between content-length (single
        # frame) and chunked transfer encoding (stream).
        state = {"start": None, "first": None, "mode": None}

        async def send(message: dict) -> None:
            kind = message["type"]
            if kind == "http.response.start":
                state["start"] = message
                return
            if kind != "http.response.body":  # pragma: no cover
                return
            chunk = message.get("body", b"")
            more = bool(message.get("more_body"))
            if state["mode"] is None:
                if not more:  # single-frame response: exact length
                    state["mode"] = "plain"
                    await self._write_head(
                        writer, state["start"], len(chunk), keep_alive, chunked=False
                    )
                    writer.write(chunk)
                    await writer.drain()
                    return
                state["mode"] = "chunked"
                await self._write_head(
                    writer, state["start"], None, keep_alive, chunked=True
                )
            if state["mode"] == "chunked":
                if chunk:
                    writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                if not more:
                    writer.write(b"0\r\n\r\n")
                await writer.drain()

        await self.app(scope, receive, send)
        # Whatever the app left unread (a 413, a 404) is dropped frame
        # by frame, so the next request starts at a request line.
        while unread:
            unread -= len(await reader.readexactly(min(unread, _BODY_FRAME_BYTES)))

    async def _write_bad_request(self, writer: asyncio.StreamWriter, message: str) -> None:
        body = json.dumps(error_to_wire("invalid_request", message), sort_keys=True).encode()
        start = {"status": 400, "headers": [(b"content-type", b"application/json")]}
        await self._write_head(writer, start, len(body), keep_alive=False, chunked=False)
        writer.write(body)
        await writer.drain()

    @staticmethod
    async def _write_head(
        writer: asyncio.StreamWriter,
        start: Dict[str, Any],
        length: Optional[int],
        keep_alive: bool,
        chunked: bool,
    ) -> None:
        status = start["status"]
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}".encode("latin-1")]
        for name, value in start.get("headers", []):
            if name != b"content-length":  # framing is written below
                lines.append(name + b": " + value)
        if chunked:
            lines.append(b"transfer-encoding: chunked")
        else:
            lines.append(b"content-length: " + str(length).encode("ascii"))
        lines.append(
            b"connection: keep-alive" if keep_alive else b"connection: close"
        )
        writer.write(b"\r\n".join(lines) + b"\r\n\r\n")
        await writer.drain()


class HttpServerThread:
    """Run :class:`AsgiHttpServer` on a background thread's event loop.

    The synchronous entry point tests and benchmarks need: enter the
    context manager, get the base URL, hit it with any HTTP client."""

    def __init__(self, app: Any, host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = AsgiHttpServer(app, host, port)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="asgi-http-server", daemon=True
        )
        self.base_url: Optional[str] = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def start(self) -> str:
        self._thread.start()
        host, port = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        ).result(timeout=10)
        self.base_url = f"http://{host}:{port}"
        return self.base_url

    def stop(self) -> None:
        if self._loop.is_closed():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(
            timeout=10
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve_uvicorn(app: Any, host: str = "127.0.0.1", port: int = 8000, **kwargs: Any) -> None:
    """Serve under uvicorn when it is installed (optional dependency —
    the library never imports it at module level)."""
    try:
        import uvicorn
    except ImportError as error:  # pragma: no cover - optional path
        raise RuntimeError(
            "uvicorn is not installed; use HttpServerThread/AsgiHttpServer "
            "(stdlib) or `pip install uvicorn`"
        ) from error
    uvicorn.run(app, host=host, port=port, **kwargs)  # pragma: no cover
