"""Minimal asyncio HTTP/1.1 transport for the estimation service.

A deliberately small stdlib-only server — request line, headers,
``Content-Length`` body, one JSON response, connection closed — because
the service's value is in :mod:`repro.serve.service`, not in HTTP
plumbing.  Routes:

* ``GET /healthz`` — liveness + inflight gauge;
* ``GET /metrics`` — counter snapshot (global + server bookkeeping);
* ``POST /v1/<endpoint>`` — one of
  :data:`repro.serve.service.ENDPOINTS`, JSON body in, JSON envelope out.

Error mapping: validation failures → 400, unknown path → 404, wrong
method → 405, backpressure → **429 with a ``Retry-After`` header**,
draining → 503, anything else → 500.  Response bodies are serialized
with sorted keys and ``allow_nan=False``, so a response's bytes are a
deterministic function of its payload — the property the warm-cache
byte-identity checks rely on.

The request line and headers must arrive within
:data:`HEAD_TIMEOUT_S` seconds of connecting (else 408) and may carry at
most :data:`MAX_HEADERS` header lines (else 400), so a slow or idle
client cannot hold a connection open indefinitely.

Shutdown is graceful: :meth:`ServeHTTP.shutdown` stops the listener,
closes connections that have not yet sent a complete request head, lets
every other accepted connection finish (in-flight computations drain via
the single-flight gate), then closes the service.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Set, Tuple

from ..utils.serialization import json_default
from .flight import Draining, Overloaded
from .params import BadRequest
from .service import ENDPOINTS, EstimationService

__all__ = ["HEAD_TIMEOUT_S", "MAX_HEADERS", "ServeHTTP", "encode_body"]

_MAX_BODY_BYTES = 64 * 1024 * 1024
#: Seconds a connection may take to send its request line and headers.
HEAD_TIMEOUT_S = 10.0
#: Header lines accepted in one request head.
MAX_HEADERS = 100
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def encode_body(payload: Dict[str, Any]) -> bytes:
    """Canonical response bytes: sorted keys, strict JSON, UTF-8."""
    return json.dumps(payload, sort_keys=True, allow_nan=False,
                      default=json_default).encode("utf-8")


class ServeHTTP:
    """Asyncio stream server binding an :class:`EstimationService`."""

    def __init__(self, service: EstimationService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._server: Optional["asyncio.base_events.Server"] = None
        self._connections: Set["asyncio.Task[None]"] = set()
        # Connections still waiting for their request head; shutdown
        # closes these instead of waiting on them.
        self._awaiting_head: Set["asyncio.Task[None]"] = set()

    @property
    def service(self) -> EstimationService:
        return self._service

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` requests."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
        )

    async def serve_until(self, stop: "asyncio.Event") -> None:
        """Serve until ``stop`` is set, then shut down gracefully."""
        if self._server is None:
            await self.start()
        await stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain connections and computations, close.

        Connections that have not sent a complete request head are
        closed at once rather than awaited.
        """
        if self._server is not None:
            self._server.close()
            for task in list(self._awaiting_head):
                task.cancel()
            await self._server.wait_closed()
            self._server = None
        while self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        await self._service.drain()
        self._service.close()

    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer went away
                pass

    async def _handle_request(self, reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._awaiting_head.add(task)
        try:
            head = await asyncio.wait_for(_read_head(reader), HEAD_TIMEOUT_S)
        except asyncio.TimeoutError:
            await self._respond(writer, 408, {
                "error": f"request head not received within "
                         f"{HEAD_TIMEOUT_S:g} s",
            })
            return
        except BadRequest as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        finally:
            if task is not None:
                self._awaiting_head.discard(task)
        if head is None:
            return
        method, path, headers = head
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await self._respond(writer, 400,
                                {"error": "bad Content-Length"})
            return
        if length < 0 or length > _MAX_BODY_BYTES:
            await self._respond(writer, 400,
                                {"error": "unacceptable Content-Length"})
            return
        body = await reader.readexactly(length) if length else b""
        status, payload, extra = await self._dispatch(method, path, body)
        await self._respond(writer, status, payload, extra)

    async def _dispatch(
        self, method: str, path: str, body: bytes,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}, {}
            return 200, self._service.healthz(), {}
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}, {}
            return 200, self._service.metrics(), {}
        if not path.startswith("/v1/"):
            return 404, {"error": f"unknown path {path!r}"}, {}
        endpoint = path[len("/v1/"):]
        if endpoint not in ENDPOINTS:
            return 404, {
                "error": f"unknown endpoint {endpoint!r}",
                "endpoints": list(ENDPOINTS),
            }, {}
        if method != "POST":
            return 405, {"error": "compute endpoints are POST-only"}, {}
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"request body is not JSON: {exc}"}, {}
        try:
            response = await self._service.handle(endpoint, payload)
        except BadRequest as exc:
            return 400, {"error": str(exc)}, {}
        except Overloaded as exc:
            self._service.note_rejected()
            return 429, {
                "error": str(exc),
                "retry_after": exc.retry_after,
            }, {"Retry-After": f"{max(1, round(exc.retry_after))}"}
        except Draining as exc:
            return 503, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - boundary: report, not die
            return 500, {
                "error": f"{type(exc).__name__}: {exc}",
            }, {}
        return 200, response, {}

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, Any],
                       extra_headers: Optional[Dict[str, str]] = None
                       ) -> None:
        body = encode_body(payload)
        reason = _STATUS_TEXT.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def _read_head(reader: asyncio.StreamReader
                     ) -> Optional[Tuple[str, str, Dict[str, str]]]:
    """Read the request line and headers: ``(method, path, headers)``.

    Returns ``None`` when the peer closed without sending a request line;
    raises :class:`BadRequest` for a malformed or over-long line or more
    than :data:`MAX_HEADERS` headers.
    """
    request_line = (await _read_line(reader)).rstrip("\r\n")
    if not request_line:
        return None
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise BadRequest("malformed request line")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if line in ("\r\n", "\n", ""):
            return method, path, headers
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raise BadRequest(f"more than {MAX_HEADERS} request headers")


async def _read_line(reader: asyncio.StreamReader) -> str:
    """One head line; a line past the reader's buffer limit is a 400."""
    try:
        return (await reader.readline()).decode("latin-1")
    except ValueError:
        raise BadRequest("request line or header too long") from None
