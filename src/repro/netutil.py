"""The JSON-over-HTTP service lifecycle shared by serve and dist.

:mod:`repro.serve` (the simulation front door) and the
:mod:`repro.dist` coordinator are both a :class:`JsonService`, speaking
one deliberately minimal HTTP/1.1 dialect: request line, headers,
``Content-Length`` body, JSON bodies both ways.  A connection serves
one request and is closed (``Connection: close``) unless the request
opts in with ``Connection: keep-alive``; then the answer says
``Connection: keep-alive`` and the connection waits, idle, for the next
request, at most :data:`READ_TIMEOUT_S`.  This module owns all they
share:

* the wire format (:func:`read_http_request`, :func:`write_json_response`);
* the lifecycle: bind, SIGTERM/SIGINT drain handlers, the
  per-connection task sets, and a drain that closes the listener,
  closes idle kept-alive connections at once, waits ``drain_grace_s``
  for in-flight work (whose answers go out ``Connection: close``) and
  cancels the stragglers;
* the request path: the read under :data:`READ_TIMEOUT_S`, 413/404/405
  from the service's route table, ``healthz`` and ``metricz``, the 500
  request-isolation boundary, and the ``{prefix}_requests``,
  ``{prefix}_responses`` and ``{prefix}_latency_ms`` metrics;
* the threaded harness (:class:`ServiceHandle`, :func:`start_in_thread`).

A service supplies its routes, its handlers and its hooks.  Latency is
read through the service's injected clock: this module is in the lint
determinism scope and reads no wall clock of its own.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from typing import Callable, Optional

from repro.obs.registry import MetricsRegistry

#: Reason phrases for every status the repo's services emit.
REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    410: "Gone", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: How long a request read may take before the connection is dropped;
#: it also bounds how long a kept-alive connection may sit idle.
READ_TIMEOUT_S = 30.0

#: Exceptions that mean "the peer went away or sent garbage": there is
#: nobody left to answer, so handlers just drop the connection.
REQUEST_READ_ERRORS = (
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
    ConnectionError,
    ValueError,
)

#: Latency histogram buckets (ms): sub-millisecond cache hits through
#: multi-second simulations.
LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: A parsed request: ``(method, target, headers, body)``; ``body`` is
#: ``None`` when Content-Length exceeded the caller's limit (413).
ParsedRequest = tuple[str, str, dict, Optional[bytes]]

#: One answer: ``(status, JSON body, extra headers)``.
Answer = tuple[int, dict, dict]


async def read_http_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int,
    request_line: Optional[bytes] = None,
) -> Optional[ParsedRequest]:
    """Read one HTTP/1.1 request off ``reader``.

    Returns ``None`` on an empty request line (peer connected and went
    away), raises ``ValueError`` on a malformed request line, and
    signals an oversized body by returning ``body=None`` so the caller
    can answer 413 instead of buffering the payload.  A caller that has
    already read the request line passes it as ``request_line``.
    """
    if request_line is None:
        request_line = await reader.readline()
    if not request_line.strip():
        return None
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) != 3:
        raise ValueError("malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > max_body_bytes:
        return method, target, headers, None  # signals 413 downstream
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def write_json_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: dict,
    extra_headers: Optional[dict] = None,
    *,
    keep_alive: bool = False,
) -> None:
    """Serialize ``payload`` as the whole JSON answer and drain it.

    The answer says ``Connection: close`` unless ``keep_alive``.
    """
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body)
    with contextlib.suppress(ConnectionError):
        await writer.drain()


def method_not_allowed(allowed: str) -> Answer:
    """The uniform 405 answer: ``(status, body, extra_headers)``."""
    return 405, {"error": "method-not-allowed",
                 "detail": f"use {allowed}"}, {"Allow": allowed}


class JsonService:
    """One JSON service bound to one event loop.

    Construct, then either ``asyncio.run(service.run())`` (the CLI
    path: installs SIGTERM/SIGINT drain handlers when possible) or
    :func:`start_in_thread`.  ``config`` needs ``host``, ``port`` and
    ``drain_grace_s``; ``clock`` is the service's injected seconds
    clock.

    A subclass sets :attr:`prefix`, :attr:`routes` and
    :attr:`max_body_bytes`, answers its own endpoints in
    :meth:`_handle` and ``healthz`` in :meth:`_health_body`, and may
    override the hooks :meth:`_refresh_gauges`,
    :meth:`_after_response` and :meth:`_shutdown`.
    """

    #: Metric name prefix: ``{prefix}_requests{endpoint}``,
    #: ``{prefix}_responses{code}``, ``{prefix}_latency_ms{endpoint}``.
    prefix = "service"
    #: ``(method, path, endpoint)`` rows; a path ending in ``/`` matches
    #: every path under it.  The endpoint is the metric label and the
    #: key :meth:`_handle` dispatches on; unrouted paths count as
    #: ``other``.
    routes: tuple[tuple[str, str, str], ...] = (
        ("GET", "/v1/healthz", "healthz"),
        ("GET", "/v1/metricz", "metricz"),
    )
    #: Larger bodies are answered 413 without being read.
    max_body_bytes = 1 << 20

    def __init__(self, config, clock: Callable[[], float]) -> None:
        self.config = config
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.port: Optional[int] = None  # bound port, set by start()
        self._draining = False
        self._started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        #: Connections with a request in flight (read or being answered).
        self._active: set[asyncio.Task] = set()
        #: Kept-alive connections waiting for their next request.
        self._idle: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._drain_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; sets :attr:`port`."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._started_at = self.clock()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(
        self,
        *,
        install_signal_handlers: bool = True,
        on_ready: Optional[Callable[[], None]] = None,
    ) -> None:
        """Start, serve until drained, then clean up."""
        await self.start()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self.request_drain)
                except (NotImplementedError, RuntimeError, ValueError):
                    # Non-main thread or platform without loop signal
                    # support: drain stays available via request_drain().
                    break
        if on_ready is not None:
            on_ready()
        try:
            await self._stopped.wait()
        finally:
            await self._shutdown()

    def request_drain(self) -> None:
        """Begin a graceful shutdown (idempotent; SIGTERM handler).

        Stops accepting connections, closes idle kept-alive ones, lets
        in-flight requests finish (bounded by ``drain_grace_s``),
        cancels the rest, then releases :meth:`run`.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        self._server.close()
        # An idle connection has nothing in flight: closing it ends its
        # read at once, where waiting would sit out drain_grace_s.
        for writer in self._idle.values():
            writer.close()
        pending = self._active | set(self._idle)
        if pending:
            _done, straggling = await asyncio.wait(
                pending, timeout=self.config.drain_grace_s
            )
            for task in straggling:
                task.cancel()
            if straggling:
                await asyncio.wait(straggling, timeout=1.0)
        self._stopped.set()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- one connection ------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._active.add(task)
        try:
            while await self._serve_one(reader, writer):
                # Kept alive: idle until the next request has been read.
                self._active.discard(task)
                self._idle[task] = writer
        finally:
            self._active.discard(task)
            self._idle.pop(task, None)
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; True when the connection stays open."""
        try:
            parsed = await asyncio.wait_for(
                self._read_request(reader), READ_TIMEOUT_S
            )
        except REQUEST_READ_ERRORS:
            return False  # unparseable or abandoned: nothing to answer
        if parsed is None or writer.is_closing():
            # The peer went away, or a drain closed this idle connection
            # under a request that had already arrived: no answer could
            # reach the client, so the request is not handled.
            return False
        task = asyncio.current_task()
        if self._idle.pop(task, None) is not None:
            self._active.add(task)
        method, path, headers, body = parsed
        start = self.clock()
        endpoint, allowed = self._route(path)
        self.metrics.counter(
            f"{self.prefix}_requests", endpoint=endpoint
        ).inc()
        try:
            status, payload, extra = await self._answer(
                method, path, headers, body, endpoint, allowed
            )
        except Exception as exc:
            # Request isolation boundary: one failing handler must
            # answer 500 and leave the service (and its event loop)
            # serving every other connection.
            status, extra = 500, {}
            payload = {"error": "internal", "detail": f"{type(exc).__name__}"}
        self.metrics.counter(f"{self.prefix}_responses", code=status).inc()
        self.metrics.histogram(
            f"{self.prefix}_latency_ms", bounds=LATENCY_BUCKETS_MS,
            endpoint=endpoint,
        ).observe((self.clock() - start) * 1000.0)
        self._after_response()
        # A 413's body was never read, so it cannot frame a next request;
        # a drain (perhaps just requested by the hook) ends the connection.
        keep_alive = (
            headers.get("connection", "").lower() == "keep-alive"
            and body is not None and not self._draining
        )
        await write_json_response(
            writer, status, payload, extra, keep_alive=keep_alive
        )
        return keep_alive and not self._draining

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[ParsedRequest]:
        # A kept-alive connection idles in this readline, outside
        # read_http_request, so that call times only a request that
        # has begun to arrive.
        request_line = await reader.readline()
        return await read_http_request(
            reader, max_body_bytes=self.max_body_bytes,
            request_line=request_line,
        )

    def _route(self, path: str) -> tuple[str, Optional[str]]:
        """``(endpoint, allowed method)``; ``("other", None)`` unrouted."""
        for method, route, endpoint in self.routes:
            prefix = route.endswith("/") and path.startswith(route)
            if path == route or prefix:
                return endpoint, method
        return "other", None

    async def _answer(
        self, method: str, path: str, headers: dict, body: Optional[bytes],
        endpoint: str, allowed: Optional[str],
    ) -> Answer:
        if body is None:
            return 413, {"error": "payload-too-large",
                         "detail": f"body exceeds {self.max_body_bytes} "
                         "bytes"}, {}
        if allowed is None:
            return 404, {"error": "not-found",
                         "detail": f"no route for {path}"}, {}
        if method != allowed:
            return method_not_allowed(allowed)
        if endpoint == "healthz":
            return 200, self._health_body(), {}
        if endpoint == "metricz":
            self._refresh_gauges()
            return 200, self.metrics.to_dict(), {}
        return await self._handle(endpoint, path, headers, body)

    # -- service hooks -------------------------------------------------------

    async def _handle(
        self, endpoint: str, path: str, headers: dict, body: bytes
    ) -> Answer:
        """Answer one routed request to a service-specific endpoint."""
        raise NotImplementedError

    def _health_body(self) -> dict:
        """The ``GET /v1/healthz`` answer."""
        raise NotImplementedError

    def _refresh_gauges(self) -> None:
        """Bring gauges up to date before ``GET /v1/metricz`` reads them."""

    def _after_response(self) -> None:
        """Called once each answer is settled, before it is written.

        A drain requested here sends that answer ``Connection: close``.
        """

    async def _shutdown(self) -> None:
        """Release service resources once the drain has finished."""


# -- threaded harness (tests, benchmarks, smoke scripts) ---------------------


class ServiceHandle:
    """A running service on a daemon thread, stoppable from outside."""

    def __init__(self, service: JsonService, thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.service.config.host, self.service.port

    def stop(self, timeout_s: float = 15.0) -> None:
        """Trigger a graceful drain and join the service thread."""
        loop = self.service._loop
        if loop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.service.request_drain)
        self.thread.join(timeout_s)

    def join(self, timeout_s: float = 60.0) -> None:
        """Wait for the service to stop on its own (``exit_when_done``)."""
        self.thread.join(timeout_s)


def start_in_thread(
    service: JsonService, *, ready_timeout_s: float = 15.0
) -> ServiceHandle:
    """Run ``service`` on a daemon thread; returns once it is accepting."""
    ready = threading.Event()
    failures: list[BaseException] = []

    def runner() -> None:
        try:
            asyncio.run(
                service.run(install_signal_handlers=False, on_ready=ready.set)
            )
        except BaseException as exc:
            failures.append(exc)
            ready.set()
            raise

    thread = threading.Thread(
        target=runner, name=f"repro-{service.prefix}", daemon=True
    )
    thread.start()
    if not ready.wait(ready_timeout_s):
        raise RuntimeError(
            f"{service.prefix} service did not start within the ready timeout"
        )
    if failures:
        raise RuntimeError(
            f"{service.prefix} service failed to start"
        ) from failures[0]
    return ServiceHandle(service, thread)
