"""Minimal asyncio HTTP/1.1 front end for the sweep service.

Stdlib only — ``asyncio.start_server`` plus hand-rolled request
parsing, which the tiny API surface keeps honest:

* ``POST /sweeps`` — submit a sweep spec (JSON body); responds with
  the job status (content-addressed ``job_id``, triage counters);
* ``GET /sweeps/<job_id>`` — job status/progress;
* ``GET /sweeps/<job_id>/rows`` — completed job's rows in grid order;
* ``GET /sweeps/<job_id>/events`` — ``text/event-stream`` of
  completed points, replay-then-follow, ending with a ``done`` event;
* ``GET /results/<digest>`` — one cached point row;
* ``GET /stats`` / ``GET /healthz`` — observability.

Connections are ``Connection: close`` (one request each) except the
SSE stream, which stays open until the job finishes.  The server
binds ``port=0`` by default and exposes the kernel-chosen port via
:attr:`ServiceServer.port` (and optionally a ``port_file``), so tests
and CI never race for a fixed port.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from typing import Any, Dict, Optional, Tuple

from repro.service.jobs import JobManager

_MAX_BODY = 8 << 20  # 8 MB: far beyond any plausible sweep spec


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class ServiceServer:
    """One :class:`JobManager` behind an asyncio socket server."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        port_file: Optional[str] = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.port_file = port_file
        self._server: Optional["asyncio.base_events.Server"] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the manager and begin accepting connections."""
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.port_file is not None:
            # Atomic write: a watcher never reads a torn port number.
            parent = os.path.dirname(self.port_file) or "."
            fd, tmp = tempfile.mkstemp(dir=parent)
            with os.fdopen(fd, "w") as handle:
                handle.write(str(self.port))
            os.replace(tmp, self.port_file)

    async def serve_forever(self) -> None:
        """Accept connections until cancelled (starting if needed)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drain the socket server, close the manager."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        try:
            method, path, body = await self._read_request(reader)
        except (ValueError, asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        try:
            await self._route(method, path, body, writer)
        except ConnectionError:
            pass
        except Exception as exc:  # noqa: BLE001 - 500 instead of a hang
            try:
                await self._respond(writer, 500, {"error": str(exc)})
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: "asyncio.StreamReader"
    ) -> Tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise ValueError(f"malformed request line {request_line!r}")
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                content_length = int(value.strip())
        if content_length > _MAX_BODY:
            raise ValueError("request body too large")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: "asyncio.StreamWriter",
    ) -> None:
        if method == "POST" and path == "/sweeps":
            try:
                payload = json.loads(body.decode() or "{}")
                status = await self.manager.submit(payload)
            except (ValueError, json.JSONDecodeError) as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            await self._respond(writer, 200, status.to_json())
            return
        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, {"ok": True})
            return
        if method == "GET" and path == "/stats":
            await self._respond(writer, 200, self.manager.stats())
            return
        if method == "GET" and path.startswith("/results/"):
            digest = path[len("/results/") :]
            try:
                row = self.manager.result(digest)
            except ValueError as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            if row is None:
                await self._respond(writer, 404, {"error": "unknown digest"})
            else:
                await self._respond(writer, 200, row)
            return
        if method == "GET" and path.startswith("/sweeps/"):
            rest = path[len("/sweeps/") :]
            job_id, _, tail = rest.partition("/")
            status = self.manager.status(job_id)
            if status is None:
                await self._respond(writer, 404, {"error": "unknown job"})
                return
            if tail == "":
                await self._respond(writer, 200, status.to_json())
                return
            if tail == "rows":
                rows = self.manager.rows(job_id)
                if rows is None:
                    await self._respond(
                        writer, 409, {"error": "job not complete", "state": status.state}
                    )
                else:
                    await self._respond(writer, 200, rows)
                return
            if tail == "events":
                await self._stream_events(writer, job_id)
                return
        await self._respond(writer, 404, {"error": f"no route for {method} {path}"})

    # ------------------------------------------------------------------
    async def _respond(
        self, writer: "asyncio.StreamWriter", status: int, payload: Any
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 409: "Conflict"}.get(
            status, "Error"
        )
        body = _json_bytes(payload)
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()

    async def _stream_events(
        self, writer: "asyncio.StreamWriter", job_id: str
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode())
        await writer.drain()
        async for event in self.manager.events(job_id):
            enriched: Dict[str, Any] = dict(event)
            if event.get("kind") == "point":
                enriched["row"] = self.manager.result(event["digest"])
            writer.write(b"data: " + _json_bytes(enriched) + b"\n\n")
            await writer.drain()


async def run_service(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    pools: int = 2,
    workers_per_pool: int = 1,
    port_file: Optional[str] = None,
) -> None:
    """Build and run a service until cancelled (the CLI entry point)."""
    manager = JobManager(root, pools=pools, workers_per_pool=workers_per_pool)
    server = ServiceServer(manager, host=host, port=port, port_file=port_file)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.close()
