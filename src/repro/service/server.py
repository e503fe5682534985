"""Asyncio TCP front end for the planning service (stdlib-only).

One :class:`PlanningServer` owns a :class:`~repro.service.scheduler.
RunScheduler` plus a :class:`~repro.service.scheduler.ServicePool` and
serves JSON-lines frames (see :mod:`repro.service.protocol`) to any number
of concurrent connections.  Worker threads deliver a run's frames through
``loop.call_soon_threadsafe`` onto a per-connection :class:`asyncio.Queue`
drained by a sender task — the only thread/event-loop boundary in the
system.  A run is live on its connection from submit until its final
frame is delivered; a client disconnecting mid-stream cancels every live
run it submitted, so abandoned work stops consuming slices at the next
boundary.  :func:`serve` stops gracefully on SIGINT and SIGTERM alike:
the workers finish their slices, every unfinished run is shed and its
evaluator closed, and open connections receive their queued frames before
they are closed.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.service.protocol import (
    PROTOCOL_VERSION,
    TERMINAL_FRAMES,
    ProtocolError,
    encode_frame,
    decode_frame,
    parse_plan_request,
)
from repro.service.cache import EngineCache
from repro.service.scheduler import RunScheduler, ServicePool, ServiceRun

__all__ = ["PlanningServer", "serve"]

#: Seconds :meth:`PlanningServer.close` lets open connections flush their
#: last frames before it aborts them.
_CLOSE_GRACE_S = 5.0


class PlanningServer:
    """The asyncio front end: accept connections, bridge frames to workers.

    Construct, then either ``await start()`` + ``await serve_forever()``
    inside a running loop, or call :func:`serve` from synchronous code (the
    CLI does).  ``port=0`` binds an ephemeral port, exposed as
    :attr:`port` after :meth:`start` — tests and the smoke job rely on it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_cap: int = 8,
        slice_gens: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scheduler = RunScheduler(
            engine_cache=EngineCache(metrics=self.metrics),
            queue_cap=queue_cap,
            slice_gens=slice_gens,
            metrics=self.metrics,
            tracer=tracer,
        )
        self.pool = ServicePool(self.scheduler, workers=workers)
        self._server: Optional[asyncio.base_events.Server] = None
        # Open connections: handler task -> (reader, writer).
        self._connections: Dict[asyncio.Task, tuple] = {}

    async def start(self) -> "PlanningServer":
        """Bind the listening socket and start the worker pool."""
        self.pool.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start()`` must have completed).

        The socket accepts from :meth:`start` on; this only waits.  Not
        ``Server.serve_forever()``: cancelled, that waits for every open
        connection to close (Python >= 3.12.1), which only :meth:`close`
        brings about.
        """
        assert self._server is not None, "call start() first"
        await asyncio.get_running_loop().create_future()

    async def close(self) -> None:
        """Stop accepting, join the workers, shed what is left, hang up.

        Unfinished runs are shed as ``cancelled`` and their evaluators
        closed (:meth:`RunScheduler.close`).  Each open connection then
        ends as if its client had sent EOF: its handler flushes the frames
        still queued and closes it.  A connection whose client stopped
        reading is aborted after :data:`_CLOSE_GRACE_S` seconds.
        """
        if self._server is not None:
            self._server.close()
        self.pool.stop()
        self.scheduler.close()
        for reader, _ in self._connections.values():
            reader.feed_eof()
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=_CLOSE_GRACE_S)
        for _, writer in list(self._connections.values()):
            writer.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # -- connection handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        outbox: "asyncio.Queue[Optional[dict]]" = asyncio.Queue()
        live: Dict[int, ServiceRun] = {}

        def deliver(frame: dict) -> None:
            # On the loop thread, after _dispatch has registered the run.
            if frame["type"] in TERMINAL_FRAMES:
                live.pop(frame["id"], None)
            outbox.put_nowait(frame)

        def subscriber(frame: dict) -> None:
            # Called from worker threads; hop onto the loop thread.
            loop.call_soon_threadsafe(deliver, frame)

        task = asyncio.current_task()
        self._connections[task] = (reader, writer)
        sender = asyncio.ensure_future(self._send_loop(outbox, writer))
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                    self._dispatch(frame, subscriber, live, outbox)
                except ProtocolError as exc:
                    outbox.put_nowait({"type": "error", "id": None, "message": str(exc)})
        finally:
            del self._connections[task]
            for run in live.values():
                if not run.finished:
                    self.scheduler.cancel(run)
            outbox.put_nowait(None)  # sentinel: flush then stop the sender
            with contextlib.suppress(Exception):
                await sender
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _dispatch(
        self,
        frame: dict,
        subscriber,
        live: Dict[int, ServiceRun],
        outbox: "asyncio.Queue[Optional[dict]]",
    ) -> None:
        kind = frame["type"]
        if kind == "ping":
            outbox.put_nowait({"type": "pong", "version": PROTOCOL_VERSION})
        elif kind == "stats":
            outbox.put_nowait({"type": "stats", **self.scheduler.stats()})
        elif kind == "plan":
            request = parse_plan_request(frame)
            run = self.scheduler.submit(request, subscriber=subscriber)
            live[run.request_id] = run
        else:
            raise ProtocolError(f"unknown frame type {kind!r}")

    @staticmethod
    async def _send_loop(
        outbox: "asyncio.Queue[Optional[dict]]", writer: asyncio.StreamWriter
    ) -> None:
        while True:
            frame = await outbox.get()
            if frame is None:
                return
            writer.write(encode_frame(frame))
            try:
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                return


def serve(
    host: str = "127.0.0.1",
    port: int = 7421,
    workers: int = 2,
    queue_cap: int = 8,
    slice_gens: int = 4,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    ready: Optional["object"] = None,
) -> None:
    """Run a :class:`PlanningServer` until SIGINT or SIGTERM (blocking).

    On the main thread both signals cancel the serving task, so the worker
    pool is joined and the socket closed before this returns — also when
    the process was started with SIGINT ignored, as a non-interactive
    shell starts background jobs.  Off the main thread, which receives no
    signals, no handler is installed.

    *ready*, when given, must have a ``set()`` method (a
    ``threading.Event``) and is signalled once the socket is bound —
    letting tests and the smoke job start the server in a thread and wait
    deterministically instead of sleeping.  The bound port is attached as
    ``ready.port`` first, so ``port=0`` (ephemeral) callers can find it.
    """

    async def _main() -> None:
        server = PlanningServer(
            host=host,
            port=port,
            workers=workers,
            queue_cap=queue_cap,
            slice_gens=slice_gens,
            metrics=metrics,
            tracer=tracer,
        )
        loop = asyncio.get_running_loop()
        previous = {}
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                previous[sig] = signal.getsignal(sig)
                loop.add_signal_handler(sig, asyncio.current_task().cancel)
        try:
            await server.start()
            print(f"repro service listening on {server.host}:{server.port}", flush=True)
            if ready is not None:
                ready.port = server.port
                ready.set()
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            # A second signal during the close takes its usual course.
            for sig, handler in previous.items():
                loop.remove_signal_handler(sig)
                signal.signal(sig, handler)
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
