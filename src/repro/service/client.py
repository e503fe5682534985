"""Synchronous JSON-lines client for the planning service.

A thin blocking wrapper over one TCP connection: build ``plan`` frames,
stream the response frames back, return the terminal frame.  The CLI's
``repro client`` subcommand and the docs examples use it; tests drive it
against an in-process server thread.
"""

from __future__ import annotations

import socket
from typing import Callable, Iterator, Optional

from repro.service.protocol import TERMINAL_FRAMES, FrameReader, PlanRequest, encode_frame

__all__ = ["ServiceClient"]


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.server.PlanningServer`.

    Use as a context manager; :meth:`plan` submits a request and blocks
    until its terminal frame (``result`` / ``shed`` / ``error``), invoking
    *on_frame* for every intermediate frame (``accepted``, ``incumbent``,
    and — with ``stream=True`` — per-slice ``event`` frames).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7421, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = FrameReader()

    # -- plumbing -------------------------------------------------------------

    def _send(self, frame: dict) -> None:
        self._sock.sendall(encode_frame(frame))

    def _frames(self) -> Iterator[dict]:
        while True:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            for frame in self._reader.feed(chunk):
                yield frame

    # -- public API -----------------------------------------------------------

    def ping(self) -> dict:
        """Round-trip a ``ping``; returns the ``pong`` frame."""
        self._send({"type": "ping"})
        for frame in self._frames():
            if frame["type"] == "pong":
                return frame

    def stats(self) -> dict:
        """Fetch the server's live counters/queue snapshot."""
        self._send({"type": "stats"})
        for frame in self._frames():
            if frame["type"] == "stats":
                return frame

    def plan(
        self,
        request: PlanRequest,
        on_frame: Optional[Callable[[dict], None]] = None,
    ) -> dict:
        """Submit *request*; block until — and return — its terminal frame."""
        frame = {"type": "plan", "domain": request.domain, "size": request.size}
        defaults = PlanRequest(domain=request.domain, size=request.size)
        for field in (
            "tenant",
            "seed",
            "population",
            "budget",
            "max_len",
            "deadline_s",
            "mode",
            "portfolio",
            "stream",
            "evaluator",
        ):
            value = getattr(request, field)
            if value != getattr(defaults, field):
                frame[field] = value
        self._send(frame)
        for received in self._frames():
            if received["type"] in TERMINAL_FRAMES:
                return received
            if on_frame is not None:
                on_frame(received)

    def close(self) -> None:
        """Close the socket (idempotent)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close races are benign
            pass

    def __enter__(self) -> "ServiceClient":
        """Support ``with ServiceClient(...) as client``."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the connection on scope exit."""
        self.close()
