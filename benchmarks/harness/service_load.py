"""Planning-service load: a real server subprocess and JSON-lines clients.

The server is ``python -m repro serve`` (or, for traced runs,
``serve_traced.py``), started on an ephemeral port and stopped with SIGINT
so it shuts down the way an operator's Ctrl-C does.  Clients speak the
wire protocol through :mod:`repro.service.protocol` frames over asyncio
streams, all in one thread, with at most two connections — the machine's
core count — so the load generator never competes with the server for
more than its share.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.service.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame

HERE = Path(__file__).resolve().parent

#: Reply frame types that end a request.
FINAL = ("result", "shed", "error")


@dataclass
class Server:
    """One service subprocess on an ephemeral port."""

    proc: subprocess.Popen
    port: int

    @classmethod
    def start(cls, src: Path, queue_cap: int, workers: int, traced_out: Optional[Path] = None,
              timeout: float = 60.0) -> "Server":
        """Spawn, wait for the listening line, and answer one ``ping``."""
        args = ["--port", "0", "--workers", str(workers), "--queue-cap", str(queue_cap)]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), *args, "--out", str(traced_out)]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        try:
            port = _listening_port(proc, timeout)
            _ping(port, timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        server = cls(proc, port)
        _LIVE.append(server)
        return server

    def peak_rss_mb(self) -> float:
        """High-water RSS of the live server process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for server pid {self.proc.pid}")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT, wait, and return the exit code (killed on a hang)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if self in _LIVE:
            _LIVE.remove(self)
        return self.proc.returncode


#: Servers started and not yet stopped.
_LIVE: List[Server] = []


def stop_all() -> None:
    """Stop every server still running (a run that ended in an error)."""
    for server in list(_LIVE):
        server.stop()


def _listening_port(proc: subprocess.Popen, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.5)
        if not ready:
            continue
        line = proc.stdout.readline().decode("utf-8", "replace")
        if not line:
            raise RuntimeError(f"server exited before listening (code {proc.wait()})")
        if "listening on" in line:
            return int(line.rsplit(":", 1)[1])
    raise RuntimeError("server did not start listening in time")


def _ping(port: int, timeout: float) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(encode_frame({"type": "ping"}))
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                raise RuntimeError("server closed the connection before pong")
            data += chunk
    if decode_frame(data)["type"] != "pong":
        raise RuntimeError(f"unexpected ping reply {data!r}")


@dataclass
class Call:
    """One request sent and its final reply."""

    frame: dict
    due: float
    sent: float = 0.0
    replied: float = 0.0
    reply: Optional[dict] = None

    @property
    def latency_ms(self) -> float:
        """Reply time from when the request was due (open-loop timing)."""
        return (self.replied - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """Reply time from when the request was actually written."""
        return (self.replied - self.sent) * 1e3


@dataclass
class _Conn:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    awaiting_admission: deque = field(default_factory=deque)
    by_id: Dict[int, Call] = field(default_factory=dict)
    early: Dict[int, tuple] = field(default_factory=dict)
    open_calls: int = 0
    malformed: int = 0

    def on_frame(self, frame: dict, now: float) -> None:
        kind = frame.get("type")
        rid = frame.get("id")
        if kind in FINAL and rid in self.by_id:
            call = self.by_id[rid]
            if call.reply is None:
                self._finish(call, frame, now)
        elif kind in ("accepted", "shed", "error") and self.awaiting_admission:
            # Admission frames come back in submission order, so the head of
            # the queue is the request this frame answers.
            call = self.awaiting_admission.popleft()
            if rid is not None:
                self.by_id[rid] = call
            if kind != "accepted":
                self._finish(call, frame, now)
            elif rid in self.early:
                self._finish(call, *self.early.pop(rid))
        elif kind == "result" and rid is not None:
            self.early[rid] = (frame, now)  # raced ahead of its ``accepted``
        elif kind not in ("incumbent", "event", "stats", "pong"):
            self.malformed += 1

    def _finish(self, call: Call, frame: dict, now: float) -> None:
        call.reply, call.replied = frame, now
        self.open_calls -= 1


async def _connect(port: int) -> _Conn:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=MAX_FRAME_BYTES + 1)
    return _Conn(reader, writer)


async def _read_loop(conn: _Conn, done: asyncio.Event) -> None:
    while True:
        line = await conn.reader.readline()
        if not line:
            done.set()
            return
        try:
            frame = decode_frame(line)
        except ValueError:
            conn.malformed += 1
            continue
        conn.on_frame(frame, time.perf_counter())
        if conn.open_calls == 0:
            done.set()


async def _send(conn: _Conn, call: Call) -> None:
    conn.awaiting_admission.append(call)
    conn.open_calls += 1
    call.sent = time.perf_counter()
    conn.writer.write(encode_frame(call.frame))
    await conn.writer.drain()


async def _close(conn: _Conn) -> None:
    conn.writer.close()
    try:
        await conn.writer.wait_closed()
    except ConnectionError:
        pass


async def closed_loop(port: int, frames, keep_going, timeout: float = 60.0) -> List[Call]:
    """One connection, one request in flight: send, await the final reply.

    *frames* is an iterator of plan frames; *keep_going(done, elapsed)*
    decides before each send whether to continue.
    """
    conn = await _connect(port)
    calls: List[Call] = []
    started = time.perf_counter()
    try:
        for frame in frames:
            if not keep_going(len(calls), time.perf_counter() - started):
                break
            call = Call(frame, due=time.perf_counter())
            calls.append(call)
            await _send(conn, call)
            while call.reply is None:
                line = await asyncio.wait_for(conn.reader.readline(), timeout)
                if not line:
                    return calls
                conn.on_frame(decode_frame(line), time.perf_counter())
    finally:
        await _close(conn)
    return calls


async def open_loop(port: int, schedule: List[Call], connections: int = 2,
                    drain_timeout: float = 30.0) -> Dict[str, object]:
    """Send each call at its due time regardless of replies (open loop).

    Calls are dealt round-robin over *connections*; each connection has
    one sender and one reader coroutine.  Returns the send lag of every
    call (how late the generator ran) and the count of malformed frames.
    """
    conns = [await _connect(port) for _ in range(connections)]
    lags: List[float] = []

    async def sender(conn: _Conn, calls: List[Call]) -> None:
        for call in calls:
            delay = call.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append((time.perf_counter() - call.due) * 1e3)
            await _send(conn, call)

    readers = []
    try:
        for conn in conns:
            done = asyncio.Event()
            readers.append((asyncio.ensure_future(_read_loop(conn, done)), done))
        senders = [
            asyncio.ensure_future(sender(conn, schedule[k::connections]))
            for k, conn in enumerate(conns)
        ]
        await asyncio.gather(*senders)
        for conn, (task, done) in zip(conns, readers):
            if conn.open_calls:
                done.clear()
                try:
                    await asyncio.wait_for(done.wait(), drain_timeout)
                except asyncio.TimeoutError:
                    pass
    finally:
        for task, _ in readers:
            task.cancel()
        await asyncio.gather(*(task for task, _ in readers), return_exceptions=True)
        for conn in conns:
            await _close(conn)
    return {"lags_ms": lags, "malformed": sum(c.malformed for c in conns)}


async def stats(port: int, timeout: float = 30.0) -> dict:
    """The server's ``stats`` frame (counters, derived metrics, cache)."""
    conn = await _connect(port)
    try:
        conn.writer.write(encode_frame({"type": "stats"}))
        await conn.writer.drain()
        while True:
            frame = decode_frame(await asyncio.wait_for(conn.reader.readline(), timeout))
            if frame["type"] == "stats":
                return frame
    finally:
        await _close(conn)
