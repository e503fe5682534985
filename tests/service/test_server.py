"""TCP front-end tests: framing over real sockets, disconnect semantics, shutdown."""

import asyncio
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.service import PlanRequest, PlanningServer, ServiceClient

SRC = Path(__file__).resolve().parents[2] / "src"


class ServerThread:
    """A :class:`PlanningServer` on its own event-loop thread, for tests."""

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        self.kwargs = kwargs
        self.server = None
        self.port = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = PlanningServer(**self.kwargs)
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server never became ready"
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server thread failed to stop"


@pytest.fixture
def server():
    with ServerThread(workers=2, queue_cap=8) as running:
        yield running


def fast_request(**overrides):
    base = dict(domain="hanoi", size=3, seed=3, budget=20, population=20)
    base.update(overrides)
    return PlanRequest(**base)


class TestWireSession:
    def test_ping_reports_protocol_version(self, server):
        with ServiceClient(port=server.port) as client:
            assert client.ping() == {"type": "pong", "version": 1}

    def test_plan_round_trip_solves(self, server):
        frames = []
        with ServiceClient(port=server.port) as client:
            result = client.plan(fast_request(), on_frame=frames.append)
        assert result["type"] == "result" and result["solved"] is True
        assert frames[0]["type"] == "accepted"
        assert any(f["type"] == "incumbent" for f in frames)

    def test_second_request_is_warm_across_connections(self, server):
        with ServiceClient(port=server.port) as client:
            cold = client.plan(fast_request())
        with ServiceClient(port=server.port) as client:
            warm = client.plan(fast_request())
        assert cold["warm"] is False and warm["warm"] is True

    def test_stats_frame_exposes_counters_and_cache(self, server):
        with ServiceClient(port=server.port) as client:
            client.plan(fast_request())
            stats = client.stats()
        assert stats["counters"]["service_completed"] == 1
        assert stats["cache"]["warm_misses"] == 1

    def test_malformed_line_gets_error_and_connection_survives(self, server):
        with ServiceClient(port=server.port) as client:
            client._sock.sendall(b"this is not json\n")
            for frame in client._frames():
                if frame["type"] == "error":
                    assert "malformed" in frame["message"]
                    break
            assert client.ping()["type"] == "pong"

    def test_unknown_frame_type_gets_error(self, server):
        with ServiceClient(port=server.port) as client:
            client._send({"type": "teapot"})
            for frame in client._frames():
                assert frame["type"] == "error"
                assert "teapot" in frame["message"]
                break

    def test_invalid_plan_fields_get_error(self, server):
        with ServiceClient(port=server.port) as client:
            client._send({"type": "plan", "domain": "hanoi", "size": 0})
            for frame in client._frames():
                assert frame["type"] == "error" and "size" in frame["message"]
                break

    def test_concurrent_clients_multiplex_one_server(self, server):
        results = {}

        def one(seed):
            with ServiceClient(port=server.port) as client:
                results[seed] = client.plan(fast_request(seed=seed, budget=10))

        threads = [threading.Thread(target=one, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(results) == 4
        assert all(r["type"] == "result" for r in results.values())


class TestDisconnect:
    def test_disconnect_mid_stream_cancels_the_live_run(self, server):
        # A budget far beyond what the test waits for: the run must still
        # be executing when the client vanishes.
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        sock.sendall(
            b'{"type":"plan","domain":"hanoi","size":6,"budget":5000,'
            b'"population":40,"stream":true}\n'
        )
        assert b"accepted" in sock.recv(65536)  # admitted and streaming
        sock.close()  # vanish mid-request
        scheduler = server.server.scheduler
        assert scheduler.wait_idle(timeout=60), "cancelled run never drained"
        assert scheduler.metrics.counters["service_shed"].value == 1
        assert "service_completed" not in scheduler.metrics.counters

    def test_eof_without_requests_is_a_clean_close(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
        sock.close()
        with ServiceClient(port=server.port) as client:  # server still serving
            assert client.ping()["type"] == "pong"


class TestConnectionLifetime:
    def test_finished_runs_leave_a_long_lived_connection(self, server):
        # Every run submitted over one open connection must be freed once
        # its final frame (result or error) is delivered, not when the
        # connection closes.
        scheduler = server.server.scheduler
        submit, runs = scheduler.submit, []

        def tracking_submit(*args, **kwargs):
            run = submit(*args, **kwargs)
            runs.append(weakref.ref(run))
            return run

        scheduler.submit = tracking_submit
        with ServiceClient(port=server.port) as client:
            kinds = [
                client.plan(fast_request(seed=seed, budget=4, population=10))["type"]
                for seed in range(20)
            ]
            kinds.append(client.plan(fast_request(domain="no-such-domain"))["type"])
            assert kinds == ["result"] * 20 + ["error"]
            assert scheduler.wait_idle(timeout=60)
            deadline = time.monotonic() + 10
            while any(ref() is not None for ref in runs) and time.monotonic() < deadline:
                gc.collect()
                time.sleep(0.05)
            assert len(runs) == 21
            assert [ref() for ref in runs if ref() is not None] == []
            assert client.ping()["type"] == "pong"  # the connection is still open


def _shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class TestShutdown:
    @pytest.mark.parametrize(
        "signum,preexec",
        [(signal.SIGTERM, None), (signal.SIGINT, _ignore_sigint)],
        ids=["sigterm", "sigint-ignored-at-start"],
    )
    def test_serve_exits_cleanly_on_signal(self, signum, preexec):
        # A server started with SIGINT ignored is what a non-interactive
        # shell launches with `&`; serve handles SIGINT itself regardless.
        before = _shm_entries()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=preexec,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            with ServiceClient(port=port, timeout=60) as client:
                reply = client.plan(fast_request(evaluator="resilient", budget=4))
            assert reply["type"] == "result"
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert _shm_entries() - before == set()

    def test_signal_mid_request_releases_the_resilient_pool(self):
        # The server, not multiprocessing's resource tracker, must release
        # a running resilient request's pool and shared-memory segment, and
        # the connection still open at shutdown must close without a
        # traceback in the server log.
        before = _shm_entries()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        sock = None
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            sock = socket.create_connection(("127.0.0.1", port), timeout=60)
            sock.sendall(
                b'{"type":"plan","domain":"hanoi","size":6,"budget":5000,'
                b'"population":40,"evaluator":"resilient","stream":true}\n'
            )
            frames = sock.makefile("rb")
            # The first slice event: the run has built its pool and segment.
            while json.loads(frames.readline())["type"] != "event":
                pass
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, output
        finally:
            if sock is not None:
                sock.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "leaked shared_memory" not in output
        assert "Traceback" not in output, output
        assert _shm_entries() - before == set()
