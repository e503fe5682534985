"""Wire protocol for the planning service: JSON-lines frames over TCP.

Every frame is one JSON object on one ``\\n``-terminated line, UTF-8
encoded, at most :data:`MAX_FRAME_BYTES` long.  The ``type`` key routes the
frame; request frames (client → server) are ``plan`` / ``stats`` /
``ping``, response frames (server → client) are ``accepted`` / ``shed`` /
``event`` / ``incumbent`` / ``result`` / ``error`` / ``stats`` / ``pong``.
``docs/service.md`` documents every frame with worked examples.

This module is purely syntactic: it parses and validates frame *shape*
(types, ranges) and leaves semantic checks — does the domain exist, can a
``max_len`` be derived — to the run scheduler, which answers them with
``error`` frames instead of exceptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "TERMINAL_FRAMES",
    "ProtocolError",
    "PlanRequest",
    "parse_plan_request",
    "encode_frame",
    "decode_frame",
    "FrameReader",
]

#: Wire protocol revision; servers echo it in ``accepted`` frames.
PROTOCOL_VERSION = 1

#: Hard cap on one encoded frame — oversized lines poison a JSON-lines
#: stream, so both ends refuse them instead of buffering without bound.
MAX_FRAME_BYTES = 1 << 20

#: Response frame types that end one request's stream.
TERMINAL_FRAMES = ("result", "shed", "error")

_MODES = ("ga", "portfolio")
_EVALUATORS = ("serial", "resilient")


class ProtocolError(ValueError):
    """A frame violated the wire protocol (shape, types or ranges)."""


def encode_frame(frame: dict) -> bytes:
    """Serialise *frame* to one newline-terminated JSON line.

    Raises :class:`ProtocolError` if the encoded frame exceeds
    :data:`MAX_FRAME_BYTES` or contains non-JSON values.
    """
    try:
        line = json.dumps(frame, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"frame is not JSON-serialisable: {exc}") from exc
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return data


def decode_frame(data: Union[bytes, str]) -> dict:
    """Parse one JSON-lines frame; the result is always a dict with ``type``.

    Raises :class:`ProtocolError` on malformed JSON, non-object payloads and
    missing/non-string ``type`` keys.
    """
    if isinstance(data, bytes):
        if len(data) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
        data = data.decode("utf-8", errors="replace")
    try:
        frame = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
    kind = frame.get("type")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("frame is missing a string 'type' key")
    return frame


class FrameReader:
    """Incremental splitter turning a byte stream into decoded frames.

    Feed arbitrary chunks (as received from a socket) and iterate the
    complete frames they finish; a partial trailing line stays buffered for
    the next feed.  Raises :class:`ProtocolError` when the buffered partial
    line outgrows :data:`MAX_FRAME_BYTES`.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> List[dict]:
        """Append *chunk* and return every frame it completed, in order."""
        self._buffer.extend(chunk)
        frames: List[dict] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if len(self._buffer) > MAX_FRAME_BYTES:
                    raise ProtocolError("unterminated frame exceeds MAX_FRAME_BYTES")
                return frames
            line = bytes(self._buffer[:newline])
            del self._buffer[: newline + 1]
            if line.strip():
                frames.append(decode_frame(line))

    def __iter__(self) -> Iterator[dict]:  # pragma: no cover - convenience
        """Frames are produced by :meth:`feed`; an empty reader yields none."""
        return iter(())


@dataclass(frozen=True)
class PlanRequest:
    """One validated planning request, as carried by a ``plan`` frame.

    ``domain``/``size`` name a registered domain the way ``repro solve``
    does; ``max_len`` may be omitted for domains the service can derive a
    plan-length bound for (hanoi, tile).  ``deadline_s`` is measured from
    arrival and covers queueing *and* planning; ``budget`` is the
    generation budget.  ``mode`` is ``ga`` (sliced, fair-shared) or
    ``portfolio`` (one slice, racing islands per ``portfolio`` spec).
    ``stream`` opts into per-generation ``event`` frames; ``evaluator``
    selects ``serial`` or the fault-tolerant ``resilient`` ladder.
    """

    domain: str
    size: int
    tenant: str = "default"
    seed: int = 0
    population: int = 30
    budget: int = 40
    max_len: Optional[int] = None
    deadline_s: Optional[float] = None
    mode: str = "ga"
    portfolio: Optional[str] = None
    stream: bool = False
    evaluator: str = "serial"


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProtocolError(message)


def parse_plan_request(frame: dict) -> PlanRequest:
    """Validate a ``plan`` frame into a :class:`PlanRequest`.

    Raises :class:`ProtocolError` naming the offending field; semantic
    errors (unknown domain, missing ``max_len``) are left to the scheduler.
    """
    _require(frame.get("type") == "plan", "expected a 'plan' frame")
    known = {
        "type",
        "domain",
        "size",
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
    }
    unknown = sorted(set(frame) - known)
    _require(not unknown, f"unknown plan fields: {', '.join(unknown)}")
    domain = frame.get("domain")
    _require(isinstance(domain, str) and bool(domain), "'domain' must be a non-empty string")
    size = frame.get("size")
    _require(isinstance(size, int) and not isinstance(size, bool) and size >= 1,
             "'size' must be an integer >= 1")
    tenant = frame.get("tenant", "default")
    _require(isinstance(tenant, str) and bool(tenant), "'tenant' must be a non-empty string")
    seed = frame.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0,
             "'seed' must be a non-negative integer")
    population = frame.get("population", 30)
    _require(isinstance(population, int) and not isinstance(population, bool) and population >= 2,
             "'population' must be an integer >= 2")
    budget = frame.get("budget", 40)
    _require(isinstance(budget, int) and not isinstance(budget, bool) and budget >= 1,
             "'budget' must be an integer >= 1")
    max_len = frame.get("max_len")
    _require(
        max_len is None
        or (isinstance(max_len, int) and not isinstance(max_len, bool) and max_len >= 1),
        "'max_len' must be an integer >= 1 when given",
    )
    deadline_s = frame.get("deadline_s")
    _require(
        deadline_s is None or (isinstance(deadline_s, (int, float)) and deadline_s > 0),
        "'deadline_s' must be a positive number when given",
    )
    mode = frame.get("mode", "ga")
    _require(mode in _MODES, f"'mode' must be one of {_MODES}")
    portfolio = frame.get("portfolio")
    _require(portfolio is None or isinstance(portfolio, str),
             "'portfolio' must be a string when given")
    _require(mode == "portfolio" or portfolio is None,
             "'portfolio' requires mode='portfolio'")
    stream = frame.get("stream", False)
    _require(isinstance(stream, bool), "'stream' must be a boolean")
    evaluator = frame.get("evaluator", "serial")
    _require(evaluator in _EVALUATORS, f"'evaluator' must be one of {_EVALUATORS}")
    return PlanRequest(
        domain=domain,
        size=size,
        tenant=tenant,
        seed=seed,
        population=population,
        budget=budget,
        max_len=max_len,
        deadline_s=float(deadline_s) if deadline_s is not None else None,
        mode=mode,
        portfolio=portfolio,
        stream=stream,
        evaluator=evaluator,
    )
