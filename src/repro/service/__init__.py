"""repro.service — planning-as-a-service over the GA planner stack.

The ROADMAP's production axis made concrete: an asyncio TCP front end
(:mod:`~repro.service.server`) speaking a JSON-lines protocol
(:mod:`~repro.service.protocol`), a run scheduler multiplexing concurrent
requests over a shared worker pool in tick-sized slices with admission
control and per-tenant fair share (:mod:`~repro.service.scheduler`), and
warm cross-request reuse of decode-engine state keyed by domain
config-hash (:mod:`~repro.service.cache`).  ``docs/service.md`` is the
operations guide; the benchmark harness's ``service-repeat`` and
``service-mixed`` workloads (``benchmarks/harness``) measure it under load.

The package imports its submodules lazily (PEP 562): ``from repro.service
import X`` loads only the module that defines ``X``, so a protocol-only
client (:mod:`~repro.service.client`, :mod:`~repro.service.protocol`)
starts without numpy or the GA stack.
"""

from importlib import import_module

#: Public name → the submodule that defines it.
_EXPORTS = {
    "EngineCache": "cache",
    "EngineLease": "cache",
    "config_hash": "cache",
    "ServiceClient": "client",
    "MAX_FRAME_BYTES": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "FrameReader": "protocol",
    "PlanRequest": "protocol",
    "ProtocolError": "protocol",
    "decode_frame": "protocol",
    "encode_frame": "protocol",
    "parse_plan_request": "protocol",
    "DONE": "scheduler",
    "FAILED": "scheduler",
    "QUEUED": "scheduler",
    "RUNNING": "scheduler",
    "SHED": "scheduler",
    "RunScheduler": "scheduler",
    "ServicePool": "scheduler",
    "ServiceRun": "scheduler",
    "default_max_len": "scheduler",
    "service_canonical_events": "scheduler",
    "PlanningServer": "server",
    "serve": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule defining *name* on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
