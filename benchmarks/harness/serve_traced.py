"""Traced planning-service entry point for the benchmark's ``--trace`` runs.

Wraps the scheduler, engine-cache, protocol and planner layers with the
bench's span recorder, then starts the service through the same CLI entry
as ``repro serve`` (so start-up imports match), which calls
:func:`repro.service.server.serve`.  When SIGINT stops the server, the
spans and the server's own metrics registry are written to ``--out`` as
one JSON document.  Untraced runs never use this file; they start the
real ``python -m repro serve``.

Usage (``PYTHONPATH`` must name the repository's ``src``)::

    python benchmarks/harness/serve_traced.py --port 0 --workers 2 \\
        --queue-cap 8 --out spans.json
"""

from __future__ import annotations

import argparse
import json

from spans import SpanRecorder, planner_wraps, service_wraps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-cap", type=int, default=8)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main
    from repro.obs import MetricsRegistry, observe

    recorder = SpanRecorder("service", "server").install(planner_wraps() + service_wraps())
    metrics = MetricsRegistry()
    try:
        # The ambient registry is the one ``repro serve`` hands the server.
        with observe(metrics=metrics):
            code = repro_main(["serve", "--port", str(args.port), "--workers", str(args.workers),
                               "--queue-cap", str(args.queue_cap)])
    finally:
        recorder.uninstall()
    wait = metrics.histograms.get("service_queue_wait")
    payload = {
        "spans": recorder.to_records(),
        "skipped": recorder.skipped,
        "metric_spans": {m: [kind, sorted(names)] for m, (kind, names) in recorder.metrics.items()},
        "metrics": metrics.summary(),
        "queue_wait_ms": {
            "p50": wait.percentile(50) * 1e3 if wait else 0.0,
            "p90": wait.percentile(90) * 1e3 if wait else 0.0,
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
