"""Planning-service load harness: latency, shed rate, cache/fairness ablations.

Replays seeded mixed-scenario request streams against an in-process
:class:`~repro.service.scheduler.RunScheduler` + :class:`~repro.service.
scheduler.ServicePool` (no TCP — this measures the scheduling and cache
layers, not socket syscalls) and writes ``BENCH_service.json``:

- **repeat** — a closed-loop stream of recurring same-domain requests
  (a small pool of seeds cycled many times, the service's recurring-query
  shape), run twice: warm cross-request engine cache on vs off.  Headline:
  ``warm_speedup_p50`` — the cold/warm p50 latency ratio, asserted >= 1.5
  (the warm engine replays repeated populations out of its fitness memo).
- **mixed** — an open-loop Poisson request stream (``arrival:`` clauses
  from the :mod:`repro.faults` spec grammar, one clause per tenant, same
  SeedSequence-per-clause idiom as the soak's ``ArrivalStream``) mixing
  domains, sizes and seeds across three tenants — one of them a flooder.
  Run three ways: fair-share on (baseline), fair-share off, cold cache.
  Per variant: p50/p99 latency (overall and per tenant), shed rate,
  sustained evals/sec over the scenario makespan.
- **determinism** — same-seed requests run serially (``drain()``) and
  concurrently (worker pool), asserting byte-identical canonical traces
  (wall-clock and cache-warmth payloads masked) — the exactness contract
  the warm cache rides on.
- **thread_scaling** — a saturated closed-loop batch of vector-decode
  requests across ``workers in (1, 2, 4)``, reporting sustained evals/sec
  per cell.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick | --full]

``--full`` replays thousands of requests; the default a few hundred;
``--quick`` is the CI smoke size.  Also exposes one pytest-benchmark case
(a warm scheduling slice) so the file participates in the microbench
suite.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.spec import parse_fault_spec
from repro.obs import MetricsRegistry
from repro.service import (
    DONE,
    EngineCache,
    PlanRequest,
    RunScheduler,
    ServicePool,
    SHED,
)

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_SEED = 20030422  # the paper's venue date, like the other benches

#: tenant name per arrival clause (clause order in the spec below).
TENANTS = ("alpha", "bravo", "flood")

#: (domain, size, budget, population) cycled per tenant for the mixed load.
CATALOG: Dict[str, Tuple[Tuple[str, int, int, int], ...]] = {
    "alpha": (("hanoi", 4, 15, 30), ("hanoi", 5, 12, 30)),
    "bravo": (("tile", 3, 12, 30), ("hanoi", 4, 15, 30)),
    "flood": (("hanoi", 4, 10, 30),),
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of *values* (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def arrival_schedule(spec: str, seed: int) -> List[Tuple[float, int]]:
    """``(at_seconds, clause_index)`` arrivals from ``arrival:`` clauses.

    Each clause is an independent Poisson process capped by its ``n=``
    count, drawn from a ``SeedSequence(seed, spawn_key=(1, clause_index))``
    stream — the soak ``ArrivalStream`` idiom, minus the grid coupling.
    The merged schedule is time-sorted (clause order breaking ties).
    """
    parsed = parse_fault_spec(spec)
    out: List[Tuple[float, int]] = []
    for clause_index, clause in enumerate(parsed.arrival_clauses):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, clause_index)))
        rate = clause["rate"]
        cap = int(clause["n"])
        if cap <= 0:
            raise ValueError("bench arrival clauses must be capped with n=")
        t = 0.0
        for _ in range(cap):
            t += float(rng.exponential(1.0 / rate))
            out.append((t, clause_index))
    out.sort(key=lambda item: (item[0], item[1]))
    return out


def mixed_request(index: int, clause_index: int, seed: int) -> PlanRequest:
    """The deterministic request for one arrival of the mixed stream."""
    tenant = TENANTS[clause_index]
    domain, size, budget, population = CATALOG[tenant][index % len(CATALOG[tenant])]
    return PlanRequest(
        domain=domain,
        size=size,
        tenant=tenant,
        seed=seed + index,
        budget=budget,
        population=population,
    )


# -- scenarios -----------------------------------------------------------------


def run_repeat(
    warm: bool, n_requests: int, distinct_seeds: int, seed: int
) -> Tuple[dict, List[float]]:
    """Closed-loop recurring-request stream; returns (summary, latencies_ms)."""
    metrics = MetricsRegistry()
    scheduler = RunScheduler(
        engine_cache=EngineCache(enabled=warm, metrics=metrics),
        metrics=metrics,
        queue_cap=n_requests + 1,
    )
    latencies: List[float] = []
    for i in range(n_requests):
        run = scheduler.submit(
            PlanRequest(
                domain="hanoi",
                size=6,
                seed=seed + (i % distinct_seeds),
                budget=15,
                population=40,
            )
        )
        scheduler.drain()
        assert run.state == DONE, (run.state, run.error)
        latencies.append((run.finished_s - run.arrival_s) * 1e3)
    evals = metrics.counters.get("evals")
    skipped = metrics.counters.get("evals_skipped")
    summary = {
        "warm_cache": warm,
        "requests": n_requests,
        "distinct_seeds": distinct_seeds,
        "p50_ms": round(percentile(latencies, 50), 3),
        "p99_ms": round(percentile(latencies, 99), 3),
        "evals": evals.value if evals else 0,
        "evals_skipped": skipped.value if skipped else 0,
        "cache": scheduler.engine_cache.stats(),
    }
    return summary, latencies


def run_mixed(
    spec: str,
    seed: int,
    fair_share: bool = True,
    warm: bool = True,
    workers: int = 2,
    queue_cap: int = 12,
) -> dict:
    """Open-loop Poisson replay; returns latency/shed/throughput summary."""
    metrics = MetricsRegistry()
    scheduler = RunScheduler(
        engine_cache=EngineCache(enabled=warm, metrics=metrics),
        metrics=metrics,
        queue_cap=queue_cap,
        fair_share=fair_share,
    )
    schedule = arrival_schedule(spec, seed)
    runs = []
    started = time.perf_counter()
    with ServicePool(scheduler, workers=workers):
        for at, clause_index in schedule:
            delay = at - (time.perf_counter() - started)
            if delay > 0:
                time.sleep(delay)
            runs.append(
                scheduler.submit(mixed_request(len(runs), clause_index, seed))
            )
        assert scheduler.wait_idle(timeout=600), "mixed scenario never went idle"
    makespan = time.perf_counter() - started
    per_tenant: Dict[str, dict] = {}
    all_latencies: List[float] = []
    for tenant in TENANTS:
        mine = [r for r in runs if r.request.tenant == tenant]
        done = [(r.finished_s - r.arrival_s) * 1e3 for r in mine if r.state == DONE]
        all_latencies.extend(done)
        per_tenant[tenant] = {
            "requests": len(mine),
            "completed": len(done),
            "shed": sum(1 for r in mine if r.state == SHED),
            "p50_ms": round(percentile(done, 50), 3),
            "p99_ms": round(percentile(done, 99), 3),
        }
    shed = sum(1 for r in runs if r.state == SHED)
    evals = metrics.counters.get("evals")
    return {
        "fair_share": fair_share,
        "warm_cache": warm,
        "workers": workers,
        "queue_cap": queue_cap,
        "requests": len(runs),
        "completed": sum(1 for r in runs if r.state == DONE),
        "shed": shed,
        "shed_rate": round(shed / len(runs), 4) if runs else 0.0,
        "p50_ms": round(percentile(all_latencies, 50), 3),
        "p99_ms": round(percentile(all_latencies, 99), 3),
        "makespan_s": round(makespan, 3),
        "evals_per_sec": round((evals.value if evals else 0) / makespan, 1),
        "tenants": per_tenant,
    }


def run_determinism(seed: int, n_requests: int = 6, workers: int = 3) -> dict:
    """Assert serial vs concurrent canonical traces are byte-identical."""

    def traces(concurrent: bool):
        scheduler = RunScheduler(metrics=MetricsRegistry(), queue_cap=n_requests + 1)
        runs = [
            scheduler.submit(
                PlanRequest(
                    domain="hanoi", size=5, seed=seed + (i % 3), budget=20, population=30
                )
            )
            for i in range(n_requests)
        ]
        if concurrent:
            with ServicePool(scheduler, workers=workers):
                assert scheduler.wait_idle(timeout=300)
        else:
            scheduler.drain()
        assert all(r.state == DONE for r in runs)
        return [r.canonical_trace() for r in runs]

    serial = traces(concurrent=False)
    concurrent = traces(concurrent=True)
    assert serial == concurrent, "serial vs concurrent canonical traces diverged"
    return {
        "requests": n_requests,
        "workers": workers,
        "events_compared": sum(len(t) for t in serial),
        "identical": True,
    }


def run_thread_scaling(
    seed: int, n_requests: int, workers_grid: Tuple[int, ...] = (1, 2, 4)
) -> dict:
    """Saturated vector-request batch across worker counts.

    Every cell replays the identical batch (``vector=True``, distinct
    seeds so the warm cache cannot interfere — the vector path is
    stateless anyway) and reports sustained evals/sec over the batch
    makespan plus the scaling ratio against the one-worker cell.
    """
    cells: Dict[str, dict] = {}
    base_eps: Optional[float] = None
    for workers in workers_grid:
        metrics = MetricsRegistry()
        scheduler = RunScheduler(metrics=metrics, queue_cap=n_requests + 1)
        runs = [
            scheduler.submit(
                PlanRequest(
                    domain="hanoi",
                    size=6,
                    seed=seed + i,
                    budget=12,
                    population=40,
                    vector=True,
                )
            )
            for i in range(n_requests)
        ]
        started = time.perf_counter()
        with ServicePool(scheduler, workers=workers, idle_wait=5.0):
            assert scheduler.wait_idle(timeout=600), "scaling cell stalled"
        makespan = time.perf_counter() - started
        assert all(r.state == DONE for r in runs), [r.error for r in runs]
        evals = metrics.counters.get("evals")
        eps = round((evals.value if evals else 0) / makespan, 1)
        if workers == workers_grid[0]:
            base_eps = eps
        cells[f"numpy-w{workers}"] = {
            "resolved_backend": "numpy",
            "workers": workers,
            "requests": n_requests,
            "makespan_s": round(makespan, 3),
            "evals_per_sec": eps,
            "scaling_vs_w1": round(eps / base_eps, 2) if base_eps else None,
        }
    return {
        "workers_grid": list(workers_grid),
        "cells": cells,
    }


def run_bench(quick: bool = False, full: bool = False, seed: int = BENCH_SEED) -> dict:
    """All scenarios; asserts the warm-speedup and determinism criteria."""
    if quick:
        repeat_n, distinct, scaling_n = 12, 3, 6
        spec = "arrival:rate=20,n=10;arrival:rate=20,n=10;arrival:rate=60,n=25"
    elif full:
        repeat_n, distinct, scaling_n = 200, 8, 60
        spec = "arrival:rate=40,n=400;arrival:rate=40,n=400;arrival:rate=120,n=1200"
    else:
        repeat_n, distinct, scaling_n = 40, 4, 16
        spec = "arrival:rate=30,n=60;arrival:rate=30,n=60;arrival:rate=90,n=180"

    cold, _ = run_repeat(warm=False, n_requests=repeat_n, distinct_seeds=distinct, seed=seed)
    warm, _ = run_repeat(warm=True, n_requests=repeat_n, distinct_seeds=distinct, seed=seed)
    speedup = round(cold["p50_ms"] / warm["p50_ms"], 2) if warm["p50_ms"] else 0.0
    assert speedup >= 1.5, (
        f"warm cache p50 speedup {speedup}x < 1.5x "
        f"(cold {cold['p50_ms']}ms, warm {warm['p50_ms']}ms)"
    )

    mixed_fair = run_mixed(spec, seed, fair_share=True, warm=True)
    mixed_nofair = run_mixed(spec, seed, fair_share=False, warm=True)
    mixed_cold = run_mixed(spec, seed, fair_share=True, warm=False)
    determinism = run_determinism(seed)
    thread_scaling = run_thread_scaling(seed, scaling_n)

    return {
        "bench": "service",
        "seed": seed,
        "quick": quick,
        "full": full,
        "repeat": {"cold": cold, "warm": warm, "warm_speedup_p50": speedup},
        "mixed": {
            "arrival_spec": spec,
            "fair_share": mixed_fair,
            "fair_share_off": mixed_nofair,
            "cold_cache": mixed_cold,
        },
        "determinism": determinism,
        "thread_scaling": thread_scaling,
    }


def main(argv=None) -> int:
    """Run the harness and write ``benchmarks/results/BENCH_service.json``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--quick", action="store_true", help="CI smoke size (dozens of requests)"
    )
    scale.add_argument(
        "--full", action="store_true", help="thousands of requests (the paper-scale replay)"
    )
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick, full=args.full, seed=args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_service.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    repeat = report["repeat"]
    mixed = report["mixed"]
    print(
        f"repeat: warm p50 {repeat['warm']['p50_ms']}ms vs cold "
        f"{repeat['cold']['p50_ms']}ms ({repeat['warm_speedup_p50']}x)"
    )
    fair = mixed["fair_share"]
    print(
        f"mixed:  {fair['completed']}/{fair['requests']} completed, "
        f"shed rate {fair['shed_rate']}, p99 {fair['p99_ms']}ms, "
        f"{fair['evals_per_sec']} evals/s sustained"
    )
    print(
        f"determinism: {report['determinism']['events_compared']} events "
        f"byte-identical serial vs concurrent"
    )
    scaling = report["thread_scaling"]
    for key, cell in scaling["cells"].items():
        print(
            f"scaling: {key:<10} [{cell['resolved_backend']}] "
            f"{cell['evals_per_sec']} evals/s "
            f"({cell['scaling_vs_w1']}x vs 1 worker)"
        )
    return 0


# -- pytest-benchmark hook -----------------------------------------------------


def test_warm_service_slice(benchmark):
    """One warm scheduling slice (submit + drain) under the bench timer."""
    metrics = MetricsRegistry()
    scheduler = RunScheduler(metrics=metrics, queue_cap=64, slice_gens=4)
    # Warm the engine pool with one throwaway request first.
    scheduler.submit(PlanRequest(domain="hanoi", size=5, seed=1, budget=8, population=30))
    scheduler.drain()

    def one_request():
        scheduler.submit(PlanRequest(domain="hanoi", size=5, seed=1, budget=8, population=30))
        scheduler.drain()

    benchmark(one_request)


if __name__ == "__main__":
    raise SystemExit(main())
