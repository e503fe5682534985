"""Population-buffer ablation bench: what the batched generation step buys.

Runs the same Hanoi-7 GA (same seed, same trajectory — asserted) under the
evaluation variants of DESIGN.md §11:

- ``serial-object``   — the serial path with the list-of-Individual
  generation step (``batched=False``);
- ``serial-batched``  — the structure-of-arrays generation step
  (``batched=True``) on the serial evaluator;
- ``pool-object``     — the process pool driven through its list API (the
  Individuals are packed into a buffer and published through shared
  memory);
- ``pool-batched-shm``— batched generation step + zero-copy shared-memory
  dispatch (workers receive row ranges, return packed fitness arrays in
  place);
- ``serial-vector``   — whole-population vectorised decode over the domain
  kernel's int tables (``vector_decode=True``, DESIGN.md §12);
- ``pool-vector-shm`` — vectorised decode inside shm pool workers.

The object-path variants pin ``vector_decode=False`` so the ablation keeps
isolating one axis at a time (the auto-probe would otherwise silently take
the vector path).  Every row records the decode ``backend`` that ran.

Per variant the run is warmed for a few generations, then measured with a
fresh metrics registry.  Headline numbers: ``evals_per_sec`` (the ``evals``
counter over the ``eval_batch`` timer) and ``generation_step_s`` (the
``selection`` + ``variation`` timers — the breeding work the batched engine
vectorises).  The batched engine replays the object path's RNG draws
exactly, so every variant must produce the identical trajectory *and* the
identical best plan; the bench asserts both.  A second section runs the
4×4 sliding tile — the domain where the object decode engine's caches are
GC-bound (see BENCH_decode.json) — object engine vs vector decode.
Results go to ``benchmarks/results/BENCH_popbuffer.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_popbuffer.py [--quick]

Also exposes one pytest-benchmark case (a warm batched generation) so the
file participates in the microbench suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.exp.defaults import DECODE_BENCH_SEED
from repro.core import GAConfig, GARun, ProcessPoolEvaluator, SerialEvaluator, make_rng
from repro.domains import HanoiDomain, SlidingTileDomain
from repro.obs import MetricsRegistry

RESULTS_DIR = Path(__file__).parent / "results"

VARIANTS = (
    "serial-object",
    "serial-batched",
    "pool-object",
    "pool-batched-shm",
    "serial-vector",
    "pool-vector-shm",
)

COUNTER_KEYS = (
    "evals_skipped",
    "batched_generations",
    "shm_bytes_published",
    "dispatch_bytes_saved",
    "vector_rows",
    "vector_genes",
    "genes_reused",
)


def make_config(quick: bool) -> GAConfig:
    """The measured problem: Hanoi-7 at the paper's genome scale."""
    return GAConfig(
        population_size=30 if quick else 100,
        generations=10_000,
        max_len=635,
        init_length=127,
        stop_on_goal=False,
    )


def pool_processes() -> int:
    return max(2, min(4, os.cpu_count() or 2))


def variant_backend(variant: str) -> str:
    """The decode path a variant measures."""
    return "numpy" if "vector" in variant else "engine"


def build_run(domain, config: GAConfig, seed: int, variant: str) -> GARun:
    vector = "vector" in variant
    batched = vector or "batched" in variant
    cfg = config.replace(batched=batched, vector_decode=vector)
    if variant.startswith("pool"):
        evaluator = ProcessPoolEvaluator(processes=pool_processes())
    else:
        evaluator = SerialEvaluator()
    return GARun(domain, cfg, make_rng(seed), evaluator=evaluator)


def measure_variant(domain, config: GAConfig, seed: int, variant: str,
                    warmup: int, measured: int):
    """Run warmup + measured generations; return (row, trajectory, best ops)."""
    run = build_run(domain, config, seed, variant)
    try:
        for _ in range(warmup):
            run.step()
        # Fresh registry for the measured window only: warm-cache steady
        # state is the regime both engines are built for.
        metrics = MetricsRegistry()
        run.metrics = metrics
        run.evaluator.bind_observability(run.tracer, metrics, scope="")
        t0 = time.perf_counter()
        for _ in range(measured):
            run.step()
        wall = time.perf_counter() - t0
    finally:
        run.evaluator.close()
    evals = metrics.counters["evals"].value
    batch_s = metrics.timers["eval_batch"].total
    step_s = metrics.timers["selection"].total + metrics.timers["variation"].total
    row = {
        "variant": variant,
        "backend": variant_backend(variant),
        "evals": evals,
        "eval_batch_s": round(batch_s, 6),
        "generation_step_s": round(step_s, 6),
        "wall_s": round(wall, 6),
        "evals_per_sec": round(evals / batch_s, 1) if batch_s else None,
    }
    for key in COUNTER_KEYS:
        counter = metrics.counters.get(key)
        if counter is not None and counter.value:
            row[key] = counter.value
    trajectory = [
        (g.generation, g.best_total, g.mean_total) for g in run.history.generations
    ]
    best_ops = run.best.decoded.operations if run.best.decoded is not None else None
    return row, trajectory, best_ops


def run_tile4(quick: bool, seed: int) -> dict:
    """Object engine vs vector decode on the 4×4 tile (warm evals/sec).

    This is the domain where the object engine's retained caches are
    GC-bound (DESIGN.md §9's caveat); the vector path decodes against int
    tables with no tracked Python objects, so it is the regime the kernel
    ABI was built for.
    """
    warmup, measured = (1, 3) if quick else (3, 8)
    config = GAConfig(
        population_size=30 if quick else 100,
        generations=10_000,
        max_len=512,
        init_length=128,
        stop_on_goal=False,
    )
    rows = {}
    trajectories = {}
    for variant in ("serial-batched", "serial-vector"):
        row, trajectory, _ = measure_variant(
            SlidingTileDomain(4), config, seed, variant, warmup, measured
        )
        rows[variant] = row
        trajectories[variant] = trajectory
        print(f"[tile4]  {variant:<18} {row['evals_per_sec']} evals/s "
              f"({row['backend']})")
    assert trajectories["serial-vector"] == trajectories["serial-batched"], (
        "tile4 serial-vector diverged from the object engine"
    )
    obj = rows["serial-batched"]
    for variant in rows:
        eps = rows[variant]["evals_per_sec"]
        rows[variant]["speedup_vs_baseline"] = (
            round(eps / obj["evals_per_sec"], 2)
            if obj["evals_per_sec"] and eps else None
        )
    return {
        "population_size": config.population_size,
        "max_len": config.max_len,
        "variants": rows,
        "trajectory_identical": True,
        "vector_speedup_vs_engine": rows["serial-vector"]["speedup_vs_baseline"],
    }


def run_bench(quick: bool = False, seed: int = DECODE_BENCH_SEED) -> dict:
    warmup, measured = (1, 3) if quick else (3, 8)
    domain = HanoiDomain(7)
    config = make_config(quick)
    rows = {}
    trajectories = {}
    best_plans = {}
    for variant in VARIANTS:
        row, trajectory, best_ops = measure_variant(
            domain, config, seed, variant, warmup, measured
        )
        rows[variant] = row
        trajectories[variant] = trajectory
        best_plans[variant] = best_ops
        print(f"[hanoi7] {variant:<18} {row['evals_per_sec']} evals/s "
              f"(generation step {row['generation_step_s']}s)")
    # The engine's contract: the ablation changes speed, never results —
    # per-generation statistics *and* the best plan itself.
    for variant in VARIANTS[1:]:
        assert trajectories[variant] == trajectories["serial-object"], (
            f"{variant} diverged from the serial-object trajectory"
        )
        assert best_plans[variant] == best_plans["serial-object"], (
            f"{variant} found a different best plan"
        )
    serial_base = rows["serial-object"]
    pool_base = rows["pool-object"]
    for variant in VARIANTS:
        eps = rows[variant]["evals_per_sec"]
        base = pool_base if variant.startswith("pool") else serial_base
        rows[variant]["speedup_vs_baseline"] = (
            round(eps / base["evals_per_sec"], 2)
            if base["evals_per_sec"] and eps else None
        )
    step_base = serial_base["generation_step_s"]
    step_batched = rows["serial-batched"]["generation_step_s"]
    return {
        "bench": "popbuffer ablation",
        "quick": quick,
        "seed": seed,
        "processes": pool_processes(),
        "warmup_generations": warmup,
        "measured_generations": measured,
        "population_size": config.population_size,
        "max_len": config.max_len,
        "notes": (
            "serial variants isolate the batched generation step (selection "
            "+ variation on the arrays); pool variants isolate the same step "
            "over the one shared-memory transport; vector variants swap the object "
            "decode engine for the whole-population kernel-table decode. "
            "Speedups are within-transport: serial-* over serial-object, "
            "pool-* over pool-object. The tile4 section pits the vector "
            "decoder against the object engine on the domain where the "
            "engine's caches are GC-bound."
        ),
        "variants": rows,
        "trajectory_identical": True,
        "generation_step_speedup": (
            round(step_base / step_batched, 2) if step_batched else None
        ),
        "tile4": run_tile4(quick, seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small population / few generations (CI smoke)",
    )
    parser.add_argument("--seed", type=int, default=DECODE_BENCH_SEED)
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick, seed=args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_popbuffer.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    shm = report["variants"]["pool-batched-shm"]
    print(
        f"hanoi7: batched+shm pool {shm['evals_per_sec']} evals/s, "
        f"{shm['speedup_vs_baseline']}x over the list-API pool; "
        f"batched generation step {report['generation_step_speedup']}x "
        f"over the object path"
    )
    vec = report["variants"]["serial-vector"]
    tile = report["tile4"]
    print(
        f"hanoi7: vector decode {vec['evals_per_sec']} evals/s serial "
        f"({vec['speedup_vs_baseline']}x over serial-object); "
        f"tile4: vector {tile['vector_speedup_vs_engine']}x over the object "
        f"decode engine"
    )
    return 0


# -- pytest-benchmark hook -----------------------------------------------------


def test_batched_warm_generation_hanoi7(benchmark):
    """One warm batched GA generation on Hanoi-7 under the bench timer."""
    domain = HanoiDomain(7)
    cfg = GAConfig(
        population_size=30, generations=10_000, max_len=635, init_length=127,
        stop_on_goal=False,
    )
    run = GARun(domain, cfg, make_rng(5))
    run.step()  # warm the transition tables
    benchmark(run.step)


if __name__ == "__main__":
    sys.exit(main())
