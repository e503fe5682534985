"""Decode-engine ablation bench: what each memoisation layer buys.

Runs the same GA (same seed, same trajectory — asserted) under three
decode-engine variants on warm caches, with the vector decode pinned off
so the engine is what runs:

- ``transitions``    — layer 1 alone (transition memoisation);
- ``transitions+prefix`` — layers 1+2 (dirty-prefix re-decode);
- ``full``           — layers 1+2+3 (adds phenotype dedup / fitness memo).

Per variant the run is warmed for a few generations, then measured with a
fresh metrics registry; the headline number is ``evals_per_sec`` (the
``evals`` counter over the ``eval_batch`` timer, i.e. individuals scored
per second of evaluation wall time).  Results go to
``benchmarks/results/BENCH_decode.json`` with per-variant speedups over
``transitions`` recorded in the same file.

Usage::

    PYTHONPATH=src python benchmarks/bench_decode_engine.py [--quick]

Also exposes one pytest-benchmark case (a warm engine generation) so the
file participates in the microbench suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.exp.defaults import DECODE_BENCH_SEED
from repro.core import DecodeEngine, GAConfig, GARun, SerialEvaluator, make_rng
from repro.domains import HanoiDomain, SlidingTileDomain
from repro.obs import MetricsRegistry

RESULTS_DIR = Path(__file__).parent / "results"

VARIANTS = ("transitions", "transitions+prefix", "full")

COUNTER_KEYS = (
    "decode_cache_hits",
    "decode_cache_misses",
    "transition_cache_hits",
    "transition_cache_misses",
    "evals_skipped",
    "genes_reused",
    "decode_fallbacks",
)


def make_domains(quick: bool):
    """The two measured problems: Hanoi-7 and the 4×4 sliding tile."""
    if quick:
        return {
            "hanoi7": (HanoiDomain(7), GAConfig(
                population_size=30, generations=10_000, max_len=635,
                init_length=127, stop_on_goal=False,
            )),
            "tile4": (SlidingTileDomain(4), GAConfig(
                population_size=30, generations=10_000, max_len=512,
                init_length=128, stop_on_goal=False,
            )),
        }
    return {
        "hanoi7": (HanoiDomain(7), GAConfig(
            population_size=100, generations=10_000, max_len=635,
            init_length=127, stop_on_goal=False,
        )),
        "tile4": (SlidingTileDomain(4), GAConfig(
            population_size=100, generations=10_000, max_len=512,
            init_length=128, stop_on_goal=False,
        )),
    }


def build_evaluator(variant: str) -> SerialEvaluator:
    if variant == "transitions":
        return SerialEvaluator(engine=DecodeEngine(prefix=False, dedup=False))
    if variant == "transitions+prefix":
        return SerialEvaluator(engine=DecodeEngine(dedup=False))
    return SerialEvaluator()


def measure_variant(domain, config: GAConfig, seed: int, variant: str,
                    warmup: int, measured: int):
    """Run warmup + measured generations; return (row, trajectory)."""
    cfg = config.replace(vector_decode=False)
    run = GARun(domain, cfg, make_rng(seed), evaluator=build_evaluator(variant))
    for _ in range(warmup):
        run.step()
    # Fresh registry for the measured window only: warm-cache steady state,
    # not cold-start cost, is what the engine is for.
    metrics = MetricsRegistry()
    run.evaluator.bind_observability(run.tracer, metrics, scope="")
    t0 = time.perf_counter()
    for _ in range(measured):
        run.step()
    wall = time.perf_counter() - t0
    evals = metrics.counters["evals"].value
    batch_s = metrics.timers["eval_batch"].total
    row = {
        "variant": variant,
        "evals": evals,
        "eval_batch_s": round(batch_s, 6),
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
    return row, trajectory


def run_bench(quick: bool = False, seed: int = DECODE_BENCH_SEED) -> dict:
    warmup, measured = (2, 3) if quick else (4, 8)
    report = {
        "bench": "decode-engine ablation",
        "quick": quick,
        "seed": seed,
        "warmup_generations": warmup,
        "measured_generations": measured,
        "notes": (
            "hanoi7 (6 ops, heavy state revisits) is the engine's target "
            "workload: warm transition tables replace all domain calls. "
            "tile4's random walks rarely revisit states, so hits are scarce "
            "and the retained tables add cyclic-GC scan pressure; with gc "
            "disabled the engine also wins on tile4 (measured separately), "
            "so the shortfall there is collector overhead, not compute."
        ),
        "domains": {},
    }
    for name, (domain, config) in make_domains(quick).items():
        rows = {}
        trajectories = {}
        for variant in VARIANTS:
            row, trajectory = measure_variant(
                domain, config, seed, variant, warmup, measured
            )
            rows[variant] = row
            trajectories[variant] = trajectory
            print(f"[{name}] {variant:<20} {row['evals_per_sec']} evals/s")
        # The engine's contract: the ablation changes speed, never results.
        for variant in VARIANTS[1:]:
            assert trajectories[variant] == trajectories["transitions"], (
                f"{name}/{variant} diverged from the transitions trajectory"
            )
        base = rows["transitions"]["evals_per_sec"]
        for variant in VARIANTS:
            eps = rows[variant]["evals_per_sec"]
            rows[variant]["speedup_vs_transitions"] = (
                round(eps / base, 2) if base and eps else None
            )
        report["domains"][name] = {
            "population_size": config.population_size,
            "max_len": config.max_len,
            "variants": rows,
            "trajectory_identical": True,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small populations / few generations (CI smoke)",
    )
    parser.add_argument("--seed", type=int, default=DECODE_BENCH_SEED)
    args = parser.parse_args(argv)
    report = run_bench(quick=args.quick, seed=args.seed)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_decode.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    for name, entry in report["domains"].items():
        full = entry["variants"]["full"]
        print(
            f"{name}: full engine {full['evals_per_sec']} evals/s, "
            f"{full['speedup_vs_transitions']}x over transitions alone"
        )
    return 0


# -- pytest-benchmark hook -----------------------------------------------------


def test_engine_warm_generation_hanoi7(benchmark):
    """One warm full-engine GA generation on Hanoi-7 under the bench timer."""
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
