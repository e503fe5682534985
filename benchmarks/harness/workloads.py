"""The seven benchmark workloads, driven through the program's public entry points.

Every workload function takes ``(seed, budget, recorder)`` and returns an
:class:`Outcome`: per-operation latency samples, the workload's own
metrics, the measured wall time, every set-up time, attempted/failed
operation counts with the checks behind them, and what actually ran.  Given a
:class:`~spans.SpanRecorder`, the same inputs run with layer spans and a
metrics registry attached, and ``Outcome.layers`` holds the per-layer
numbers.

Inputs come only from the seed: operation ``i`` of a run uses
:func:`derive_seed` ``(seed, i)``.  A time budget decides how many
operations run; a traced replay passes the untraced run's operation count
instead, so both halves of a ``--trace`` run see identical inputs.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import measure
from spans import SpanRecorder, planner_wraps

NPROC = os.cpu_count() or 1

#: The checkout's sources, and the run artifacts (trace files, traced
#: servers' span dumps; ignored by git).
SRC = Path(__file__).resolve().parents[2] / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Generations every GA episode runs before its first measured one.
WARMUP_GENS = 3

#: Set-ups timed per run where set-up is not already repeated per operation.
SETUP_REPEATS = 3

#: Open-loop latency objective: a request meets it with a ``result`` at most
#: this long after it was due.
SLO_MS = 100.0


@dataclass
class Budget:
    """Run until *seconds* have passed, or exactly *ops* operations."""

    seconds: Optional[float] = None
    ops: Optional[int] = None

    def more(self, done: int, elapsed: float) -> bool:
        if self.ops is not None:
            return done < self.ops
        return elapsed < self.seconds


@dataclass
class Outcome:
    """Everything one workload run measured and checked.

    ``latencies_ms`` holds one sample per operation (a generation, a
    race's time to first solution, a request, a replanning round).
    ``named`` holds the workload's own metrics (``evals_per_s``,
    ``ttfs_s_p50``, ``sim_rate``, ...).  ``window_s`` is the measured wall
    time the per-layer shares divide by; ``busy_s`` is the time spent
    inside measured operations, which the traced and untraced halves of a
    ``--trace`` run compare.  ``peak_rss_mb`` is the high-water RSS of the
    processes doing the work; where memory grows with the number of
    operations it is read after a fixed amount of work, so a faster program
    that fits more operations into the run does not read as a larger one.
    """

    latencies_ms: List[float] = field(default_factory=list)
    window_s: float = 0.0
    busy_s: float = 0.0
    setups_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, str] = field(default_factory=dict)
    resolved: Dict[str, object] = field(default_factory=dict)
    named: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    peak_rss_mb: Optional[float] = None

    def check(self, name: str, problems: List[str], ops: int = 1) -> None:
        """Record a check; each failing one marks *ops* operations failed."""
        if problems:
            self.checks[name] = "; ".join(problems[:3])
            self.failed += ops
        else:
            self.checks.setdefault(name, "ok")


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water RSS of this process (``RUSAGE_SELF``) or of the largest
    child it waited for (``RUSAGE_CHILDREN``: pool workers, and the import
    probes of ``setup_s``, which import less than this process)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def derive_seed(seed: int, i: int) -> int:
    """Seed of operation *i*: the run seed itself for the first, then
    independent SeedSequence children (the repository's seeding idiom)."""
    if i == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0]) % (2**31)


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def shm_entries() -> set:
    """Names present in /dev/shm (empty where unsupported)."""
    shm = Path("/dev/shm")
    return {p.name for p in shm.iterdir()} if shm.is_dir() else set()


def shm_mapped_by_others() -> set:
    """/dev/shm names some live process other than this one maps."""
    names = set()
    own = str(os.getpid())
    for maps in Path("/proc").glob("[0-9]*/maps"):
        if maps.parent.name == own:
            continue
        try:
            text = maps.read_text(encoding="utf-8", errors="replace")
        except OSError:  # the process ended or is not ours to read
            continue
        for line in text.splitlines():
            at = line.find("/dev/shm/")
            if at >= 0:
                names.add(line[at + len("/dev/shm/"):].split(" ", 1)[0])
    return names


class LeakCheck:
    """Threads, child processes and /dev/shm entries a run left behind.

    A /dev/shm entry is leaked when it appeared during the run and no
    other live process maps it: a segment another program on the machine
    is still using is not this run's (a leaked child process of the run
    is reported on its own).
    """

    def __init__(self) -> None:
        self.threads = threading.active_count()
        self.shm = shm_entries()

    def problems(self) -> List[str]:
        out = []
        if threading.active_count() > self.threads:
            out.append(f"{threading.active_count() - self.threads} leaked threads")
        children = multiprocessing.active_children()
        if children:
            out.append(f"{len(children)} leaked child processes")
        new = shm_entries() - self.shm
        leaked = new - shm_mapped_by_others() if new else new
        if leaked:
            out.append(f"leaked /dev/shm entries {sorted(leaked)}")
        return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class _Registry:
    """Measured-window deltas of a ``MetricsRegistry``'s counters and timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.timers: Dict[str, List[float]] = {}
        self._mark = None

    @staticmethod
    def _read(registry):
        return (
            {n: c.value for n, c in registry.counters.items()},
            {n: (t.total, t.count) for n, t in registry.timers.items()},
        )

    def start(self, registry) -> None:
        self._mark = self._read(registry) if registry is not None else None

    def stop(self, registry) -> None:
        if registry is None or self._mark is None:
            return
        (c0, t0), (c1, t1) = self._mark, self._read(registry)
        for name, value in c1.items():
            self.counters[name] = self.counters.get(name, 0) + value - c0.get(name, 0)
        for name, (total, count) in t1.items():
            base_total, base_count = t0.get(name, (0.0, 0))
            acc = self.timers.setdefault(name, [0.0, 0])
            acc[0] += total - base_total
            acc[1] += count - base_count

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def timer_total_ms(self, name: str) -> float:
        return self.timers.get(name, [0.0, 0])[0] * 1e3

    def timer_mean_ms(self, name: str) -> float:
        total, count = self.timers.get(name, [0.0, 0])
        return total * 1e3 / count if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _coverage(recorder: SpanRecorder, window_ms: float, thread: int) -> float:
    """Share of the measured wall covered by top-level spans on *thread*."""
    top = [s for s in recorder.measured() if s.parent is None and s.thread == thread]
    return _ratio(sum(s.ms for s in top), window_ms)


# -- GA episodes ---------------------------------------------------------------


@dataclass(frozen=True)
class GAShape:
    """One GA workload: problem, population, episode length, evaluator."""

    domain: str
    population: int
    max_len: int
    init_length: int
    episode: int
    digest_gens: int
    pool: bool


#: Episodes are short so a run spans several independent trajectories:
#: per-generation cost follows genome lengths, which drift apart by seed.
#: An episode's warm-up and measured generations cover ``digest_gens``.
GA_SHAPES = {
    "hanoi7-serial": GAShape("hanoi7", 200, 635, 127, 40, 23, False),
    "tile4-serial": GAShape("tile4", 200, 512, 128, 10, 13, False),
    "hanoi7-pool": GAShape("hanoi7", 200, 635, 127, 25, 23, True),
}

#: sha256 of episode 0's first ``digest_gens`` (generation, best_total,
#: mean_total) rows at the default seed.  The pooled workload shares the
#: serial pin: the evaluator must never change the trajectory.
PINNED_GA = {
    ("hanoi7", 20030422): "1ad326b1cecbd2d33a22670a46ff203693cfaba6afecba55221f923a7fc3c68c",
    ("tile4", 20030422): "c8f1d0561df4e85b10b79c959f376d840f640b8ec7cb57f3d599cee8bc90fcd2",
}

#: Rows of the final population re-checked against the reference decoder.
CHECK_ROWS = 16

#: Episodes every GA run completes; memory is read after the last of them
#: (after one, the pool's seed-to-seed spread was twice as wide).
RSS_EPISODES = 2


def _ga_domain(name: str):
    from repro.domains import HanoiDomain, SlidingTileDomain

    return HanoiDomain(7) if name == "hanoi7" else SlidingTileDomain(4)


def _ga_config(shape: GAShape):
    from repro.core import GAConfig

    return GAConfig(
        population_size=shape.population,
        generations=1_000_000,
        max_len=shape.max_len,
        init_length=shape.init_length,
        stop_on_goal=False,
    )


def trajectory_digest(history, generations: int) -> str:
    """Digest of the first *generations* per-generation statistics rows."""
    rows = [[g.generation, g.best_total, g.mean_total] for g in history.generations[:generations]]
    return _digest(rows)


def check_genome(domain, start_state, config, genes, fitness, plan=None) -> List[str]:
    """Compare one reported evaluation with the reference decoder.

    The genome is decoded again by :func:`repro.core.decode` (the paper's
    decode rule, DESIGN §1) and scored by a fresh fitness function; the
    reported fitness must match exactly.  A reported plan must equal the
    reference plan and replay from the start state to the reported goal
    fitness.
    """
    from repro.core import FitnessFunction, decode

    ref = decode(genes, domain, start_state, truncate_at_goal=config.truncate_at_goal)
    ref_fit = FitnessFunction(domain, config.goal_weight, config.cost_weight)(ref)
    problems = []
    got = (fitness.goal, fitness.cost, fitness.total, fitness.goal_reached)
    want = (ref_fit.goal, ref_fit.cost, ref_fit.total, ref_fit.goal_reached)
    if got != want:
        problems.append(f"fitness {got} differs from the reference {want}")
    if plan is not None:
        if tuple(plan) != ref.operations:
            problems.append("plan differs from the reference decode")
        try:
            final = domain.execute(plan)
        except ValueError as exc:
            problems.append(f"plan does not replay: {exc}")
        else:
            if float(domain.goal_fitness(final)) != fitness.goal:
                problems.append("replayed plan misses its reported goal fitness")
    return problems


def verify_run(run, sample: bool = True) -> List[str]:
    """Check a GA run's best individual and, with *sample*, ``CHECK_ROWS``
    rows of its next generation, which the run's evaluator scores first."""
    best = run.best
    plan = best.decoded.operations if best.decoded is not None else None
    problems = check_genome(run.domain, run.start_state, run.config, best.genes, best.fitness, plan)
    if not sample:
        return problems
    buffer = run.buffer
    run.evaluator.evaluate_buffer(buffer, run.context)
    for row in range(0, buffer.n, max(1, buffer.n // CHECK_ROWS)):
        problems += check_genome(
            run.domain, run.start_state, run.config, buffer.view(row), buffer.fitness_result(row)
        )
    return problems


def _decode_path(run) -> str:
    """Which decoder evaluated the population, read off the public objects."""
    evaluator = run.evaluator
    vector = getattr(evaluator, "vector_counters", lambda: None)()
    engine = getattr(evaluator, "engine_counters", lambda: None)()
    if vector is not None:
        return "vector"
    if engine is not None:
        return "engine"
    if hasattr(evaluator, "processes"):
        resolve = getattr(run.context, "resolve_vector", lambda: False)
        where = "vector" if resolve() else ("engine" if run.context.memoize else "naive")
        return f"{where} (in workers)"
    return "naive"


def run_ga(name: str, seed: int, budget: Budget, recorder: Optional[SpanRecorder] = None) -> Outcome:
    """GA episodes of ``WARMUP_GENS`` + ``episode`` measured generations.

    Each episode is a fresh domain, evaluator and :class:`GARun` seeded
    from ``derive_seed(seed, episode)``, and its set-up is one set-up
    sample.  Episodes always run whole, past the budget if need be: the
    cost of a generation grows through an episode as genomes evolve, so a
    run that ended inside one would add a varying number of its cheap
    early generations to the sample.  Every episode builds a fresh domain
    kernel that the process keeps alive, so memory is read at a fixed
    amount of work: after ``RSS_EPISODES`` episodes, which every run
    completes, and before the checks that follow them.
    """
    from repro.core import GARun, ProcessPoolEvaluator, SerialEvaluator, make_rng
    from repro.obs import MetricsRegistry

    shape = GA_SHAPES[name]
    config = _ga_config(shape)
    out = Outcome()
    registry = MetricsRegistry() if recorder is not None else None
    deltas = _Registry()
    leaks = LeakCheck()
    started = time.perf_counter()
    episode = 0
    while episode < RSS_EPISODES or budget.more(out.attempted, time.perf_counter() - started):
        t0 = time.perf_counter()
        evaluator = ProcessPoolEvaluator(processes=NPROC) if shape.pool else SerialEvaluator()
        try:
            run = GARun(_ga_domain(shape.domain), config, make_rng(derive_seed(seed, episode)),
                        evaluator=evaluator, metrics=registry)
            for _ in range(WARMUP_GENS):
                run.step()
            out.setups_s.append(time.perf_counter() - t0)
            deltas.start(registry)
            w0, w0_ns = time.perf_counter(), time.perf_counter_ns()
            for _ in range(shape.episode):
                t = time.perf_counter()
                run.step()
                out.latencies_ms.append((time.perf_counter() - t) * 1e3)
            out.attempted += shape.episode
            wall = time.perf_counter() - w0
            if recorder is not None:
                recorder.windows.append((w0_ns, time.perf_counter_ns()))
            deltas.stop(registry)
            out.window_s += wall
            out.busy_s += wall
            if episode == RSS_EPISODES - 1:
                own_mb = rss_mb()
            if episode == 0:
                out.resolved = {
                    "evaluator": type(evaluator).__name__,
                    "processes": getattr(evaluator, "processes", 1),
                    "decode_path": _decode_path(run),
                }
                digest = trajectory_digest(run.history, shape.digest_gens)
            # Until memory is read only the best plan is checked: scoring a
            # sample of the next generation grows the kept-alive kernel by a
            # seed-dependent generation's worth, which the reading would count.
            out.check("reference-decode", verify_run(run, sample=episode >= RSS_EPISODES - 1),
                      ops=shape.episode)
        finally:
            evaluator.close()
        if episode == RSS_EPISODES - 1:
            # Pool workers are counted once they are closed.
            out.peak_rss_mb = max(own_mb, rss_mb(resource.RUSAGE_CHILDREN))
        episode += 1
    # After the memory reading: the pool's check may re-run the episode serially.
    out.check("trajectory", _check_trajectory(shape, seed, digest), ops=shape.episode)
    out.check("leaks", leaks.problems())
    out.notes["episodes"] = episode
    out.named["evals_per_s"] = _ratio(out.attempted * shape.population, out.window_s)
    if recorder is not None:
        out.layers = _ga_layers(recorder, deltas, out.window_s * 1e3)
    return out


def _check_trajectory(shape: GAShape, seed: int, got: str) -> List[str]:
    """Episode 0's trajectory digest *got* against the pin, or (pooled,
    unpinned seed) against a serial re-run of the same generations."""
    want = PINNED_GA.get((shape.domain, seed))
    if not want and shape.pool:
        from repro.core import GARun, SerialEvaluator, make_rng

        with SerialEvaluator() as serial:
            ref = GARun(_ga_domain(shape.domain), _ga_config(shape), make_rng(seed), evaluator=serial)
            for _ in range(shape.digest_gens):
                ref.step()
        want = trajectory_digest(ref.history, shape.digest_gens)
    if want and got != want:
        return [f"trajectory digest {got[:12]} != expected {want[:12]}"]
    return []


def _ga_layers(recorder: SpanRecorder, reg: _Registry, window_ms: float) -> Dict[str, float]:
    steps = recorder.measured(recorder.named(":GARun.step"))
    self_ms = recorder.self_ms()
    evals = reg.counter("evals")
    th, tm = reg.counter("transition_cache_hits"), reg.counter("transition_cache_misses")
    layers = recorder.layer_metrics(window_ms)
    layers.update({
        "trace.coverage": _coverage(recorder, window_ms, threading.get_ident()),
        "core.ga.step_ms": _median(s.ms for s in steps),
        "core.ga.self_share": _ratio(sum(self_ms[s.id] for s in steps), window_ms),
        "core.decode.evals_skipped_ratio": _ratio(reg.counter("evals_skipped"), evals),
        "core.decode.genes_reused_per_eval": _ratio(reg.counter("genes_reused"), evals),
        "core.decode.transition_hit_rate": _ratio(th, th + tm),
        "core.decode.vector_rows_share": _ratio(reg.counter("vector_rows"), evals),
        "core.parallel.dispatch_share": _ratio(reg.timer_total_ms("dispatch"), window_ms),
        "core.parallel.worker_eval_ms": reg.timer_mean_ms("worker_eval"),
        "core.parallel.shm_bytes_per_gen": _ratio(reg.counter("shm_bytes_published"), len(steps)),
    })
    return layers


# -- portfolio race --------------------------------------------------------------


#: Hanoi size of the race.  A Hanoi-7 race takes about a second, so a run
#: held a dozen races and its median moved by 0.18 from seed to seed;
#: Hanoi-6 races take a fifth of that.
PORTFOLIO_DISKS = 6


def _portfolio_spec():
    """The island race: two GA islands (random and state-aware crossover)
    and a greedy best-first search island, pop 50, migration every 5 ticks;
    genomes at the paper's scale for the size (init 2^n - 1, max 5x)."""
    from repro.core import GAConfig, PortfolioSpec, StrategySpec

    optimal = 2 ** PORTFOLIO_DISKS - 1
    cfg = GAConfig(population_size=50, generations=40, max_len=5 * optimal, init_length=optimal)
    return PortfolioSpec(
        strategies=(
            StrategySpec(kind="ga", ga=cfg),
            StrategySpec(kind="ga", ga=cfg.replace(crossover="state-aware")),
            StrategySpec(kind="search", algorithm="gbfs", expansions_per_tick=64),
        ),
        interval=5,
        migration_size=5,
    )


def run_portfolio_races(seed: int, budget: Budget, recorder: Optional[SpanRecorder] = None) -> Outcome:
    """Hanoi portfolio races, one per derived seed; latency is the time to
    the first valid plan."""
    from repro.core import make_rng, run_portfolio
    from repro.domains import HanoiDomain

    out = Outcome()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        domain, spec = HanoiDomain(PORTFOLIO_DISKS), _portfolio_spec()
        out.setups_s.append(time.perf_counter() - t0)
    leaks = LeakCheck()
    winners: Dict[str, int] = {}
    races: List[Tuple[int, int, float]] = []
    started = time.perf_counter()
    while out.attempted == 0 or budget.more(out.attempted, time.perf_counter() - started):
        rng = make_rng(derive_seed(seed, out.attempted))
        t0, t0_ns = time.perf_counter(), time.perf_counter_ns()
        if recorder is None:
            result = run_portfolio(domain, spec, rng)
        else:
            result = recorder.call(run_portfolio, (domain, spec, rng), {},
                                   "core.portfolio:run_portfolio", "core.portfolio")
        wall = time.perf_counter() - t0
        out.attempted += 1
        out.window_s += wall
        out.busy_s += wall
        problems = []
        if not result.solved:
            problems.append(f"race {out.attempted - 1} unsolved")
        else:
            out.latencies_ms.append(result.first_solution_wall_s * 1e3)
            races.append((t0_ns, time.perf_counter_ns(), result.first_solution_wall_s * 1e3))
            winner = result.strategies[result.winner]
            winners[winner] = winners.get(winner, 0) + 1
            try:
                if not domain.is_goal(domain.execute(result.plan)):
                    problems.append("winning plan does not reach the goal")
            except ValueError as exc:
                problems.append(f"winning plan does not replay: {exc}")
        out.check("solved-and-replays", problems)
        out.check("leaks", leaks.problems())
    out.peak_rss_mb = rss_mb()  # the races' threads share this process
    out.named["ttfs_s_p50"] = measure.percentile(out.latencies_ms, 50) / 1e3 if races else 0.0
    out.named["solve_rate"] = _ratio(len(races), out.attempted)
    out.resolved = {"mode": "threaded", "strategies": list(spec.strategies[i].label for i in range(3)),
                    "winners": winners}
    if recorder is not None:
        recorder.windows.append((races[0][0], races[-1][1]) if races else (0, 0))
        out.layers = _portfolio_layers(recorder, races, out.window_s * 1e3)
    return out


def _union_ms(intervals: List[Tuple[int, int]]) -> float:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total / 1e6


def _portfolio_layers(recorder: SpanRecorder, races, window_ms: float) -> Dict[str, float]:
    main = threading.get_ident()
    island = [s for s in recorder.spans if s.thread != main and s.parent is None]
    search = recorder.named(":ResumableSearch.step")
    ga_busy, steps, overlap, unattributed = [], [], [], []
    for start, end, ttfs in races:
        mine = [s for s in island if start <= s.start < end]
        busy = sum(s.ms for s in mine)
        ga_busy.append(sum(s.ms for s in mine if not s.name.endswith("ResumableSearch.step")))
        steps.append(sum(1 for s in search if start <= s.start < end))
        overlap.append(_ratio(busy, ttfs))
        wall = (end - start) / 1e6
        unattributed.append(_ratio(wall - _union_ms([(s.start, s.end) for s in mine]), wall))
    return {
        "trace.coverage": _coverage(recorder, window_ms, main),
        "core.portfolio.ga_busy_ms": _median(ga_busy),
        "planning.search.resumable.step_ms": _ratio(sum(s.ms for s in search), len(search)),
        "planning.search.resumable.steps": _median(steps),
        "core.portfolio.overlap": _median(overlap),
        "core.portfolio.unattributed_share": _median(unattributed),
    }


# -- planning service --------------------------------------------------------------

#: (tenant, arrivals per second, request shapes (domain, size, budget,
#: population) cycled per tenant): two light tenants and a flooder that
#: offers as much as both together.  10 req/s is about a third of the
#: measured capacity: Poisson bursts and the flooder still queue and
#: exercise fair share, while a shed (a failed request) needs 12 requests
#: waiting, which takes the host running about three times as slowly as
#: usual.  Nearer saturation, queueing amplifies drift in the host's speed:
#: at 20 req/s the median's spread across seeds reached 0.2-0.33.
MIXED_TENANTS = (
    ("alpha", 2.5, (("hanoi", 4, 15, 30), ("hanoi", 5, 12, 30))),
    ("bravo", 2.5, (("tile", 3, 12, 30), ("hanoi", 4, 15, 30))),
    ("flood", 5.0, (("hanoi", 4, 10, 30),)),
)
MIXED_RATE = sum(rate for _, rate, _ in MIXED_TENANTS)
MIXED_QUEUE_CAP = 12

#: Distinct request seeds service-repeat cycles through; enough that the
#: run's median does not hinge on which few seeds happen to solve early.
REPEAT_SEEDS = 8

#: Measured service-repeat requests after which the server's memory is
#: read (a shorter run reads it at its end).
REPEAT_RSS_AFTER = 100


def _repeat_frame(seed: int) -> dict:
    return {"type": "plan", "domain": "hanoi", "size": 6, "seed": seed,
            "population": 40, "budget": 15}


def _answer(reply: dict) -> tuple:
    return (reply.get("solved"), tuple(reply.get("plan", ())), reply.get("goal_fitness"),
            reply.get("generations"))


def _reply_problems(call) -> List[str]:
    reply = call.reply
    if reply is None:
        return ["no reply"]
    if reply["type"] != "result":
        return [f"{reply['type']}: {reply.get('reason') or reply.get('message')}"]
    if reply.get("timed_out") or len(reply.get("plan", ())) != reply.get("plan_length"):
        return ["timed-out or malformed result"]
    return []


def _serve(recorder: Optional[SpanRecorder], queue_cap: int, out: Outcome,
           warm: Optional[Callable] = None):
    """Set the server up ``SETUP_REPEATS`` times and keep the last one.

    Each set-up is a fresh process until its first ``pong`` plus, when
    given, ``warm(port)`` (the requests that warm its caches); every one
    is a set-up sample.  Returns the server, the traced server's span
    file (``None`` untraced) and each set-up's ``warm`` result.
    """
    from service_load import Server

    server, warmed = None, []
    for k in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        last = k == SETUP_REPEATS - 1
        traced = OUT / f"server-{os.getpid()}.json" if recorder is not None and last else None
        t0 = time.perf_counter()
        server = Server.start(SRC, queue_cap=queue_cap, workers=NPROC, traced_out=traced)
        try:
            if warm is not None:
                warmed.append(warm(server.port))
        except BaseException:
            server.stop()
            raise
        out.setups_s.append(time.perf_counter() - t0)
    return server, traced, warmed


def _finish_service(server, traced, recorder, out: Outcome, calls, window_ms: float, windows) -> None:
    import service_load

    stats = asyncio.run(service_load.stats(server.port))
    code = server.stop()
    out.check("server-exit", [] if code == 0 else [f"server exited with {code}"])
    out.resolved = {"server": "repro serve" if traced is None else "serve_traced.py",
                    "workers": NPROC, "cache": stats.get("cache", {}).get("enabled")}
    out.notes["server_counters"] = stats.get("counters", {})
    if recorder is None:
        return
    with open(traced, encoding="utf-8") as fh:
        payload = json.load(fh)
    traced.unlink()
    server_spans = SpanRecorder.from_records("service", "server", payload["spans"])
    server_spans.metrics = {m: (kind, set(names)) for m, (kind, names) in payload["metric_spans"].items()}
    server_spans.windows = windows
    recorder.skipped += payload["skipped"]
    recorder.spans += server_spans.spans
    counters = payload["metrics"]["counters"]
    results = [c for c in calls if c.reply is not None and c.reply["type"] == "result"]
    slices = server_spans.measured([s for s in server_spans.named(":RunScheduler.step") if s.units])
    admits = server_spans.measured(server_spans.named(":RunScheduler.submit"))
    layers = server_spans.layer_metrics(window_ms)
    layers.update({
        "trace.coverage": _ratio(sum(c.reply["seconds"] * 1e3 for c in results),
                                 sum(c.service_ms for c in results)),
        "service.scheduler.queue_wait_ms_p50": payload["queue_wait_ms"]["p50"],
        "service.scheduler.queue_wait_ms_p90": payload["queue_wait_ms"]["p90"],
        "service.scheduler.slice_ms_p50": _median(s.ms for s in slices),
        "service.scheduler.slices_per_request": _ratio(counters.get("service_slices", 0),
                                                       counters.get("service_completed", 0)),
        "service.scheduler.admit_us": _ratio(sum(s.ms for s in admits) * 1e3, len(admits)),
        "service.cache.warm_hit_rate": _ratio(
            counters.get("service_warm_hits", 0),
            counters.get("service_warm_hits", 0) + counters.get("service_warm_misses", 0)),
        "service.server.overhead_ms_p50": _median(c.service_ms - c.reply["seconds"] * 1e3 for c in results),
        "core.ga.step_ms": _median(s.ms for s in server_spans.measured(server_spans.named(":GARun.step"))),
    })
    for call in calls:
        if call.reply is not None and call.reply["type"] == "shed":
            key = f"service.scheduler.shed.{call.reply.get('reason')}"
            layers[key] = layers.get(key, 0) + 1
    out.layers = layers


def run_service_repeat(seed: int, budget: Budget, recorder: Optional[SpanRecorder] = None) -> Outcome:
    """Closed loop, one connection: hanoi-6 requests cycling
    ``REPEAT_SEEDS`` seeds against a warm engine cache."""
    import service_load

    out = Outcome()
    seeds = [derive_seed(seed, i + 1) for i in range(REPEAT_SEEDS)]
    leaks = LeakCheck()

    def warm(port: int) -> list:
        frames = (_repeat_frame(s) for s in seeds)
        return asyncio.run(service_load.closed_loop(port, frames, lambda n, e: True))

    server, traced, warmed = _serve(recorder, 8, out, warm)
    # Same seed, same answer: across server processes and, below, across
    # every repeat of a request against the warm cache.
    answers = {c.frame["seed"]: _answer(c.reply) for c in warmed[-1] if not _reply_problems(c)}
    out.check("warm-up", [p for c in warmed[-1] for p in _reply_problems(c)])
    out.check("same-answer-per-process", [
        f"seed {c.frame['seed']} answered differently by another server process"
        for first in warmed[:-1] for c in first
        if c.reply is not None and answers.get(c.frame["seed"]) != _answer(c.reply)
    ])

    def keep_going(done: int, elapsed: float) -> bool:
        # The server's memory grows with the requests it has served, so it
        # is read at a fixed count, not after however many fit the run.
        if done == REPEAT_RSS_AFTER:
            out.peak_rss_mb = max(rss_mb(), server.peak_rss_mb())
        # Whole cycles through the seeds, whose requests cost differently.
        return done % REPEAT_SEEDS != 0 or budget.more(done, elapsed)

    try:
        frames = (_repeat_frame(s) for s in itertools.cycle(seeds))
        w0 = time.perf_counter()
        calls = asyncio.run(service_load.closed_loop(server.port, frames, keep_going))
        w1 = time.perf_counter()
        if out.peak_rss_mb is None:  # a run too short to reach the reading
            out.peak_rss_mb = max(rss_mb(), server.peak_rss_mb())
    except BaseException:
        server.stop()
        raise
    windows = [(int(w0 * 1e9), int(w1 * 1e9))]
    for call in calls:
        problems = _reply_problems(call)
        if not problems and answers.get(call.frame["seed"]) != _answer(call.reply):
            problems = [f"seed {call.frame['seed']} answered differently than its first request"]
        out.check("replies", problems)
    out.attempted = len(calls)
    out.latencies_ms = [c.service_ms for c in calls if c.reply is not None and c.reply["type"] == "result"]
    out.window_s = w1 - w0
    out.busy_s = sum(c.service_ms for c in calls if c.reply is not None) / 1e3
    _finish_service(server, traced, recorder, out, calls, out.window_s * 1e3, windows)
    out.check("leaks", leaks.problems())
    return out


def mixed_schedule(seed: int, budget: Budget) -> list:
    """Open-loop Poisson arrivals per tenant, merged by due time.

    A run sends a fixed number of requests, *ops* or, under a time budget,
    as many as the offered rate gives in that time, and each tenant sends
    its rate's share of them.  So the work, and the server's memory, which
    grows with it (most with the tile requests), does not depend on how
    many arrivals a seed draws for each tenant.  Every request has its own
    seed.
    """
    import numpy as np

    count = budget.ops if budget.ops is not None else max(1, round(MIXED_RATE * budget.seconds))
    sizes = [round(count * rate / MIXED_RATE) for _, rate, _ in MIXED_TENANTS[:-1]]
    sizes.append(count - sum(sizes))
    arrivals = []
    for k, ((tenant, rate, shapes), n) in enumerate(zip(MIXED_TENANTS, sizes)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        t = 0.0
        for i in range(n):
            t += float(rng.exponential(1.0 / rate))
            domain, size, gens, population = shapes[i % len(shapes)]
            arrivals.append((t, k, i, {"type": "plan", "domain": domain, "size": size, "tenant": tenant,
                                       "budget": gens, "population": population}))
    arrivals.sort(key=lambda a: (a[0], a[1]))
    for n, (_, _, _, frame) in enumerate(arrivals):
        frame["seed"] = derive_seed(seed, n + 1)
    return [(due, frame) for due, _, _, frame in arrivals]


def run_service_mixed(seed: int, budget: Budget, recorder: Optional[SpanRecorder] = None) -> Outcome:
    """Open loop at a fixed 10 req/s over two connections, three tenants,
    queue cap 12; latency is timed from each request's due time."""
    import service_load

    out = Outcome()
    leaks = LeakCheck()
    server, traced, _ = _serve(recorder, MIXED_QUEUE_CAP, out)
    try:
        schedule = mixed_schedule(seed, budget)
        # Due times start shortly after now, leaving room to connect.
        t0 = time.perf_counter() + 0.05
        calls = [service_load.Call(frame, due=t0 + due) for due, frame in schedule]
        sent = asyncio.run(service_load.open_loop(server.port, calls, connections=NPROC))
        end = max((c.replied for c in calls if c.reply is not None), default=time.perf_counter())
        out.peak_rss_mb = max(rss_mb(), server.peak_rss_mb())
    except BaseException:
        server.stop()
        raise
    windows = [(int(t0 * 1e9), int(end * 1e9))]
    for call in calls:
        out.check("replies", _reply_problems(call))
    out.check("frames", [f"{sent['malformed']} malformed frames"] if sent["malformed"] else [])
    ok = [c for c in calls if c.reply is not None and c.reply["type"] == "result"]
    met = [c for c in ok if c.latency_ms <= SLO_MS]
    out.attempted = len(calls)
    out.latencies_ms = [c.latency_ms for c in ok]
    out.window_s = end - t0
    out.busy_s = sum(c.service_ms for c in calls if c.reply is not None) / 1e3
    out.named["slo_attain"] = _ratio(len(met), len(calls))
    lags = sent["lags_ms"]
    out.notes["loadgen_lag_ms_p99"] = measure.percentile(lags, 99) if lags else 0.0
    out.notes["loadgen_valid"] = out.notes["loadgen_lag_ms_p99"] <= 20.0
    _finish_service(server, traced, recorder, out, calls, out.window_s * 1e3, windows)
    if recorder is not None:
        out.layers["loadgen.lag_ms_p99"] = out.notes["loadgen_lag_ms_p99"]
    out.check("leaks", leaks.problems())
    return out


# -- soak ----------------------------------------------------------------------------

SOAK_ARRIVAL = "arrival:rate=0.3"
SOAK_FAULTS = "machine-crash:p=0.9,restore=40;partition:p=0.6"
SOAK_HORIZON = 120.0
#: A two-site grid of two machines each, with two-stage workflows.  On the
#: default three-site, three-stage grid greedy planning sometimes spends
#: seconds proving one request unplannable, and a run's cost then depends
#: on whether its seeds drew such a request far more than on the code.
SOAK_GRID = dict(n_sites=2, machines_per_site=2, n_stages=2)

#: sha256 of the first episode's canonical event log at the default seed.
PINNED_SOAK = {3: "c9689b78549fb09d37e6118986dbb92a6b8b586b6921a14da5e03e080ff55b90"}


def _soak_config(seed: int):
    """The soak of one episode.  The per-request wall-clock replan budget
    is unlimited: the controller skips its GA rung once a request has
    spent the budget, so with a finite one the event log (which the check
    pins) could depend on how fast the host ran."""
    from repro.soak import SoakConfig

    return SoakConfig(duration=SOAK_HORIZON, arrival=SOAK_ARRIVAL, faults=SOAK_FAULTS,
                      seed=seed, replan_budget_s=math.inf, **SOAK_GRID)


def run_soak_churn(seed: int, budget: Budget, recorder: Optional[SpanRecorder] = None) -> Outcome:
    """Back-to-back 120 simulated-second soaks under heavy churn; latency is
    one replanning round."""
    from repro.obs import MetricsRegistry
    from repro.soak import SoakRunner

    out = Outcome()
    completed = shed = 0
    first_log = None
    leaks = LeakCheck()
    started = time.perf_counter()
    while out.attempted == 0 or budget.more(out.attempted, time.perf_counter() - started):
        t0 = time.perf_counter()
        runner = SoakRunner(_soak_config(derive_seed(seed, out.attempted)), metrics=MetricsRegistry())
        t1, t1_ns = time.perf_counter(), time.perf_counter_ns()
        report = runner.run()
        wall = time.perf_counter() - t1
        if recorder is not None:
            recorder.windows.append((t1_ns, time.perf_counter_ns()))
        out.setups_s.append(t1 - t0)
        out.window_s += wall
        out.busy_s += wall
        out.latencies_ms += [s * 1e3 for s in report.replan_latencies]
        completed += report.completed
        shed += report.shed
        if first_log is None:
            first_log = report.event_log()
            out.peak_rss_mb = rss_mb()
        out.attempted += 1
    want = PINNED_SOAK.get(seed)
    got = hashlib.sha256(first_log.encode()).hexdigest()
    if not want:
        want = hashlib.sha256(SoakRunner(_soak_config(seed)).run().event_log().encode()).hexdigest()
    out.check("event-log", [] if got == want else [f"event log {got[:12]} != {want[:12]}"],
              ops=out.attempted)
    out.check("leaks", leaks.problems())
    out.named["replan_ms_p50"] = measure.percentile(out.latencies_ms, 50) if out.latencies_ms else 0.0
    out.named["sim_rate"] = _ratio(out.attempted * SOAK_HORIZON, out.window_s)
    out.named["goal_completion"] = _ratio(completed, completed + shed)
    out.resolved = {"replan_mode": runner.config.replan_mode, "episodes": out.attempted}
    if recorder is not None:
        out.layers = _soak_layers(recorder, out.window_s * 1e3)
    return out


def _soak_layers(recorder: SpanRecorder, window_ms: float) -> Dict[str, float]:
    replans = recorder.measured(recorder.named(":ReplanController.replan"))
    reuse = recorder.measured(recorder.named(":reuse_plan"))
    runs = recorder.measured(recorder.named(":SoakRunner.run"))
    self_ms = recorder.self_ms()
    layers = recorder.layer_metrics(window_ms)
    layers.update({
        "trace.coverage": _coverage(recorder, window_ms, threading.get_ident()),
        "soak.controller.replan_call_ms_p50": _median(s.ms for s in replans),
        "planning.reuse.reuse_plan_ms": _ratio(sum(s.ms for s in reuse), len(reuse)),
        "soak.runner.self_share": _ratio(sum(self_ms[s.id] for s in runs), window_ms),
    })
    for rung in ("repair", "ga-warm", "ga-cold", "greedy", "none"):
        layers[f"soak.controller.rung_share.{rung}"] = _ratio(
            sum(1 for s in replans if s.label == rung), len(replans))
    return layers


# -- registry ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named workload: its default seed, modules and run function."""

    name: str
    default_seed: int
    modules: Tuple[str, ...]
    run: Callable[..., Outcome]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hanoi7-serial", 20030422, ("repro.core", "repro.domains"),
                 functools.partial(run_ga, "hanoi7-serial")),
        Workload("tile4-serial", 20030422, ("repro.core", "repro.domains"),
                 functools.partial(run_ga, "tile4-serial")),
        Workload("hanoi7-pool", 20030422, ("repro.core", "repro.domains"),
                 functools.partial(run_ga, "hanoi7-pool")),
        Workload("portfolio-ttfs", 11, ("repro.core", "repro.domains"), run_portfolio_races),
        Workload("service-repeat", 20030422, ("repro.service.protocol",), run_service_repeat),
        Workload("service-mixed", 20030422, ("repro.service.protocol",), run_service_mixed),
        Workload("soak-churn", 3, ("repro.soak",), run_soak_churn),
    )
}


def tracer_for(workload: str, run_id: str) -> SpanRecorder:
    """A recorder with the in-process planner layers installed."""
    return SpanRecorder(workload, run_id).install(planner_wraps())
