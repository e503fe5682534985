"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``solve``       — run the GA planner on a built-in domain
- ``table``       — regenerate one of the paper's tables (1–5)
- ``figure``      — print one of the paper's figures (1–3)
- ``ablation``    — run one of the ablation studies
- ``compare``     — the planner comparison table
- ``schedule``    — the scheduling-heuristics table
- ``chaos``       — grid workflow under an injected fault plan
- ``exp``         — declarative experiment sweeps: list/run/status/resume/report

Examples
--------
::

    python -m repro solve hanoi --size 5 --phases 5 --seed 7
    python -m repro solve hanoi --faults "worker-crash:n=2;eval-timeout:s=10" --seed 7
    python -m repro table 2 --scaled
    python -m repro figure 3
    python -m repro ablation fitness
    python -m repro chaos --faults "machine-crash:p=0.5;slowdown:factor=4" --seed 11
    python -m repro exp run table2-hanoi --trials 5 --workers 4
    python -m repro exp resume table2-hanoi
    python -m repro exp report --check
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.exp.defaults import ABLATION_SEEDS, PAPER_SEED, SCHEDULE_SEED
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, observe

if TYPE_CHECKING:
    from repro.analysis.experiments import ExperimentScale

__all__ = ["main"]


def _scale(args) -> ExperimentScale:
    from repro.analysis.experiments import ExperimentScale

    return ExperimentScale.scaled() if args.scaled else ExperimentScale.paper()


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags, available on every subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="PATH", default=None,
        help="append a JSONL event trace (generations, phases, evaluation batches, ...)",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="collect counters/timers and print a metrics summary at exit",
    )
    group.add_argument(
        "--progress", action="store_true",
        help="human-readable per-generation progress on stderr",
    )


def _build_observability(args):
    """Tracer + metrics registry from the parsed obs flags."""
    from repro.obs.sinks import JsonlSink, ProgressSink

    sinks = []
    if getattr(args, "trace", None):
        sinks.append(JsonlSink(args.trace))
    if getattr(args, "progress", False):
        sinks.append(ProgressSink(sys.stderr))
    tracer = Tracer(sinks) if sinks else None
    metrics = MetricsRegistry() if getattr(args, "metrics", False) else None
    return tracer, metrics


def _resolve_solve_evaluator(args):
    """Evaluator spec for ``solve``: fault flags imply a resilient wrapper.

    ``--faults``, ``--retry-max`` and ``--eval-timeout`` all require the
    recovery ladder, so any of them upgrades the evaluator to a
    :class:`~repro.core.resilient.ResilientEvaluator` factory carrying the
    fault plan's worker crash/hang injections.
    """
    wants_faults = (
        args.faults is not None
        or args.retry_max is not None
        or args.eval_timeout is not None
    )
    if args.evaluator != "resilient" and not wants_faults:
        return args.evaluator

    from repro.core import ResiliencePolicy, ResilientEvaluator
    from repro.faults import FaultInjector

    plan = FaultInjector(args.faults, seed=args.seed).plan() if args.faults else None
    timeout = args.eval_timeout
    if timeout is None and plan is not None:
        timeout = plan.eval_timeout_s
    policy_kwargs = {"eval_timeout_s": timeout}
    if args.retry_max is not None:
        policy_kwargs["retry_max"] = args.retry_max
    policy = ResiliencePolicy(**policy_kwargs)

    def factory():
        return ResilientEvaluator(
            policy=policy,
            worker_crashes=plan.worker_crashes if plan else 0,
            worker_hangs=plan.worker_hangs if plan else 0,
            hang_seconds=plan.hang_seconds if plan else 30.0,
        )

    return factory


def _cmd_solve(args) -> int:
    from repro.core import GAConfig, GAPlanner
    from repro.domains import registry as domain_registry
    from repro.domains.hanoi import hanoi_max_len
    from repro.domains.sliding_tile import tile_init_length, tile_max_len

    domain = domain_registry.create(args.domain, args.size)
    if args.domain == "hanoi":
        max_len = hanoi_max_len(args.size)
        init = domain.optimal_length
    elif args.domain == "tile":
        max_len = tile_max_len(args.size)
        init = tile_init_length(args.size)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.domain)
    config = GAConfig(
        population_size=args.population,
        generations=args.generations,
        crossover=args.crossover,
        max_len=max_len,
        init_length=init,
    )
    mode = args.mode
    multiphase = None
    islands = None
    portfolio = None
    if mode == "islands":
        islands = args.islands
    elif mode == "portfolio":
        from repro.core import parse_portfolio

        portfolio = parse_portfolio(
            args.portfolio, config, grace_ms=args.grace_ms
        )
    elif mode == "multiphase" or (mode is None and args.phases > 1):
        multiphase = args.phases
    outcome = GAPlanner(
        domain,
        config,
        multiphase=multiphase,
        seed=args.seed,
        islands=islands,
        portfolio=portfolio,
        mode=mode,
        evaluator=_resolve_solve_evaluator(args),
    ).solve()
    print(f"domain:        {domain.name}")
    print(f"mode:          {outcome.mode}")
    print(f"solved:        {outcome.solved}")
    print(f"goal fitness:  {outcome.goal_fitness:.3f}")
    print(f"plan length:   {outcome.plan_length}")
    print(f"generations:   {outcome.generations}")
    print(f"wall clock:    {outcome.elapsed_seconds:.1f}s")
    if outcome.mode == "portfolio":
        result = outcome.detail
        winner = (
            f"island {result.winner} ({result.strategies[result.winner]})"
            if result.winner is not None
            else "none"
        )
        print(f"winner:        {winner}")
        print(f"cancelled:     {result.cancelled} island(s)")
        if result.first_solution_wall_s is not None:
            print(f"first solve:   {result.first_solution_wall_s:.3f}s")
        print(f"incumbents:    {len(outcome.incumbents)}")
    if args.show_plan and outcome.plan:
        print("plan:")
        for op in outcome.plan:
            print(f"  {op}")
    return 0 if outcome.solved else 1


def _cmd_table(args) -> int:
    from repro.analysis.experiments import hanoi_parameter_table, tile_parameter_table

    scale = _scale(args)
    parameter_tables = {1: hanoi_parameter_table, 3: tile_parameter_table}
    if args.number in parameter_tables:
        print(parameter_tables[args.number](scale))
        return 0
    import dataclasses

    from repro.exp import get_spec, run_inline

    name = {2: "table2-hanoi", 4: "table4-tile", 5: "table5-phases"}[args.number]
    result = run_inline(
        dataclasses.replace(get_spec(name), base_seed=args.seed), scale=scale
    )
    print(result.table())
    for record in result.failed:
        print(f"trial {record.trial_id} failed: {record.error}", file=sys.stderr)
    return 1 if result.failed else 0


def _cmd_figure(args) -> int:
    from repro.analysis.render import figure1, figure2, figure3

    print({1: figure1, 2: figure2, 3: figure3}[args.number]())
    return 0


def _cmd_ablation(args) -> int:
    from repro.analysis.ablations import (
        crossover_on_hanoi,
        maxlen_sweep,
        phase_budget_sweep,
        seeding_study,
        weight_sweep,
    )
    from repro.analysis.fitness_study import fitness_accuracy_study

    scale = _scale(args)
    seed = args.seed if args.seed is not None else ABLATION_SEEDS[args.study]
    drivers = {
        "crossover": lambda: crossover_on_hanoi(scale, seed=seed),
        "maxlen": lambda: maxlen_sweep(scale, seed=seed),
        "weights": lambda: weight_sweep(scale, seed=seed),
        "phases": lambda: phase_budget_sweep(scale, seed=seed),
        "seeding": lambda: seeding_study(scale, seed=seed),
        "fitness": lambda: fitness_accuracy_study(scale, seed=seed),
    }
    print(drivers[args.study]())
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.baselines import planner_comparison

    print(planner_comparison(_scale(args), seed=args.seed))
    return 0


def _cmd_schedule(args) -> int:
    from repro.analysis import Table
    from repro.core import make_rng
    from repro.scheduling import (
        ETCParams,
        GASchedulerConfig,
        HEURISTICS,
        ga_schedule,
        generate_etc,
        makespan,
    )

    table = Table(
        f"Scheduling heuristics ({args.tasks} tasks, {args.machines} machines)",
        ["Consistency", *HEURISTICS.keys(), "GA"],
    )
    for consistency in ("consistent", "semi", "inconsistent"):
        etc = generate_etc(
            ETCParams(n_tasks=args.tasks, n_machines=args.machines, consistency=consistency),
            make_rng(args.seed),
        )
        spans = [round(makespan(etc, h(etc)), 1) for h in HEURISTICS.values()]
        ga = ga_schedule(etc, GASchedulerConfig(generations=args.generations), make_rng(args.seed + 1))
        table.add_row(consistency, *spans, round(ga.makespan, 1))
    print(table)
    return 0


def _cmd_chaos(args) -> int:
    from repro.faults import FaultInjector
    from repro.grid import (
        CoordinationService,
        ga_grid_planner,
        greedy_grid_planner,
        imaging_pipeline,
    )
    from repro.obs.tracer import default_metrics, default_tracer

    onto, domain = imaging_pipeline()
    injector = FaultInjector(args.faults, seed=args.seed)
    plan = injector.plan(topology=onto.topology, horizon=args.horizon)
    print(plan.describe())

    # Counters are the whole point of this command, so collect them even
    # without --metrics (reusing the ambient pair when observe() set one up).
    tracer = default_tracer() if default_tracer().enabled else Tracer([])
    metrics = default_metrics() or MetricsRegistry()
    planner = (
        ga_grid_planner(seed=args.seed) if args.planner == "ga" else greedy_grid_planner()
    )
    service = CoordinationService(
        onto, planner, max_replans=args.max_replans, tracer=tracer, metrics=metrics
    )
    report = service.run(domain, events=plan.grid_events)

    print(f"\nsuccess:         {report.success}")
    print(f"rounds:          {len(report.attempts)}")
    print(f"total makespan:  {report.total_makespan:.1f}s")
    print(f"activities run:  {report.total_activities_run}")
    print("\nfault/recovery counters:")
    for name in ("faults_injected", "retries", "replans", "degradations"):
        print(f"  {name:16s} {metrics.counter(name).value}")
    return 0 if report.success else 1


def _cmd_soak(args) -> int:
    from repro.soak import SoakConfig, run_soak

    config = SoakConfig(
        duration=args.duration,
        arrival=args.arrival,
        faults=args.faults,
        seed=args.seed,
        n_sites=args.sites,
        machines_per_site=args.machines_per_site,
        deadline_factor=args.deadline,
        replan_budget_s=args.replan_budget,
        max_replans=args.max_replans,
    )
    report = run_soak(config)
    if args.show_log:
        print(report.event_log(), end="")
    print(f"duration:         {report.duration:g}s simulated (seed {report.seed})")
    print(f"requests arrived: {report.arrived}")
    print(f"completed:        {report.completed}")
    print(f"shed:             {report.shed}")
    print(f"still in flight:  {report.inflight}")
    print(f"replan rounds:    {report.replans}")
    print(f"completion rate:  {report.completion_rate:.3f}")
    derived = report.metrics_summary.get("derived", {})
    for name in ("replan_latency_p50_ms", "replan_latency_p99_ms"):
        if name in derived:
            print(f"{name}: {derived[name]}")
    return 0 if report.completed + report.inflight > 0 or report.arrived == 0 else 1


def _exp_scale(args) -> ExperimentScale:
    """Scale for ``exp`` commands: flags win, else ``REPRO_FULL`` decides."""
    from repro.analysis.experiments import ExperimentScale, scale_from_env

    if getattr(args, "full", False):
        return ExperimentScale.paper()
    if getattr(args, "scaled", False):
        return ExperimentScale.scaled()
    return scale_from_env()


def _exp_out_dir(args, name: str):
    from pathlib import Path

    from repro.exp import default_out_dir

    return Path(args.out) if getattr(args, "out", None) else default_out_dir(name)


def _cmd_exp_list(args) -> int:
    from repro.exp import list_specs

    scale = _exp_scale(args)
    for spec in list_specs():
        n_cells = len(spec.cells(scale))
        n_trials = spec.trials_for(scale)
        print(f"{spec.name:16s} {spec.title}")
        print(
            f"{'':16s} {n_cells} cells x {n_trials} trials = "
            f"{n_cells * n_trials} runs at {scale.label} scale"
        )
    return 0


def _cmd_exp_run(args, resume: bool = False) -> int:
    from repro.exp import SweepRunner

    runner = SweepRunner(
        args.experiment,
        _exp_out_dir(args, args.experiment),
        scale=_exp_scale(args),
        trials=args.trials,
        workers=args.workers,
    )
    result = runner.run(
        resume=resume or getattr(args, "resume", False),
        limit=getattr(args, "limit", None),
        force=getattr(args, "force", False),
    )
    print(
        f"{result.spec.name}: {len(result.new_records)} trial(s) run, "
        f"{result.skipped} skipped, {len(result.failed)} failed "
        f"-> {runner.records_path}"
    )
    if result.complete:
        print()
        print(result.table())
    else:
        print(f"{result.total - len(result.records)} trial(s) still pending; "
              f"re-run with `repro exp resume {result.spec.name}`")
    return 1 if result.failed else 0


def _cmd_exp_resume(args) -> int:
    return _cmd_exp_run(args, resume=True)


def _cmd_exp_status(args) -> int:
    from repro.exp import get_spec, sweep_status

    spec = get_spec(args.experiment)
    status = sweep_status(
        spec, _exp_out_dir(args, args.experiment),
        scale=_exp_scale(args), trials=args.trials,
    )
    print(f"{spec.name}: {status.done}/{status.total} trials recorded, "
          f"{status.failed} failed, {status.stale} stale")
    print("complete" if status.complete else f"{status.pending} pending")
    return 0 if status.complete else 1


def _cmd_exp_report(args) -> int:
    from pathlib import Path

    from repro.exp import (
        default_out_dir,
        experiment_report,
        get_spec,
        load_records,
        read_manifest,
        spec_names,
        update_experiments_md,
    )
    from repro.exp.records import RECORDS_NAME
    from repro.exp.report import REPORT_NAME
    from repro.exp.runner import scale_from_dict

    names = args.experiments or spec_names()
    reports = {}
    for name in names:
        spec = get_spec(name)
        out_dir = Path(args.out) / name if args.out else default_out_dir(name)
        records_path = out_dir / RECORDS_NAME
        if not records_path.exists():
            if args.experiments:
                print(f"error: no records at {records_path}", file=sys.stderr)
                return 2
            continue
        records, skipped = load_records(records_path)
        if skipped:
            print(f"warning: {name}: skipped {skipped} torn record line(s)",
                  file=sys.stderr)
        manifest = read_manifest(out_dir)
        scale = (
            scale_from_dict(manifest["scale"])
            if manifest and "scale" in manifest
            else _exp_scale(args)
        )
        report = experiment_report(spec, records, scale, manifest)
        reports[spec.doc_section] = report
        report_path = out_dir / REPORT_NAME
        if args.check:
            if not report_path.exists() or report_path.read_text(encoding="utf-8") != report:
                print(f"stale: {report_path}", file=sys.stderr)
                return 1
        else:
            report_path.write_text(report, encoding="utf-8")
            print(f"wrote {report_path}")
    if not reports:
        print("no recorded sweeps found; run `repro exp run <name>` first",
              file=sys.stderr)
        return 2
    stale = update_experiments_md(Path(args.experiments_md), reports, check=args.check)
    if args.check:
        if stale:
            print(f"stale sections in {args.experiments_md}: {', '.join(stale)}",
                  file=sys.stderr)
            return 1
        print(f"{args.experiments_md} is in sync with recorded results")
    elif stale:
        print(f"updated sections in {args.experiments_md}: {', '.join(stale)}")
    else:
        print(f"{args.experiments_md} already up to date")
    return 0


def _cmd_serve(args) -> int:
    from repro.obs import default_metrics, default_tracer
    from repro.service import serve

    tracer = default_tracer()
    serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_cap=args.queue_cap,
        slice_gens=args.slice_gens,
        metrics=default_metrics(),
        tracer=tracer if tracer is not None and tracer.enabled else None,
    )
    return 0


def _cmd_client(args) -> int:
    from repro.service import PlanRequest, ServiceClient

    if args.stats:
        with ServiceClient(host=args.host, port=args.port, timeout=args.timeout) as client:
            stats = client.stats()
        print(f"queues:    {stats['queues']}")
        print(f"running:   {stats['running']}")
        for name, value in stats["counters"].items():
            print(f"{name + ':':<24} {value}")
        for name, value in stats["derived"].items():
            print(f"{name + ':':<24} {value}")
        print(f"cache:     {stats['cache']}")
        memos = stats["cache"]["memos"]
        print(f"memos:     {memos['trajectories']} trajectories, {memos['entries']} entries")
        return 0
    if args.domain is None:
        print("error: a domain argument is required unless --stats is given")
        return 2
    request = PlanRequest(
        domain=args.domain,
        size=args.size,
        tenant=args.tenant,
        seed=args.seed,
        population=args.population,
        budget=args.budget,
        max_len=args.max_len,
        deadline_s=args.deadline,
        mode="portfolio" if args.portfolio else "ga",
        portfolio=args.portfolio,
        stream=args.stream,
        evaluator=args.evaluator,
    )

    def on_frame(frame: dict) -> None:
        kind = frame["type"]
        if kind == "accepted":
            print(f"accepted:      id {frame['id']} (queue depth {frame['queue_depth']})")
        elif kind == "incumbent":
            print(
                f"incumbent:     tick {frame['tick']} goal {frame['goal_fitness']:.3f} "
                f"length {frame['plan_length']} solved {frame['solved']}"
            )
        elif kind == "event" and args.stream:
            event = frame["event"]
            if event.get("kind") == "service-slice":
                print(
                    f"slice:         #{event['slice_index']} "
                    f"(+{event['generations']} generations)"
                )

    with ServiceClient(host=args.host, port=args.port, timeout=args.timeout) as client:
        final = client.plan(request, on_frame=on_frame)
    kind = final["type"]
    if kind == "shed":
        print(f"shed:          {final['reason']}")
        return 2
    if kind == "error":
        print(f"error:         {final['message']}")
        return 2
    print(f"solved:        {final['solved']}")
    print(f"timed out:     {final['timed_out']}")
    print(f"goal fitness:  {final['goal_fitness']:.3f}")
    print(f"plan length:   {final['plan_length']}")
    print(f"generations:   {final['generations']}")
    print(f"slices:        {final['slices']}")
    print(f"warm engine:   {final['warm']}")
    print(f"wall clock:    {final['seconds']:.3f}s")
    if args.show_plan and final["plan"]:
        print("plan:")
        for op in final["plan"]:
            print(f"  {op}")
    return 0 if final["solved"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GA planning for heterogeneous computing (IPPS 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the GA planner on a built-in domain")
    p.add_argument("domain", choices=("hanoi", "tile"))
    p.add_argument("--size", type=int, default=5, help="disks (hanoi) or board edge (tile)")
    p.add_argument("--population", type=int, default=200)
    p.add_argument("--generations", type=int, default=100, help="per phase")
    p.add_argument("--phases", type=int, default=5, help="1 = single-phase")
    p.add_argument("--crossover", choices=("random", "state-aware", "mixed"), default="random")
    p.add_argument("--seed", type=int, default=PAPER_SEED)
    p.add_argument("--show-plan", action="store_true")
    p.add_argument(
        "--mode", choices=("single", "multiphase", "islands", "portfolio"),
        default=None,
        help="run mode (default: multiphase when --phases > 1, else single)",
    )
    p.add_argument("--islands", type=int, default=4, help="island count for --mode islands (a ring of GA islands)")
    p.add_argument(
        "--portfolio", metavar="SPEC", default="ga,ga:state-aware,search:gbfs",
        help="portfolio strategy list for --mode portfolio: comma-separated "
        "ga[:crossover] and search[:algorithm] items",
    )
    p.add_argument(
        "--grace-ms", type=float, default=0.0, metavar="MS",
        help="let losing islands improve the incumbent for MS wall-clock "
        "milliseconds after the first solution before cancellation",
    )
    p.add_argument(
        "--evaluator", choices=("serial", "process", "resilient"), default="serial",
        help="population evaluation strategy (process = worker pool, "
        "resilient = worker pool with retry/degradation ladder)",
    )
    fault_group = p.add_argument_group("fault injection")
    fault_group.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault plan, e.g. 'worker-crash:n=2;eval-timeout:s=10' "
        "(implies --evaluator resilient)",
    )
    fault_group.add_argument(
        "--retry-max", type=int, default=None, metavar="N",
        help="pool retries per evaluation batch before serial fallback",
    )
    fault_group.add_argument(
        "--eval-timeout", type=float, default=None, metavar="S",
        help="per-batch evaluation timeout in seconds",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    p.add_argument("--scaled", action="store_true", help="fast scaled-down parameters")
    p.add_argument("--seed", type=int, default=PAPER_SEED)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("figure", help="print a paper figure")
    p.add_argument("number", type=int, choices=(1, 2, 3))
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("ablation", help="run an ablation study")
    p.add_argument(
        "study",
        choices=("crossover", "maxlen", "weights", "phases", "seeding", "fitness"),
    )
    p.add_argument("--scaled", action="store_true")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: the study's seed from repro.exp.defaults)")
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("compare", help="GA vs classical planners")
    p.add_argument("--scaled", action="store_true")
    p.add_argument("--seed", type=int, default=ABLATION_SEEDS["baselines"])
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("schedule", help="heterogeneous scheduling heuristics")
    p.add_argument("--tasks", type=int, default=128)
    p.add_argument("--machines", type=int, default=8)
    p.add_argument("--generations", type=int, default=100)
    p.add_argument("--seed", type=int, default=SCHEDULE_SEED)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("chaos", help="grid workflow under an injected fault plan")
    p.add_argument(
        "--faults", metavar="SPEC",
        default="machine-crash:p=0.35,restore=20;slowdown:factor=3,p=0.3",
        help="fault spec (see repro.faults.parse_fault_spec)",
    )
    p.add_argument("--seed", type=int, default=3, help="fault-timeline seed")
    p.add_argument("--horizon", type=float, default=60.0, help="fault window in sim seconds")
    p.add_argument("--max-replans", type=int, default=3)
    p.add_argument(
        "--planner", choices=("greedy", "ga"), default="greedy",
        help="replanner used after each fault (ga = the paper's multi-phase GA)",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("soak", help="long-running digital-twin soak under churn")
    p.add_argument(
        "--duration", type=float, default=300.0,
        help="simulated horizon in seconds (default 300)",
    )
    p.add_argument(
        "--arrival", metavar="SPEC", default="arrival:rate=0.05",
        help="arrival clauses, e.g. 'arrival:rate=0.1' (see repro.faults grammar)",
    )
    p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="churn timeline spec, e.g. 'machine-crash:p=0.5,restore=60'",
    )
    p.add_argument(
        "--deadline", type=float, default=4.0, metavar="FACTOR",
        help="deadline = arrival + FACTOR x initial makespan estimate (default 4)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=int, default=3)
    p.add_argument("--machines-per-site", type=int, default=2)
    p.add_argument(
        "--replan-budget", type=float, default=2.0, metavar="S",
        help="per-request wall-clock planning budget gating the GA rung",
    )
    p.add_argument("--max-replans", type=int, default=5)
    p.add_argument(
        "--show-log", action="store_true",
        help="print the canonical deterministic event log before the summary",
    )
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser("serve", help="run the planning service (TCP/JSON-lines)")
    p.add_argument("--host", default="127.0.0.1", help="interface to bind (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=7421, help="TCP port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2, help="worker threads slicing requests")
    p.add_argument(
        "--queue-cap", type=int, default=8, metavar="N",
        help="max queued+running requests before submits are shed (429 analogue)",
    )
    p.add_argument(
        "--slice-gens", type=int, default=4, metavar="G",
        help="generations per scheduling slice (the fair-share tick size)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("client", help="submit one planning request to a running service")
    p.add_argument("domain", nargs="?", default=None,
                   help="registered domain name (see repro.domains.registry)")
    p.add_argument("--size", type=int, default=5, help="domain size argument")
    p.add_argument("--host", default="127.0.0.1", help="service host")
    p.add_argument("--port", type=int, default=7421, help="service port")
    p.add_argument("--tenant", default="default", help="fair-share accounting key")
    p.add_argument("--seed", type=int, default=0, help="GA seed (same seed = same plan)")
    p.add_argument("--population", type=int, default=30)
    p.add_argument("--budget", type=int, default=40, metavar="GENS",
                   help="generation budget for the request")
    p.add_argument("--max-len", type=int, default=None,
                   help="plan-length bound (required for domains without a derived bound)")
    p.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="seconds from arrival before the request is shed (queued) or "
        "returns its best-so-far plan (running)",
    )
    p.add_argument(
        "--portfolio", metavar="SPEC", default=None,
        help="race a portfolio instead of one GA, e.g. 'ga,ga:state-aware,search:gbfs'",
    )
    p.add_argument("--stream", action="store_true",
                   help="print per-slice progress events as they happen")
    p.add_argument(
        "--evaluator", choices=("serial", "resilient"), default="serial",
        help="serial decodes on the warm pair's decoder; resilient adds the retry/degrade ladder",
    )
    p.add_argument("--timeout", type=float, default=60.0, help="socket timeout in seconds")
    p.add_argument("--show-plan", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print the server's live counters instead of planning")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("exp", help="declarative experiment sweeps")
    exp_sub = p.add_subparsers(dest="exp_command", required=True)

    def _exp_scale_flags(sp):
        group = sp.add_mutually_exclusive_group()
        group.add_argument(
            "--full", action="store_true",
            help="paper-scale parameters (default: REPRO_FULL env decides)",
        )
        group.add_argument("--scaled", action="store_true", help="fast scaled-down parameters")

    sp = exp_sub.add_parser("list", help="registered experiments and their grids")
    _exp_scale_flags(sp)
    sp.set_defaults(func=_cmd_exp_list)

    sp = exp_sub.add_parser("run", help="run a sweep, recording JSONL trials")
    sp.add_argument("experiment", help="registered experiment name (see `exp list`)")
    sp.add_argument("--trials", type=int, default=None, help="per-cell trial count override")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="output directory (default benchmarks/results/exp/<name>)")
    sp.add_argument("--workers", type=int, default=1, help="worker processes")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="run at most N trials this invocation")
    sp.add_argument("--resume", action="store_true", help="continue a previous sweep")
    sp.add_argument("--force", action="store_true", help="discard existing records first")
    _exp_scale_flags(sp)
    sp.set_defaults(func=_cmd_exp_run)

    sp = exp_sub.add_parser("resume", help="continue a previously started sweep")
    sp.add_argument("experiment")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--out", default=None, metavar="DIR")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--limit", type=int, default=None, metavar="N")
    _exp_scale_flags(sp)
    sp.set_defaults(func=_cmd_exp_resume)

    sp = exp_sub.add_parser("status", help="progress of a recorded sweep")
    sp.add_argument("experiment")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--out", default=None, metavar="DIR")
    _exp_scale_flags(sp)
    sp.set_defaults(func=_cmd_exp_status)

    sp = exp_sub.add_parser(
        "report", help="regenerate reports + EXPERIMENTS.md from recorded sweeps"
    )
    sp.add_argument("experiments", nargs="*", help="experiment names (default: all recorded)")
    sp.add_argument("--out", default=None, metavar="DIR",
                    help="results root holding <name>/records.jsonl subdirectories")
    sp.add_argument("--experiments-md", default="EXPERIMENTS.md", metavar="PATH",
                    help="Markdown file whose marked sections to regenerate")
    sp.add_argument("--check", action="store_true",
                    help="verify reports are in sync; exit 1 when stale, write nothing")
    _exp_scale_flags(sp)
    sp.set_defaults(func=_cmd_exp_report)

    for subparser in sub.choices.values():
        _add_obs_flags(subparser)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tracer, metrics = _build_observability(args)
    try:
        with observe(tracer=tracer, metrics=metrics):
            code = args.func(args)
    finally:
        if tracer is not None:
            tracer.close()
    if metrics is not None:
        print(metrics.render())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
