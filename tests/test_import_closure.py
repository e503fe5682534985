"""Each entry point loads what it runs, and not what it might run.

Every package re-exports its submodules through one lazy export table
(:mod:`repro._lazy`) and eagerly imports only what each of its callers
runs.  For ``repro.core`` that is the single-run GA engine, so ``import
repro.core`` loads ``repro.core.ga``; the drivers built on it (planner,
multi-phase, portfolio, resilient, checkpoint), the STRIPS planners, the
PDDL parser and the trace sinks load on first use.  A serial GA run
never imports ``concurrent.futures`` or ``multiprocessing``:
:class:`~repro.core.parallel.ProcessPoolEvaluator` imports them when it
starts a pool.  ``repro.cli`` imports each subcommand's stack inside its
handler, so ``repro serve`` loads neither the analysis drivers nor the
sweep runner.

``repro.service`` imports its submodules lazily, so a protocol-only
client loads neither numpy nor the GA stack.

scipy is imported only inside :func:`repro.analysis.stats_util.mean_ci` and
:func:`repro.analysis.stats_util.mann_whitney`; loading it at import time
made up most of the start-up time and memory of ``repro serve``.

networkx is imported by :mod:`repro.scheduling.dag` and, on first call, by
:func:`repro.grid.activity_graph.activity_graph_to_dag_problem`, the bridge
to HEFT.  ``repro.grid`` routes and orders its own graphs, so a soak never
loads it, and ``repro.scheduling`` loads ``dag`` only when ``heft`` or
``DagProblem`` is first named.

Each case runs in a fresh interpreter, since this test session has long
since loaded every module through other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# Drain one hanoi-3 and one tile-3 request, then report what got loaded.
SERVE_TWO_REQUESTS = """
import json, sys
from repro.service import DONE, PlanRequest, RunScheduler

scheduler = RunScheduler()
runs = [
    scheduler.submit(PlanRequest(domain="hanoi", size=3, seed=1, budget=5, population=10)),
    scheduler.submit(PlanRequest(domain="tile", size=3, seed=1, budget=5, population=10)),
]
scheduler.drain()
print(json.dumps({
    "served": all(run.state == DONE for run in runs),
    "scipy": "scipy" in sys.modules,
    "analysis": "repro.analysis" in sys.modules,
    "exp_runner": "repro.exp.runner" in sys.modules,
}))
"""


def run_fresh(source: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_and_service_serve_without_scipy():
    out = run_fresh("import repro.cli\n" + SERVE_TWO_REQUESTS)
    assert out["served"] is True
    assert out["scipy"] is False


def test_cli_serve_path_loads_neither_analysis_nor_the_sweep_runner():
    out = run_fresh("import repro.cli\nfrom repro.service import serve\n" + SERVE_TWO_REQUESTS)
    assert out["served"] is True
    assert out["analysis"] is False
    assert out["exp_runner"] is False


def test_core_import_loads_the_ga_engine():
    out = run_fresh(
        """
import json, sys
import repro.core

print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.core."))))
"""
    )
    assert "repro.core.ga" in out
    assert "repro.core.parallel" in out
    assert "repro.core.planner" not in out


def test_serial_ga_run_loads_no_pool_driver_planner_or_sink():
    out = run_fresh(
        """
import json, sys
from repro.core import GAConfig, GARun, SerialEvaluator, make_rng
from repro.domains import HanoiDomain

config = GAConfig(
    population_size=200, generations=10**6, max_len=5 * 127, init_length=127,
    stop_on_goal=False,
)
with SerialEvaluator() as evaluator:
    run = GARun(HanoiDomain(7), config, make_rng(1), evaluator=evaluator)
    for _ in range(3):
        run.step()
print(json.dumps({"generations": len(run.history.generations), "modules": sorted(sys.modules)}))
"""
    )
    assert out["generations"] == 3
    unwanted = [
        "multiprocessing",
        "concurrent.futures",
        "repro.core.portfolio",
        "repro.core.planner",
        "repro.core.multiphase",
        "repro.core.checkpoint",
        "repro.core.resilient",
        "repro.planning.search",
        "repro.planning.pddl",
        "repro.obs.sinks",
    ]
    assert [m for m in unwanted if m in out["modules"]] == []


def test_scheduling_loads_networkx_only_for_the_dag_scheduler():
    out = run_fresh(
        """
import json, sys
import repro.scheduling
from repro.scheduling import ETCParams, GASchedulerConfig, ga_schedule, generate_etc
from repro.scheduling import makespan, min_min, sufferage
from repro.core import make_rng

etc = generate_etc(ETCParams(n_tasks=16, n_machines=4), make_rng(1))
spans = [makespan(etc, min_min(etc)), makespan(etc, sufferage(etc))]
ga = ga_schedule(etc, GASchedulerConfig(generations=3), make_rng(2))
before = "networkx" in sys.modules
from repro.scheduling import DagProblem, heft
print(json.dumps({
    "before": before,
    "after": "networkx" in sys.modules,
    "ok": all(s > 0 for s in spans) and ga.makespan > 0 and callable(heft),
    "dag": DagProblem.__module__,
}))
"""
    )
    assert out["ok"] is True
    assert out["before"] is False
    assert out["after"] is True
    assert out["dag"] == "repro.scheduling.dag"


def test_service_alone_loads_neither_scipy_nor_analysis():
    out = run_fresh(SERVE_TWO_REQUESTS)
    assert out["served"] is True
    assert out["scipy"] is False
    assert out["analysis"] is False


def test_service_client_loads_neither_numpy_nor_core():
    out = run_fresh(
        """
import json, sys
import repro.service.client
from repro.service import PlanRequest, ServiceClient

print(json.dumps({
    "client": ServiceClient.__module__,
    "request": PlanRequest.__module__,
    "numpy": "numpy" in sys.modules,
    "core": sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "core"]),
}))
"""
    )
    assert out["client"] == "repro.service.client"
    assert out["request"] == "repro.service.protocol"
    assert out["numpy"] is False
    assert out["core"] == []


def test_stats_load_scipy_on_first_call():
    out = run_fresh(
        """
import json, sys
from repro.analysis import mann_whitney, mean_ci
from repro.core import make_rng

before = "scipy" in sys.modules
ci = mean_ci([1.0, 2.0, 3.0, 4.0])
rng = make_rng(4)
_stat, shift_p = mann_whitney(rng.normal(0, 1, size=40), rng.normal(2, 1, size=40))
print(json.dumps({
    "before": before,
    "ci": [ci.mean, ci.low, ci.high, ci.n],
    "u": mann_whitney([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
    "shift_p": shift_p,
}))
"""
    )
    assert out["before"] is False
    mean, low, high, n = out["ci"]
    assert (mean, n) == (2.5, 4)
    assert round(low, 3) == 0.446 and round(high, 3) == 4.554
    assert out["u"] == [0.0, 0.1]
    assert out["shift_p"] < 0.001


def test_soak_runs_without_networkx():
    out = run_fresh(
        """
import json, sys
from repro.soak import SoakConfig, run_soak

report = run_soak(SoakConfig(
    duration=30.0, arrival="arrival:rate=0.3", seed=3,
    faults="machine-crash:p=0.9,restore=10;partition:p=0.6",
    n_sites=2, machines_per_site=2, n_stages=2,
))
print(json.dumps({
    "arrived": report.arrived,
    "networkx": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
}))
"""
    )
    assert out["arrived"] > 0
    assert out["networkx"] == []


def test_heft_bridge_loads_networkx_on_first_call():
    out = run_fresh(
        """
import json, sys
from repro.grid import imaging_pipeline, plan_to_activity_graph
from repro.grid.activity_graph import activity_graph_to_dag_problem
from repro.planning.search import goal_gap, greedy_best_first

onto, domain = imaging_pipeline()
plan = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000).plan
graph = plan_to_activity_graph(domain, plan)
before = "networkx" in sys.modules
problem = activity_graph_to_dag_problem(graph, onto)
print(json.dumps({
    "before": before,
    "after": "networkx" in sys.modules,
    "nodes": list(problem.graph.nodes),
    "edges": [list(e) for e in problem.graph.edges],
    "graph_edges": [list(e) for e in graph.edges()],
    "comm": sorted(list(k) for k in problem.comm),
}))
"""
    )
    assert out["before"] is False and out["after"] is True
    assert out["nodes"] == list(range(len(out["nodes"])))
    assert out["edges"] == out["graph_edges"] == out["comm"]


def test_registry_loads_a_builtin_domain_only_on_create():
    out = run_fresh(
        """
import json, sys
import repro.service.cache
from repro.domains import registry

hanoi = registry.create("hanoi", 3)
loaded = sorted(sys.modules)
blocks = registry.create("blocks", [["a", "b"]], [["b", "a"]])
print(json.dumps({
    "hanoi": type(hanoi).__name__,
    "blocks": type(blocks).__name__,
    "modules": loaded,
}))
"""
    )
    assert (out["hanoi"], out["blocks"]) == ("HanoiDomain", "BlocksWorldDomain")
    unwanted = [
        "repro.domains.blocks_world",
        "repro.domains.briefcase",
        "repro.domains.navigation",
        "repro.domains.pocket_cube",
        "repro.planning.adapter",
        "repro.planning.plan",
    ]
    assert [m for m in unwanted if m in out["modules"]] == []
