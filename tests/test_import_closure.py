"""The service starts without scipy; the grid and the soak run without networkx.

scipy is imported only inside :func:`repro.analysis.stats_util.mean_ci` and
:func:`repro.analysis.stats_util.mann_whitney`; loading it at import time
made up most of the start-up time and memory of ``repro serve``.

networkx is imported by :mod:`repro.scheduling.dag` and, on first call, by
:func:`repro.grid.activity_graph.activity_graph_to_dag_problem`, the bridge
to HEFT.  ``repro.grid`` routes and orders its own graphs, so a soak never
loads it.

Each case runs in a fresh interpreter, since this test session has long
since loaded both libraries through other tests.
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


def test_service_alone_loads_neither_scipy_nor_analysis():
    out = run_fresh(SERVE_TWO_REQUESTS)
    assert out["served"] is True
    assert out["scipy"] is False
    assert out["analysis"] is False


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
