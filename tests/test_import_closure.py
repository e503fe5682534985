"""The planning service starts and serves without loading scipy.

scipy is imported only inside :func:`repro.analysis.stats_util.mean_ci` and
:func:`repro.analysis.stats_util.mann_whitney`; loading it at import time
made up most of the start-up time and memory of ``repro serve``.  Each case
runs in a fresh interpreter, since this test session has long since loaded
scipy through other tests.
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
