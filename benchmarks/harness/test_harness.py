"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import measure
import runner
import spans
import workloads

HERE = Path(__file__).resolve().parent


# -- percentiles ------------------------------------------------------------------


def test_nearest_rank_percentile_returns_measured_values():
    values = list(range(1, 11))
    assert measure.percentile(values, 50) == 5
    assert measure.percentile(values, 90) == 9
    assert measure.percentile(values, 100) == 10
    assert measure.percentile([7.5], 90) == 7.5
    assert measure.percentile(list(reversed(values)), 10) == 1
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.supported(20, 50) and not measure.supported(19, 50)
    assert measure.supported(100, 90) and not measure.supported(99, 90)
    assert measure.beyond(100, 90) == 10


def test_run_metrics_are_plain_percentiles_with_their_sample_counts():
    out = workloads.Outcome(latencies_ms=[float(v) for v in range(100, 0, -1)],
                            setups_s=[0.2, 0.1, 0.3], attempted=100, failed=2, peak_rss_mb=50.0,
                            named={"evals_per_s": 7.0})
    metrics = runner.end_to_end(out, import_s=0.5)
    assert metrics["setup_s"] == {"value": pytest.approx(0.7), "unit": "s", "n": 3,
                                  "unscaled": pytest.approx(0.7)}
    assert metrics["peak_rss_mb"]["value"] == 50.0
    # A host running at half the reference speed halves the reported set-up.
    slow = runner.end_to_end(out, import_s=0.5, host_s=2 * runner.HOST_PROBE_REF_S)
    assert slow["setup_s"]["value"] == pytest.approx(0.35)
    assert slow["setup_s"]["unscaled"] == pytest.approx(0.7)
    extra = runner.named(out, runner.load_spec())
    assert extra["latency_ms_p50"] == {"value": 50.0, "unit": "ms", "n": 100, "supported": True}
    assert extra["latency_ms_p90"] == {"value": 90.0, "unit": "ms", "n": 100, "supported": True}
    assert "latency_ms_p95" not in extra  # only 5 samples beyond it
    assert extra["evals_per_s"] == {"value": 7.0, "unit": "1/s"}
    assert extra["fail_rate"]["value"] == pytest.approx(0.02)


# -- compare verdicts -----------------------------------------------------------------


@pytest.mark.parametrize(
    "child, higher, expected",
    [
        ([100.0, 102.0, 99.0], False, "unchanged"),
        ([120.0, 121.0, 119.0], False, "worse"),
        ([80.0, 81.0, 79.0], False, "improved"),
        ([80.0, 81.0, 79.0], True, "worse"),
        ([120.0, 121.0, 119.0], True, "improved"),
    ],
)
def test_verdicts_apply_the_bound_in_the_metric_direction(child, higher, expected):
    assert measure.verdict([100.0, 101.0, 99.0], child, 0.1, higher)["verdict"] == expected


def test_noisy_cells_are_unresolved_unless_one_side_wins_every_run():
    noisy = [60.0, 100.0, 150.0]
    assert measure.verdict(noisy, [70.0, 100.0, 160.0], 0.1, False)["verdict"] == "unresolved"
    assert measure.verdict(noisy, [20.0, 25.0, 30.0], 0.1, False)["verdict"] == "improved"
    assert measure.verdict(noisy, [200.0, 220.0, 300.0], 0.1, False)["verdict"] == "worse"


def test_verdict_reports_ratio_with_its_base():
    v = measure.verdict([10.0, 10.0, 10.0], [11.0, 11.0, 11.0], 0.25, False)
    assert v["base"] == 10.0 and v["ratio"] == pytest.approx(1.1)
    assert v["verdict"] == "unchanged"


def _result(values, failed=0):
    records = [
        {"workload": "w", "attempted": 10, "failed": failed,
         "named": {"sim_rate": {"value": v, "unit": "s/s"}},
         "metrics": {m["name"]: {"value": v, "unit": m["unit"]}
                     for m in runner.load_spec()["end_to_end"]}}
        for v in values
    ]
    return {"sets": [{"records": records}]}


def test_compare_exits_non_zero_on_worse_or_more_failures(tmp_path, capsys):
    parent, same, worse, failing = (tmp_path / f"{n}.json" for n in ("p", "s", "w", "f"))
    parent.write_text(json.dumps(_result([1.0, 1.01, 0.99])))
    same.write_text(json.dumps(_result([1.0, 1.0, 1.01])))
    # Lower-is-better and higher-is-better metrics share the values here, so
    # a 3x change is "worse" for one of the two directions either way.
    worse.write_text(json.dumps(_result([3.0, 3.01, 2.99])))
    failing.write_text(json.dumps(_result([1.0, 1.0, 1.01], failed=1)))
    assert runner.compare(str(parent), str(same)) == 0
    assert runner.compare(str(parent), str(worse)) == 1
    assert runner.compare(str(parent), str(failing)) == 1
    assert runner.compare(f"{parent}#0", f"{same}#0") == 0
    out = capsys.readouterr().out
    assert "child/parent" in out and "sim_rate           (ungated)" in out


# -- correctness checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    from repro.core import GAConfig, GARun, SerialEvaluator, make_rng
    from repro.domains import HanoiDomain

    config = GAConfig(population_size=20, generations=100, max_len=60, init_length=20,
                      stop_on_goal=False)
    run = GARun(HanoiDomain(4), config, make_rng(5), evaluator=SerialEvaluator())
    for _ in range(6):
        run.step()
    return run


def test_untampered_run_passes_the_checks(small_run):
    assert workloads.verify_run(small_run) == []


def test_tampered_plan_or_fitness_is_caught(small_run):
    best = small_run.best
    plan = best.decoded.operations
    check = workloads.check_genome
    args = (small_run.domain, small_run.start_state, small_run.config, best.genes)
    assert check(*args, best.fitness, plan) == []
    assert check(*args, best.fitness, plan[:-1])
    assert check(*args, best.fitness, tuple(reversed(plan)))
    tampered = type(best.fitness)(goal=best.fitness.goal, cost=best.fitness.cost,
                                  total=best.fitness.total + 1e-9,
                                  goal_reached=best.fitness.goal_reached)
    assert check(*args, tampered, plan)


def test_mismatched_trajectory_digest_is_a_failed_op(small_run, monkeypatch):
    shape = workloads.GAShape("hanoi4", 20, 60, 20, 3, 5, False)
    digest = workloads.trajectory_digest(small_run.history, shape.digest_gens)
    monkeypatch.setitem(workloads.PINNED_GA, ("hanoi4", 5), digest)
    assert workloads._check_trajectory(shape, 5, digest) == []
    monkeypatch.setitem(workloads.PINNED_GA, ("hanoi4", 5), "0" * 64)
    problems = workloads._check_trajectory(shape, 5, digest)
    assert problems
    out = workloads.Outcome(attempted=4)
    out.check("trajectory", problems, ops=4)
    assert out.failed == 4 and out.checks["trajectory"] != "ok"


def test_shed_error_and_malformed_replies_are_failed_requests():
    from service_load import Call

    def problems(reply):
        return workloads._reply_problems(Call({}, due=0.0, reply=reply))

    assert problems({"type": "result", "plan": ["a"], "plan_length": 1}) == []
    assert problems({"type": "shed", "reason": "queue-full"}) == ["shed: queue-full"]
    assert problems({"type": "error", "message": "bad"}) == ["error: bad"]
    assert problems({"type": "result", "plan": ["a"], "plan_length": 2})
    assert problems({"type": "result", "plan": [], "plan_length": 0, "timed_out": True})
    assert problems(None) == ["no reply"]


def test_leak_check_ignores_shm_segments_other_processes_map(monkeypatch):
    check = workloads.LeakCheck()
    monkeypatch.setattr(workloads, "shm_entries", lambda: check.shm | {"psm_ours", "psm_theirs"})
    monkeypatch.setattr(workloads, "shm_mapped_by_others", lambda: {"psm_theirs"})
    assert check.problems() == ["leaked /dev/shm entries ['psm_ours']"]


# -- spans -------------------------------------------------------------------------


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        time.sleep(0.002)
        return 1


def test_span_wrappers_link_parents_and_restore_originals():
    original = _Layer.__dict__["inner"]
    recorder = spans.SpanRecorder("w", "r").install([
        spans.Wrap(_Layer, "outer", share="{layer}.outer_share"),
        spans.Wrap(_Layer, "inner", per_unit="{layer}.inner_us"),
        spans.Wrap(_Layer, "gone"),
    ])
    try:
        assert _Layer().outer() == 2
    finally:
        recorder.uninstall()
    assert _Layer.__dict__["inner"] is original
    assert recorder.skipped == ["_Layer.gone"]
    outer, inner = recorder.named(".outer")[0], recorder.named(".inner")[0]
    assert inner.parent == outer.id and outer.parent is None
    self_ms = recorder.self_ms()
    assert self_ms[outer.id] == pytest.approx(outer.ms - inner.ms)
    recorder.windows.append((outer.start, outer.end + 1))
    layer = spans.layer_of(_Layer.outer)
    metrics = recorder.layer_metrics(outer.ms)
    assert metrics[f"{layer}.outer_share"] == pytest.approx(1.0)
    assert metrics[f"{layer}.inner_us"] == pytest.approx(inner.ms * 1e3)


# -- stable surface --------------------------------------------------------------------

#: Configuration surfaces the ROADMAP plans to delete; the harness drives
#: only defaults, so deleting them never requires a benchmark edit.
FORBIDDEN = ("decode_backend", "vector_decode", "shm=", "fused_decode",
             "\"backend\"", "'backend'", "backend=")


def test_harness_source_names_no_deletable_surface():
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        for token in FORBIDDEN:
            assert token not in text, f"{path.name} names {token}"


# -- smoke -----------------------------------------------------------------------------


def _children_of(pid: int) -> list:
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(stat.parent.name)
    return found


@pytest.mark.timeout(120)
def test_quick_smoke_of_every_workload_leaves_nothing_behind(tmp_path):
    shm_before = workloads.shm_entries()
    out = tmp_path / "quick.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE), "run", "--quick", "--out", str(out)],
        cwd=HERE.parents[1], capture_output=True, text=True, timeout=110,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 60, f"quick smoke took {elapsed:.1f}s"
    records = json.loads(out.read_text())["sets"][0]["records"]
    assert [r["workload"] for r in records] == list(workloads.WORKLOADS)
    for record in records:
        assert record["correct"], record["checks"]
        assert record["checks"][0]["leaks"] == "ok"
        for name, metric in record["metrics"].items():
            assert metric["value"] > 0, (record["workload"], name)
    assert workloads.shm_entries() - shm_before == set()
    assert _children_of(os.getpid()) == []


def _in_session(sid: int) -> list:
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append((stat.parent.name, fields[0]))
    return found


@pytest.mark.timeout(120)
def test_pool_run_leaves_no_process_in_its_session():
    # The pool's shared memory starts multiprocessing's resource tracker, a
    # process the run must stop and wait for before it exits (a zombie or
    # a still-running tracker would both be left behind otherwise).
    proc = subprocess.Popen(
        [sys.executable, str(HERE), "--workload", "hanoi7-pool", "--seconds", "0.5", "--trace", "0"],
        cwd=HERE.parents[1], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=110)
    assert proc.returncode == 0, stdout[-3000:] + stderr[-3000:]
    assert json.loads(stdout.splitlines()[-1])["correct"]
    assert _in_session(proc.pid) == []
