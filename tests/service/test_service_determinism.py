"""Same-seed request traces are byte-identical serial vs concurrent.

The acceptance contract of the service: a request's canonical per-request
event trace (wall-clock and cache-warmth payloads masked via
``service_canonical_events``) is a pure function of ``(request, seed)``,
regardless of worker count, interleaving or engine warmth.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.service import (
    DONE,
    PlanRequest,
    RunScheduler,
    ServicePool,
    service_canonical_events,
)


def run_batch(seeds, budget, population, concurrent, workers=4):
    """Run one request per seed; return each run's canonical trace."""
    scheduler = RunScheduler(
        metrics=MetricsRegistry(),
        queue_cap=len(seeds) + 1,
        slice_gens=3,
    )
    runs = [
        scheduler.submit(
            PlanRequest(
                domain="hanoi", size=5, seed=seed, budget=budget, population=population
            )
        )
        for seed in seeds
    ]
    if concurrent:
        with ServicePool(scheduler, workers=workers):
            assert scheduler.wait_idle(timeout=300)
    else:
        scheduler.drain()
    assert all(run.state == DONE for run in runs)
    return [run.canonical_trace() for run in runs]


class TestSerialVsConcurrent:
    @given(
        base_seed=st.integers(0, 10_000),
        budget=st.integers(6, 24),
        population=st.sampled_from([16, 30]),
    )
    @settings(max_examples=4, deadline=None)
    def test_traces_identical_across_execution_modes(self, base_seed, budget, population):
        # Repeated seeds on purpose: warm same-seed replays must not change
        # the trace either.
        seeds = [base_seed, base_seed + 1, base_seed, base_seed + 1, base_seed]
        serial = run_batch(seeds, budget, population, concurrent=False)
        concurrent = run_batch(seeds, budget, population, concurrent=True)
        assert serial == concurrent

    def test_traces_identical_warm_vs_cold(self):
        def traces(one_at_a_time):
            scheduler = RunScheduler(metrics=MetricsRegistry(), slice_gens=3)
            runs = []
            for _ in range(3):
                runs.append(scheduler.submit(
                    PlanRequest(domain="hanoi", size=5, seed=7, budget=12, population=20)
                ))
                if one_at_a_time:
                    scheduler.drain()
            scheduler.drain()
            return [run.warm for run in runs], [run.canonical_trace() for run in runs]

        # One at a time, the 2nd and 3rd requests lease the released pair
        # and replay the memo; submitted together, their first slices
        # interleave, so each leases a cold pair and a fresh memo.
        warm_flags, warm = traces(one_at_a_time=True)
        cold_flags, cold = traces(one_at_a_time=False)
        assert warm_flags == [False, True, True] and cold_flags == [False] * 3
        assert warm == cold

    def test_trace_contains_the_deterministic_event_kinds(self):
        (trace,) = run_batch([3], budget=10, population=20, concurrent=False)
        kinds = {record["kind"] for record in trace}
        assert "generation" in kinds
        assert "service-slice" in kinds and "service-completed" in kinds

    def test_masking_zeroes_wall_clock_and_warmth_payloads(self):
        (trace,) = run_batch([3], budget=10, population=20, concurrent=False)
        batches = [r for r in trace if r["kind"] == "evaluation-batch"]
        assert batches, "expected evaluation-batch events in the trace"
        for record in batches:
            assert record["seconds"] == 0.0
            assert record["cache_hits"] == 0 and record["evals_skipped"] == 0

    def test_masking_helper_is_idempotent(self):
        metrics = MetricsRegistry()
        scheduler = RunScheduler(metrics=metrics)
        run = scheduler.submit(
            PlanRequest(domain="hanoi", size=4, seed=3, budget=10, population=20)
        )
        scheduler.drain()
        once = run.canonical_trace()
        assert service_canonical_events(run.recorder.events) == once
