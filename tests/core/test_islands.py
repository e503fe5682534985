"""The ring island model: a GA-only portfolio spec.

:func:`repro.core.ring_portfolio` spells the classic island model as a
:class:`~repro.core.config.PortfolioSpec`; these cases cover its
validation, heterogeneous islands, determinism and evaluator lifetimes,
and a hypothesis suite holds it equal to the lockstep reference
(:func:`tests.oracle.reference_islands`).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GAConfig,
    StrategySpec,
    canonical_events,
    make_rng,
    ring_portfolio,
    run_portfolio,
)
from repro.core.parallel import SerialEvaluator
from repro.domains import HanoiDomain
from repro.obs import MemoryRecorder, Tracer
from tests.oracle import reference_islands


def _island(**kw):
    base = dict(
        population_size=20, generations=30, max_len=35, init_length=7,
        stop_on_goal=True,
    )
    base.update(kw)
    return GAConfig(**base)


def _ring(configs, interval=5, migration_size=2):
    """A ring with one strategy per config (heterogeneous islands)."""
    return ring_portfolio(configs[0], len(configs), interval, migration_size).replace(
        strategies=tuple(StrategySpec(kind="ga", ga=c) for c in configs)
    )


def _cfg(n_islands=3, interval=5, migration_size=2, **island_kw):
    return ring_portfolio(_island(**island_kw), n_islands, interval, migration_size)


def _run(domain, spec, seed, **kw):
    return run_portfolio(domain, spec, make_rng(seed), **kw)


class TestConfigValidation:
    def test_requires_island_config(self):
        with pytest.raises(ValueError, match="GAConfig"):
            ring_portfolio(None, 2)

    def test_minimum_islands(self):
        with pytest.raises(ValueError, match="at least 2 islands"):
            _cfg(n_islands=1)

    def test_migration_bounds(self):
        with pytest.raises(ValueError):
            _cfg(interval=0)
        with pytest.raises(ValueError):
            _cfg(migration_size=0)
        with pytest.raises(ValueError):
            _cfg(migration_size=20)  # == island population

    def test_ring_is_a_plain_ga_portfolio(self):
        spec = _cfg()
        assert not spec.adaptive
        assert [s.ga for s in spec.strategies] == [_island()] * 3


class TestPerIslandConfigs:
    def _hetero(self, *pops, migration_size=2):
        return _ring(
            [_island(population_size=p, generations=12, stop_on_goal=False) for p in pops],
            migration_size=migration_size,
        )

    def test_migration_validated_against_smallest_island(self):
        # 8-strong island cannot donate/absorb 8 migrants even though the
        # first island config is much larger.
        with pytest.raises(ValueError, match="smallest GA island population"):
            self._hetero(40, 8, 40, migration_size=8)
        self._hetero(40, 8, 40, migration_size=7)  # below the floor: fine

    def test_heterogeneous_run_preserves_island_sizes(self, hanoi3):
        result = _run(hanoi3, self._hetero(24, 12, 18), 6)
        assert len(result.histories) == 3
        for history in result.histories:
            assert len(history) == 12

    def test_heterogeneous_reproducible(self, hanoi3):
        spec = self._hetero(24, 12, 18)
        a = _run(hanoi3, spec, 7)
        b = _run(hanoi3, spec, 7)
        assert replace(a.best, wall_s=0.0) == replace(b.best, wall_s=0.0)
        assert a.histories == b.histories


class TestEvaluatorLifetimes:
    def test_factory_failure_closes_built_evaluators(self, hanoi3):
        built, closed = [], []

        def factory():
            if len(built) == 2:
                raise RuntimeError("third evaluator fails")
            evaluator = SerialEvaluator()
            evaluator.close = lambda ev=evaluator: closed.append(ev)
            built.append(evaluator)
            return evaluator

        with pytest.raises(RuntimeError, match="third evaluator fails"):
            _run(hanoi3, _cfg(), 0, evaluator_factory=factory)
        assert closed == built  # both pre-built evaluators released

    def test_mid_migration_exception_closes_all_evaluators(self, hanoi3):
        closed = []

        class Exploding(SerialEvaluator):
            calls = 0

            def evaluate_buffer(self, buffer, context):
                Exploding.calls += 1
                if Exploding.calls > 2:
                    raise RuntimeError("mid-run failure")
                return super().evaluate_buffer(buffer, context)

            def close(self):
                closed.append(self)
                super().close()

        with pytest.raises(RuntimeError, match="mid-run failure"):
            _run(hanoi3, _cfg(), 0, evaluator_factory=Exploding)
        assert len(closed) == 3


class TestRunIslands:
    def test_solves_hanoi3(self, hanoi3):
        result = _run(hanoi3, _cfg(), 0)
        assert result.solved
        assert hanoi3.is_goal(hanoi3.execute(result.plan))

    def test_population_sizes_preserved_across_migration(self, hanoi3):
        # Every island records its full generation count across migrations.
        result = _run(hanoi3, _cfg(stop_on_goal=False, generations=12), 1)
        assert result.migrations >= 2
        for history in result.histories:
            assert len(history) == 12

    def test_early_stop_on_goal(self, hanoi3):
        result = _run(hanoi3, _cfg(), 2)
        if result.solved:
            assert result.first_solution_tick <= 30
            assert result.winner is not None

    def test_migration_counter(self, hanoi3):
        result = _run(hanoi3, _cfg(stop_on_goal=False, generations=11), 3)
        assert result.migrations == 2  # after generations 5 and 10

    def test_reproducible(self, hanoi3):
        a = _run(hanoi3, _cfg(), 42)
        b = _run(hanoi3, _cfg(), 42)
        assert a.plan == b.plan
        assert a.winner == b.winner
        assert a.histories == b.histories

    def test_best_island_index_valid(self, hanoi3):
        result = _run(hanoi3, _cfg(), 4)
        assert 0 <= result.best.island < 3

    def test_histories_one_per_island(self, hanoi3):
        result = _run(hanoi3, _cfg(), 5)
        assert len(result.histories) == 3


# -- the ring replays the lockstep island model --------------------------------


@st.composite
def _rings(draw):
    n = draw(st.integers(2, 4))
    stop = draw(st.booleans())
    gens = draw(st.integers(3, 14))
    pops = [draw(st.integers(6, 20)) for _ in range(n)]
    configs = [
        GAConfig(
            population_size=pop, generations=gens, max_len=40, init_length=8,
            crossover=draw(st.sampled_from(("random", "state-aware", "mixed"))),
            stop_on_goal=stop,
        )
        for pop in pops
    ]
    return dict(
        disks=draw(st.sampled_from((3, 4))),
        configs=configs,
        interval=draw(st.integers(1, 5)),
        k=draw(st.integers(1, min(3, min(pops) - 1))),
        seed=draw(st.integers(0, 10_000)),
    )


class TestRingMatchesReference:
    """Per island: the per-generation stats, the first-solution generation,
    the best (goal, cost) and the migration edges (src, dst, k).

    Two differences are by design.  A ring that stops on goal finishes the
    round in which an island solved, so the other islands' histories run
    past the reference's stop and its best can only be better.  The
    reference migrates once more after its last generation, feeding a
    generation it never evaluates; the ring does not.
    """

    @given(case=_rings())
    @settings(max_examples=40, deadline=None)
    def test_ring_replays_reference(self, case):
        configs, interval, k = case["configs"], case["interval"], case["k"]
        recorder = MemoryRecorder()
        ring = run_portfolio(
            HanoiDomain(case["disks"]), _ring(configs, interval, k),
            make_rng(case["seed"]), tracer=Tracer([recorder]),
        )
        ref = reference_islands(
            HanoiDomain(case["disks"]), configs, make_rng(case["seed"]), interval, k
        )
        stopped = configs[0].stop_on_goal and ref.solved_at_generation is not None
        gens = ref.generations_run
        for mine, theirs in zip(ring.histories, ref.histories, strict=True):
            if stopped:
                assert mine.generations[:gens] == theirs.generations
            else:
                assert mine.generations == theirs.generations
        first = [
            next((s.generation for s in h.generations if s.solved_count), None)
            for h in ring.histories
        ]
        solved_gens = [g for g in first if g is not None]
        assert (min(solved_gens) if solved_gens else None) == ref.solved_at_generation
        ref_key = (ref.best.fitness.goal, ref.best.fitness.cost)
        if stopped:
            assert ring.first_solution_tick == ref.solved_at_generation + 1
            assert ring.solved and ring.best.sort_key() >= ref_key
        else:
            assert ring.best.sort_key() == ref_key
            assert ring.solved == (ref.solved_at_generation is not None)
        edges = [
            (e["source"], e["dest"], e["migrants"])
            for e in canonical_events(recorder.events)
            if e["kind"] == "portfolio-migration"
        ]
        assert edges == [(s, d, m) for g, s, d, m in ref.edges if g < gens - 1]
