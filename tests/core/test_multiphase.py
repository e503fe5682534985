"""Tests for the multi-phase GA driver."""

import pytest

from repro.core import GAConfig, MultiPhaseConfig, make_rng, run_multiphase
from repro.domains import HanoiDomain


def _phase_cfg(**kw):
    base = dict(
        population_size=40, generations=30, max_len=35, init_length=7, stop_on_goal=False
    )
    base.update(kw)
    return GAConfig(**base)


class TestMultiPhase:
    def test_solves_hanoi3(self, hanoi3):
        mp = MultiPhaseConfig(max_phases=5, phase=_phase_cfg())
        result = run_multiphase(hanoi3, mp, make_rng(0))
        assert result.solved
        assert result.solved_in_phase is not None
        final = hanoi3.execute(result.plan)
        assert hanoi3.is_goal(final)

    def test_stops_after_solving_phase(self, hanoi3):
        mp = MultiPhaseConfig(max_phases=5, phase=_phase_cfg())
        result = run_multiphase(hanoi3, mp, make_rng(1))
        assert result.solved
        assert result.n_phases == result.solved_in_phase

    def test_phases_chain_states(self, hanoi3):
        mp = MultiPhaseConfig(max_phases=3, phase=_phase_cfg(generations=3, population_size=10))
        result = run_multiphase(hanoi3, mp, make_rng(2))
        for earlier, later in zip(result.phases, result.phases[1:]):
            assert later.start_state == earlier.final_state

    def test_plan_is_concatenation(self, hanoi3):
        mp = MultiPhaseConfig(max_phases=3, phase=_phase_cfg(generations=3, population_size=10))
        result = run_multiphase(hanoi3, mp, make_rng(3))
        concat = tuple(op for rec in result.phases for op in rec.plan)
        assert result.plan == concat

    def test_generation_accounting_full_phases(self, hanoi3):
        mp = MultiPhaseConfig(max_phases=2, phase=_phase_cfg(generations=7, population_size=10))
        result = run_multiphase(hanoi3, mp, make_rng(4))
        assert result.total_generations == 7 * result.n_phases

    def test_early_stop_in_phase(self, hanoi3):
        mp = MultiPhaseConfig(
            max_phases=5, phase=_phase_cfg(generations=100), early_stop_in_phase=True
        )
        result = run_multiphase(hanoi3, mp, make_rng(5))
        if result.solved:
            # With early stopping, the solving phase may use < 100 gens.
            assert result.total_generations <= 100 * result.n_phases

    def test_respects_max_phases(self, rng):
        # 7-disk Hanoi with a tiny budget will not solve; all phases run.
        domain = HanoiDomain(7)
        mp = MultiPhaseConfig(
            max_phases=3,
            phase=GAConfig(
                population_size=10, generations=2, max_len=130, init_length=16,
                stop_on_goal=False,
            ),
        )
        result = run_multiphase(domain, mp, rng)
        assert not result.solved
        assert result.n_phases == 3
        assert result.solved_in_phase is None

    def test_on_phase_callback(self, hanoi3):
        seen = []
        mp = MultiPhaseConfig(max_phases=2, phase=_phase_cfg(generations=2, population_size=10))
        run_multiphase(hanoi3, mp, make_rng(6), on_phase=seen.append)
        assert [p.index for p in seen] == list(range(1, len(seen) + 1))

    def test_reproducible(self, hanoi3):
        mp = MultiPhaseConfig(max_phases=3, phase=_phase_cfg())
        a = run_multiphase(hanoi3, mp, make_rng(42))
        b = run_multiphase(hanoi3, mp, make_rng(42))
        assert a.plan == b.plan
        assert a.goal_fitness == b.goal_fitness

    def test_goal_fitness_matches_final_state(self, hanoi3):
        mp = MultiPhaseConfig(max_phases=2, phase=_phase_cfg(generations=3, population_size=10))
        result = run_multiphase(hanoi3, mp, make_rng(7))
        assert result.goal_fitness == pytest.approx(
            hanoi3.goal_fitness(result.final_state)
        )

    def test_start_state_override(self, hanoi3):
        near_goal = ((1,), (3, 2), ())
        mp = MultiPhaseConfig(max_phases=2, phase=_phase_cfg(population_size=10, generations=2))
        result = run_multiphase(hanoi3, mp, make_rng(8), start_state=near_goal)
        assert result.solved
        assert result.solved_in_phase == 1
