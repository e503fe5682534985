"""Property-based tests on domain invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_rng
from repro.domains import (
    GridNavigationDomain,
    HanoiDomain,
    SlidingTileDomain,
    is_solvable,
)


def _random_walk(domain, seed, steps):
    rng = make_rng(seed)
    state = domain.initial_state
    for _ in range(steps):
        ops = list(domain.valid_operations(state))
        if not ops:
            break
        state = domain.apply(state, ops[int(rng.integers(0, len(ops)))])
    return state


class TestHanoiInvariants:
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_walk_preserves_stacking_invariant(self, seed, n, steps):
        domain = HanoiDomain(n)
        state = _random_walk(domain, seed, steps)
        disks = sorted(d for stack in state for d in stack)
        assert disks == list(range(1, n + 1))
        for stack in state:
            assert list(stack) == sorted(stack, reverse=True)

    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_goal_fitness_bounds_and_exactness(self, seed, n, steps):
        domain = HanoiDomain(n)
        state = _random_walk(domain, seed, steps)
        f = domain.goal_fitness(state)
        assert 0.0 <= f <= 1.0
        assert (f == 1.0) == domain.is_goal(state)


class TestTileInvariants:
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_walk_stays_solvable(self, seed, n, steps):
        """Moves preserve the Johnson–Story invariant: every reachable state
        remains solvable."""
        domain = SlidingTileDomain(n)
        state = _random_walk(domain, seed, steps)
        assert is_solvable(state, n, domain.goal_state)

    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(0, 80))
    @settings(max_examples=40, deadline=None)
    def test_goal_fitness_consistent_with_manhattan(self, seed, n, steps):
        domain = SlidingTileDomain(n)
        state = _random_walk(domain, seed, steps)
        f = domain.goal_fitness(state)
        assert 0.0 <= f <= 1.0
        assert (domain.manhattan(state) == 0) == (state == domain.goal_state)


class TestNavigationInvariants:
    @given(st.integers(0, 10_000), st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_robots_never_collide_or_leave_grid(self, seed, steps):
        domain = GridNavigationDomain(
            4, 4, [(0, 0), (3, 3)], [(3, 3), (0, 0)], obstacles=[(1, 1)]
        )
        state = _random_walk(domain, seed, steps)
        assert len(set(state)) == 2  # no collision
        for r, c in state:
            assert 0 <= r < 4 and 0 <= c < 4
            assert (r, c) != (1, 1)  # not on the obstacle
