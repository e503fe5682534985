"""Unit tests for the domain kernels (the code ABI, DESIGN.md §12).

Every kernel must agree with its domain's object API on every question,
for the code of every state it can reach — the exactness contract the
vector decoder builds on.  One hypothesis suite holds each kernel against
the object API on the states of random walks; Hanoi's dense table is
also checked exhaustively.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_rng
from repro.domains import HanoiDomain, PocketCubeDomain, SlidingTileDomain
from repro.domains.hanoi import _MAX_KERNEL_DISKS
from repro.domains.kernels import _KERNEL_CACHE, cached_kernel
from repro.domains.pocket_cube import _SOLVED_CO, _SOLVED_CP, scrambled_state
from repro.domains.sliding_tile import goal_tuple, random_solvable_start


def random_walk_states(domain, steps, seed):
    """States visited by a random walk through the object API."""
    rng = make_rng(seed)
    state = domain.initial_state
    out = [state]
    for _ in range(steps):
        ops = domain.valid_operations(state)
        state = domain.apply(state, ops[int(rng.integers(0, len(ops)))])
        out.append(state)
    return out


def assert_kernel_matches_domain(domain, states):
    """Every kernel answer for *states* equals the object API's."""
    kernel = domain.kernel()
    assert kernel is not None
    codes = np.array(
        [kernel.code_of_key(domain.state_key(s)) for s in states], dtype=kernel.code_dtype
    )
    counts = kernel.valid_count(codes).tolist()
    fits = kernel.goal_fit(codes)
    goals = kernel.goal_mask(codes).tolist()
    assert kernel.state_keys_of(codes) == [domain.state_key(s) for s in states]
    assert kernel.decode_keys_of(codes) == [domain.decode_key(s) for s in states]
    for j, (code, state) in enumerate(zip(codes.tolist(), states)):
        ops = list(domain.valid_operations(state))
        assert counts[j] == len(ops) >= 1
        # Bit-equal, not merely close.
        assert fits[j].tobytes() == np.float64(domain.goal_fitness(state)).tobytes()
        assert goals[j] == domain.is_goal(state)
        assert kernel.state_of(code) == state
        same = np.full(len(ops), code, dtype=kernel.code_dtype)
        slots = np.arange(len(ops))
        assert all(a is b for a, b in zip(kernel.operations_of(same, slots), ops))
        assert kernel.advance(same, slots).tolist() == [
            kernel.code_of_key(domain.state_key(domain.apply(state, op))) for op in ops
        ]
        assert_step_matches(domain, code, state)


def slot_genes(k):
    """Genes reaching every slot of a k-way choice, and both ends of [0, 1)."""
    return [0.0] + [(j + 0.5) / k for j in range(k)] + [float(np.nextafter(1.0, 0.0))]


def assert_step_matches(domain, code, state):
    """The scalar step from *state* equals the vector walk and the object API."""
    kernel = domain.kernel()
    ops = list(domain.valid_operations(state))
    k = len(ops)
    for gene in slot_genes(k):
        slot, nxt, goal = kernel.step(code, float(gene))
        want = min(int(np.float64(gene) * k), k - 1)
        codes = np.array([code], dtype=kernel.code_dtype)
        assert slot == want
        assert type(nxt) is int
        assert nxt == int(kernel.advance(codes, np.array([want]))[0])
        after = domain.apply(state, ops[slot])
        assert nxt == kernel.code_of_key(domain.state_key(after))
        assert goal == domain.is_goal(after)


def _hanoi(n):
    return lambda seed: HanoiDomain(n)


def _tile(n):
    return lambda seed: SlidingTileDomain(n, initial=random_solvable_start(n, make_rng(seed)))


KERNEL_DOMAINS = {
    **{f"hanoi-{n}": _hanoi(n) for n in range(1, 9)},
    **{f"tile-{n}": _tile(n) for n in (2, 3, 4)},
    "cube": lambda seed: PocketCubeDomain(scrambled_state(8, make_rng(seed))),
}


class TestKernelContract:
    @given(
        st.sampled_from(sorted(KERNEL_DOMAINS)),
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_object_api(self, name, seed, steps):
        domain = KERNEL_DOMAINS[name](seed)
        assert_kernel_matches_domain(domain, random_walk_states(domain, steps, seed + 1))

    @pytest.mark.parametrize(
        "domain, goal",
        [(HanoiDomain(3), ((), (3, 2, 1), ())), (SlidingTileDomain(4), goal_tuple(4))],
        ids=["hanoi", "tile"],
    )
    def test_goal_state_is_goal(self, domain, goal):
        assert_kernel_matches_domain(domain, [goal])
        kernel = domain.kernel()
        code = np.array([kernel.code_of_key(domain.state_key(goal))], dtype=kernel.code_dtype)
        assert kernel.goal_mask(code)[0] and kernel.goal_fit(code)[0] == 1.0


    @pytest.mark.parametrize(
        "domain, goal",
        [
            (HanoiDomain(1), ((), (1,), ())),
            (HanoiDomain(3), ((), (3, 2, 1), ())),
            (SlidingTileDomain(2), goal_tuple(2)),
            (SlidingTileDomain(3), goal_tuple(3)),
            (SlidingTileDomain(4), goal_tuple(4)),
            (PocketCubeDomain(), (_SOLVED_CP, _SOLVED_CO)),
        ],
        ids=["hanoi-1", "hanoi-3", "tile-2", "tile-3", "tile-4", "cube"],
    )
    def test_step_lands_on_the_goal(self, domain, goal):
        # From every neighbour of the goal, some gene steps back onto it,
        # and the step reports the goal.
        assert domain.is_goal(goal)
        kernel = domain.kernel()
        for op in domain.valid_operations(goal):
            near = domain.apply(goal, op)
            code = kernel.code_of_key(domain.state_key(near))
            assert_step_matches(domain, code, near)
            k = len(domain.valid_operations(near))
            assert any(kernel.step(code, g)[2] for g in slot_genes(k))


class TestHanoiKernel:
    def test_exhaustive_table_matches_domain(self):
        domain = HanoiDomain(3)
        kernel = domain.kernel()
        # Dense: the codes 0 .. 3^n - 1 are exactly the states.
        states = [kernel.state_of(code) for code in range(3**3)]
        assert len(set(states)) == 3**3
        assert_kernel_matches_domain(domain, states)
        # A state has at most 3 moves, so the tables hold 3 slots per code.
        assert kernel._succ.shape == kernel._move.shape == (3**3, 3)

    def test_scalar_slot_lists_cost_under_64_bytes_a_state(self):
        # The scalar step's successor lists, built on the first step, are
        # what an idle service pair keeps of a Hanoi request.
        kernel = HanoiDomain(10).kernel()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            kernel.step(0, 0.5)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 3**10

    def test_size_cap_returns_none(self):
        assert HanoiDomain(_MAX_KERNEL_DISKS + 1).kernel() is None
        assert HanoiDomain(_MAX_KERNEL_DISKS + 1).kernel() is None  # cached miss

    def test_kernel_cached_per_instance(self):
        domain = HanoiDomain(4)
        assert domain.kernel() is domain.kernel()
        assert HanoiDomain(4).kernel() is not domain.kernel()

    def test_plans_share_state_objects(self):
        domain = HanoiDomain(4)
        kernel = domain.kernel()
        codes = np.array([5, 5, 7], dtype=kernel.code_dtype)
        keys = kernel.state_keys_of(codes)
        assert keys[0] is keys[1] is kernel.state_of(5)
        assert kernel.state_keys_of(codes[2:])[0] is keys[2]


class TestTileKernel:
    def test_random_walk_matches_domain(self):
        domain = SlidingTileDomain(3)
        assert_kernel_matches_domain(domain, random_walk_states(domain, 200, 0))

    def test_decode_key_is_blank_position(self):
        domain = SlidingTileDomain(4)
        kernel = domain.kernel()
        states = random_walk_states(domain, 40, 2)
        codes = np.array([domain.state_key(s) for s in states], dtype=kernel.code_dtype)
        assert kernel.decode_keys_of(codes) == [s.index(0) for s in states]

    def test_boards_above_4x4_have_no_kernel(self):
        assert SlidingTileDomain(4).kernel() is not None
        assert SlidingTileDomain(5).kernel() is None


class TestCubeKernel:
    def test_random_walk_matches_domain(self):
        domain = PocketCubeDomain(scrambled_state(8, make_rng(2)))
        assert_kernel_matches_domain(domain, random_walk_states(domain, 120, 3))

    def test_solved_state_is_goal(self):
        domain = PocketCubeDomain()
        kernel = domain.kernel()
        code = np.array([kernel.code_of_key(domain.state_key(domain.initial_state))])
        assert bool(kernel.goal_mask(code)[0]) and float(kernel.goal_fit(code)[0]) == 1.0


class TestHelpers:
    def test_cached_kernel_negative_result(self):
        domain = HanoiDomain(3)
        calls = []

        def factory(d):
            calls.append(d)
            return None

        assert cached_kernel(domain, factory) is None
        assert cached_kernel(domain, factory) is None
        assert len(calls) == 1  # the negative probe is cached too


class TestKernelLifetime:
    """A kernel dies with its domain, freed by refcount alone (no GC pass)."""

    @pytest.mark.parametrize(
        "make",
        [lambda: HanoiDomain(5), lambda: SlidingTileDomain(3), PocketCubeDomain],
        ids=["hanoi", "tile", "cube"],
    )
    def test_kernel_freed_with_domain(self, make):
        gc.collect()
        before = len(_KERNEL_CACHE)
        gc.disable()
        try:
            domain = make()
            # Exercise the kernel through the object API's states first.
            assert_kernel_matches_domain(domain, random_walk_states(domain, 20, 1))
            assert len(_KERNEL_CACHE) == before + 1
            ref = weakref.ref(domain)
            del domain
            assert ref() is None
            assert len(_KERNEL_CACHE) == before
        finally:
            gc.enable()

    def test_kernel_does_not_keep_its_domain(self):
        domain = HanoiDomain(3)
        kernel = domain.kernel()
        assert kernel.domain is domain
        del domain
        with pytest.raises(ReferenceError):
            kernel.domain
