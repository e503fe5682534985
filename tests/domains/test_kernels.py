"""Unit tests for the domain kernels (the array-native ABI, DESIGN.md §12).

Every kernel must agree with its domain's object API on every exposed
table entry — the exactness contract the vector decoder builds on.  The
specialised kernels (Hanoi, sliding tile, pocket cube) are checked by
random walks through the object API; Hanoi's dense table exhaustively.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core import make_rng
from repro.domains import HanoiDomain, PocketCubeDomain, SlidingTileDomain
from repro.domains.hanoi import _MAX_KERNEL_DISKS
from repro.domains.kernels import _KERNEL_CACHE, TableKernel, cached_kernel, grow
from repro.domains.pocket_cube import scrambled_state


def random_walk_states(domain, steps, seed):
    """States visited by a random walk through the object API."""
    rng = make_rng(seed)
    state = domain.initial_state
    out = [state]
    for _ in range(steps):
        ops = domain.valid_operations(state)
        if not ops:
            break
        state = domain.apply(state, ops[int(rng.integers(0, len(ops)))])
        out.append(state)
    return out


def assert_kernel_matches_domain(domain, states):
    """Every table entry for *states* equals the object API's answer."""
    kernel = domain.kernel()
    assert kernel is not None
    for state in states:
        sid = kernel.intern(state)
        ops = tuple(domain.valid_operations(state))
        assert int(kernel.valid_count[sid]) == len(ops)
        assert tuple(kernel.operations_of(sid)) == ops
        assert float(kernel.goal_fit[sid]) == float(domain.goal_fitness(state))
        assert bool(kernel.goal_mask[sid]) == domain.is_goal(state)
        assert kernel.state_key_of(sid) == domain.state_key(state)
        assert kernel.decode_key_of(sid) == domain.decode_key(state)
        assert kernel.id_for_key(domain.state_key(state)) == sid
        if ops:
            slots = np.arange(len(ops), dtype=np.int64)
            ids = np.full(len(ops), sid, dtype=np.int64)
            if (kernel.succ[sid, : len(ops)] < 0).any():
                kernel.fill_transitions(ids, slots)
            for slot, op in enumerate(ops):
                nid = int(kernel.succ[sid, slot])
                assert nid >= 0
                assert kernel.state_key_of(nid) == domain.state_key(
                    domain.apply(state, op)
                )


class TestHanoiKernel:
    def test_exhaustive_table_matches_domain(self):
        domain = HanoiDomain(3)
        kernel = domain.kernel()
        # Dense: every one of the 3^n states is pre-tabulated.
        assert kernel.n_states == 3**3
        states = [kernel.state_of(sid) for sid in range(kernel.n_states)]
        assert_kernel_matches_domain(domain, states)

    def test_size_cap_returns_none(self):
        assert HanoiDomain(_MAX_KERNEL_DISKS + 1).kernel() is None
        assert HanoiDomain(_MAX_KERNEL_DISKS + 1).kernel() is None  # cached miss

    def test_kernel_cached_per_instance(self):
        domain = HanoiDomain(4)
        assert domain.kernel() is domain.kernel()
        assert HanoiDomain(4).kernel() is not domain.kernel()


class TestTileKernel:
    def test_random_walk_matches_domain(self):
        domain = SlidingTileDomain(3)
        assert_kernel_matches_domain(domain, random_walk_states(domain, 200, 0))

    def test_decode_key_is_blank_position(self):
        domain = SlidingTileDomain(3)
        kernel = domain.kernel()
        state = domain.initial_state
        sid = kernel.intern(state)
        assert kernel.decode_key_of(sid) == domain.decode_key(state)

    def test_reset_bumps_epoch_and_clears(self):
        domain = SlidingTileDomain(3)
        kernel = domain.kernel()
        kernel.intern(domain.initial_state)
        epoch = kernel.epoch
        kernel.reset()
        assert kernel.epoch == epoch + 1
        assert kernel.id_for_key(domain.state_key(domain.initial_state)) is None


class TestCubeKernel:
    def test_random_walk_matches_domain(self):
        domain = PocketCubeDomain(scrambled_state(8, make_rng(2)))
        assert_kernel_matches_domain(domain, random_walk_states(domain, 120, 3))

    def test_solved_state_is_goal(self):
        domain = PocketCubeDomain()
        kernel = domain.kernel()
        sid = kernel.intern(domain.initial_state)
        assert bool(kernel.goal_mask[sid]) and float(kernel.goal_fit[sid]) == 1.0


class TestTableKernel:
    def test_matches_any_domain(self):
        # The generic kernel against a specialised domain: same contract.
        domain = HanoiDomain(3)
        kernel = TableKernel(domain)
        states = random_walk_states(domain, 60, 4)
        for state in states:
            sid = kernel.intern(state)
            assert int(kernel.valid_count[sid]) == len(domain.valid_operations(state))
            assert float(kernel.goal_fit[sid]) == float(domain.goal_fitness(state))

    def test_overflow_flag(self):
        domain = HanoiDomain(3)
        kernel = TableKernel(domain, max_states=2)
        for state in random_walk_states(domain, 10, 5):
            kernel.intern(state)
        assert kernel.overflowed
        kernel.reset()
        assert not kernel.overflowed

    def test_rejects_bad_max_states(self):
        with pytest.raises(ValueError):
            TableKernel(HanoiDomain(3), max_states=0)


class TestHelpers:
    def test_grow_doubles_and_fills(self):
        arr = np.zeros((4, 2), dtype=np.int32)
        out = grow(arr, 5, fill=-1)
        assert out.shape[0] >= 5 and (out[4:] == -1).all()
        assert grow(out, 3) is out  # no-op when capacity suffices

    def test_cached_kernel_negative_result(self):
        domain = HanoiDomain(3)
        calls = []

        def factory(d):
            calls.append(d)
            return None

        assert cached_kernel(domain, factory) is None
        assert cached_kernel(domain, factory) is None
        assert len(calls) == 1  # the negative probe is cached too


class _TableHanoi(HanoiDomain):
    """Hanoi served by the generic object-backed kernel."""

    def kernel(self):
        return cached_kernel(self, TableKernel)


class TestKernelLifetime:
    """A kernel dies with its domain, freed by refcount alone (no GC pass)."""

    @pytest.mark.parametrize(
        "make",
        [lambda: HanoiDomain(5), lambda: SlidingTileDomain(3), PocketCubeDomain,
         lambda: _TableHanoi(4)],
        ids=["hanoi", "tile", "cube", "table"],
    )
    def test_kernel_freed_with_domain(self, make):
        gc.collect()
        before = len(_KERNEL_CACHE)
        gc.disable()
        try:
            domain = make()
            # Warm the tables through the object API's states first.
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
