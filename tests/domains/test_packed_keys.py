"""The packed-int state keys of the sliding tile and the pocket cube.

Both domains key a state by one Python int that is also its kernel code
(DESIGN.md §12): the tile board at 4 bits per cell up to 4×4 (a byte per
cell above), the cube's 40-bit cubie word.  These tests hold the key
contract the decoders rely on — injective, and round-tripping through the
kernel's codes — and check that a kernel walk keeps no memory per state.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, GARun, make_rng, run_ga
from repro.domains import PocketCubeDomain, SlidingTileDomain
from repro.domains.pocket_cube import scrambled_state
from repro.domains.sliding_tile import random_solvable_start
from tests.oracle import ReferenceEvaluator


def boards(n, count, seed):
    rng = make_rng(seed)
    return [random_solvable_start(n, rng) for _ in range(count)]


def assert_key_contract(domain, states):
    keys = [domain.state_key(s) for s in states]
    assert len(set(keys)) == len(set(states))  # distinct states, distinct keys
    kernel = domain.kernel()
    if kernel is None:
        return
    codes = np.array([kernel.code_of_key(k) for k in keys], dtype=kernel.code_dtype)
    assert codes.tolist() == keys  # the key is the code
    assert kernel.state_keys_of(codes) == keys
    assert [kernel.state_of(c) for c in keys] == states


class TestTileKeys:
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_key_contract(self, n, seed):
        states = boards(n, 12, seed)
        domain = SlidingTileDomain(n, initial=states[0])
        assert_key_contract(domain, states)

    def test_key_is_the_packed_board(self):
        for n, bits in ((3, 4), (4, 4), (5, 8)):
            domain = SlidingTileDomain(n)
            state = domain.initial_state
            want = sum(tile << (bits * i) for i, tile in enumerate(state))
            assert domain.state_key(state) == want

    def test_board_wider_than_a_byte_per_cell_rejected(self):
        SlidingTileDomain(16, check_solvable=False)  # cells 0..255 still fit
        with pytest.raises(ValueError, match="byte per cell"):
            SlidingTileDomain(17)

    def test_final_state_stays_a_tuple(self):
        domain = SlidingTileDomain(3)
        config = GAConfig(population_size=8, generations=2, max_len=64, init_length=16)
        result = run_ga(domain, config, make_rng(1))
        assert isinstance(result.best.decoded.final_state, tuple)


class TestCubeKeys:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_key_contract(self, seed):
        rng = make_rng(seed)
        states = [scrambled_state(int(rng.integers(0, 12)), rng) for _ in range(12)]
        domain = PocketCubeDomain(states[0])
        assert_key_contract(domain, states)

    def test_key_is_the_packed_cubies(self):
        cp, co = state = scrambled_state(6, make_rng(3))
        want = sum(p << (3 * i) for i, p in enumerate(cp))
        want |= sum(o << (24 + 2 * i) for i, o in enumerate(co))
        assert PocketCubeDomain().state_key(state) == want
        assert want < 2**40


def test_tile5_engine_plans_match_oracle():
    # Boards above 4×4 have no kernel and decode on the engine.
    domain = SlidingTileDomain(5, initial=random_solvable_start(5, make_rng(5)))
    assert domain.kernel() is None
    config = GAConfig(
        population_size=12, max_len=200, init_length=50,
        crossover="state-aware",
    )
    runs = [
        GARun(domain, config, make_rng(9)),
        GARun(domain, config, make_rng(9), evaluator=ReferenceEvaluator()),
    ]
    for _ in range(3):
        eng_stats, ref_stats = (run.step() for run in runs)
        assert eng_stats == ref_stats
    assert runs[0].evaluator.vector_counters() is None
    for run in runs:
        run.evaluator.evaluate_buffer(run.buffer, run.context)
    eng, ref = (run.buffer for run in runs)
    for i in range(eng.n):
        a, b = eng.plans[i], ref.plans[i]
        assert a.operations == b.operations
        assert a.state_keys == b.state_keys
        assert a.match_keys == b.match_keys
        assert a.final_state == b.final_state
        assert eng.fitness_result(i) == ref.fitness_result(i)


def test_tile4_kernel_keeps_no_per_state_memory():
    """A long tile4 walk leaves nothing behind in the kernel.

    Codes are the states, so the kernel has no table that grows with the
    states reached; 2000 rows × 300 genes reach about 600k boards.
    """
    domain = SlidingTileDomain(4)
    kernel = domain.kernel()
    rng = make_rng(3)
    codes = np.full(2000, domain.state_key(domain.initial_state), dtype=kernel.code_dtype)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(300):
            k = kernel.valid_count(codes)
            codes = kernel.advance(codes, (rng.random(codes.size) * k).astype(np.int64))
        kernel.goal_fit(codes)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(codes.tolist())) > 1000
    assert after - before < 64 * 1024  # about one code array
