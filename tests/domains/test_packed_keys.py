"""The packed-int state keys of the sliding tile and the pocket cube.

Both domains key a state by its cells packed one byte each into a Python
int, and their kernels index states by that same int and hand it out as
the state key (DESIGN.md §12).  These tests hold the key contract the
decoders rely on — injective, shared between domain and kernel, and
round-tripping through ids — and bound the memory one interned state
costs, which is what the single key object buys.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAConfig, GARun, SerialEvaluator, make_rng, run_ga
from repro.domains import PocketCubeDomain, SlidingTileDomain
from repro.domains.pocket_cube import scrambled_state
from repro.domains.sliding_tile import random_solvable_start
from tests.oracle import ReferenceEvaluator


def boards(n, count, seed):
    rng = make_rng(seed)
    return [random_solvable_start(n, rng) for _ in range(count)]


def assert_key_contract(domain, kernel, states):
    keys = [domain.state_key(s) for s in states]
    assert len(set(keys)) == len(set(states))  # distinct states, distinct keys
    for state, key in zip(states, keys):
        sid = kernel.intern(state)
        assert kernel.id_for_key(key) == sid
        assert kernel.state_key_of(sid) == key
        assert kernel.state_of(sid) == state
    sids = [kernel.id_for_key(k) for k in keys]
    assert kernel.state_keys_of(np.asarray(sids)) == keys


class TestTileKeys:
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_key_contract(self, n, seed):
        states = boards(n, 12, seed)
        domain = SlidingTileDomain(n, initial=states[0])
        assert_key_contract(domain, domain.kernel(), states)

    def test_key_is_the_packed_board(self):
        domain = SlidingTileDomain(3)
        state = domain.initial_state
        assert domain.state_key(state) == int.from_bytes(bytes(state), "little")

    def test_kernel_serves_its_interned_key(self):
        domain = SlidingTileDomain(4)
        kernel = domain.kernel()
        sid = kernel.intern(domain.initial_state)
        assert kernel.state_key_of(sid) is kernel.state_keys_of(np.array([sid]))[0]

    def test_foreign_key_misses(self):
        domain = SlidingTileDomain(3)
        kernel = domain.kernel()
        state = domain.initial_state
        kernel.intern(state)
        assert kernel.id_for_key(state) is None  # the old tuple form
        assert kernel.id_for_key(bytes(state)) is None

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
        assert_key_contract(domain, domain.kernel(), states)

    def test_key_is_the_packed_cubies(self):
        cp, co = state = scrambled_state(6, make_rng(3))
        assert PocketCubeDomain().state_key(state) == int.from_bytes(bytes(cp + co), "little")

    def test_foreign_key_misses(self):
        domain = PocketCubeDomain()
        kernel = domain.kernel()
        kernel.intern(domain.initial_state)
        assert kernel.id_for_key(domain.initial_state) is None


def test_tile5_vector_plans_match_oracle():
    domain = SlidingTileDomain(5, initial=random_solvable_start(5, make_rng(5)))
    config = GAConfig(
        population_size=12, max_len=200, init_length=50,
        crossover="state-aware",
    )
    runs = [
        GARun(domain, config, make_rng(9)),
        GARun(domain, config, make_rng(9), evaluator=ReferenceEvaluator()),
    ]
    for _ in range(3):
        vec_stats, ref_stats = (run.step() for run in runs)
        assert vec_stats == ref_stats
    for run in runs:
        run.evaluator.evaluate_buffer(run.buffer, run.context)
    vec, ref = (run.population for run in runs)
    for a, b in zip(vec, ref):
        assert a.decoded.operations == b.decoded.operations
        assert a.decoded.state_keys == b.decoded.state_keys
        assert a.decoded.match_keys == b.decoded.match_keys
        assert a.decoded.final_state == b.decoded.final_state
        assert a.fitness == b.fitness


def test_tile4_bytes_per_interned_state():
    """One packed int per state: ≤ 360 traced bytes per interned state.

    Traced memory covers the kernel's tables, its index dict and key
    list, and the decoder's memo; this shape interns about 34.5k states.
    A second per-state key object (a 16-int tuple is 168 B) breaks it.
    """
    config = GAConfig(population_size=100, max_len=512, init_length=128, stop_on_goal=False)
    tracemalloc.start()
    try:
        domain = SlidingTileDomain(4)
        with SerialEvaluator() as evaluator:
            run = GARun(domain, config, make_rng(7), evaluator=evaluator)
            for _ in range(6):
                run.step()
            traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    states = domain.kernel().n_states
    assert states > 30_000
    assert traced / states <= 360, f"{traced / states:.0f} B per state over {states} states"
