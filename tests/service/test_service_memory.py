"""The service keeps in memory only what its requests read (DESIGN.md §15).

A kernel domain decodes on its codes, so a warm pair keeps no table of
states, and a fitness memo keeps each genome's fitness, never its plan.
Churning request shapes must therefore not grow the server's heap by
more than the memos' fitness entries.  tracemalloc counts only the
Python heap this process allocates after it starts, independent of the
allocator and of other processes.
"""

import gc
import tracemalloc

from repro.service import DONE, PlanRequest, RunScheduler

#: Bound on the heap 20 distinct-seed tile-3 requests may retain, in MB.
#: Measured (CPython 3.11, numpy 2.4, 2 cores): 4.3 MB, the 20 fitness
#: memos; 35.4 MB when the pair kept a transition table of every state the
#: requests walked and each memo entry its plan.
TILE_CHURN_BOUND_MB = 15.0


def tile3(seed):
    return PlanRequest(domain="tile", size=3, seed=seed, budget=12, population=30)


def test_tile_churn_keeps_the_retained_heap_bounded():
    scheduler = RunScheduler()
    warm = scheduler.submit(tile3(0))  # imports, the kernel and the pair
    scheduler.drain()
    assert warm.state == DONE
    gc.collect()
    tracemalloc.start()
    try:
        for seed in range(1, 21):
            run = scheduler.submit(tile3(seed))
            scheduler.drain()
            assert run.state == DONE
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    memos = scheduler.stats()["cache"]["memos"]
    assert memos["trajectories"] == 21
    assert grown < TILE_CHURN_BOUND_MB, f"retained heap grew {grown:.1f} MB over 20 requests"
