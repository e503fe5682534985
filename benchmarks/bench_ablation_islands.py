"""Ablation bench: portfolio vs ring islands vs one population, equal budget.

The trial grid, per-trial seeds and aggregation live in the declarative
``islands-portfolio`` spec (:mod:`repro.exp.islands_portfolio`); like the
``bench_table*`` wrappers this bench runs the sweep in memory, emits the
paper-shaped table, and asserts its shape: every structure appears for
every disk count, fitness stays in range, and whenever both the portfolio
and the ring solve a size, the portfolio's first solution is no slower
than the ring's at the median.
"""

from conftest import emit

from repro.exp import run_inline


def test_island_ablation(benchmark, scale, results_dir):
    result = benchmark.pedantic(
        run_inline, args=("islands-portfolio",), kwargs={"scale": scale}, rounds=1, iterations=1
    )
    assert not result.failed
    table = result.table()
    emit(table, results_dir, "ablation_islands")

    structures = {r[0] for r in table.rows}
    assert structures == {"single", "ring-islands", "portfolio"}
    assert all(0.0 <= r[2] <= 1.0 for r in table.rows)

    rows = {(r[0], r[1]): r for r in table.rows}
    for (structure, disks), row in rows.items():
        if structure != "portfolio":
            continue
        ring = rows.get(("ring-islands", disks))
        # Median TTFS comparison only when both structures solved some runs.
        if ring and row[6] != "-" and ring[6] != "-":
            assert row[6] <= ring[6] * 1.5  # portfolio should not be slower
