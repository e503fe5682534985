"""Only the benchmark harness times the program.

``benchmarks/harness`` is the one performance record: its workloads,
layer metrics and checks.  The other scripts under ``benchmarks/``
reproduce the paper's tables, figures and ablations; none of them may
write a ``BENCH_*.json`` timing file, and no such file may sit beside
them.
"""

import re
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
HARNESS = BENCHMARKS / "harness"


def outside_harness():
    return [
        path
        for path in sorted(BENCHMARKS.rglob("*"))
        if path.is_file() and HARNESS not in path.parents
    ]


def test_no_script_outside_the_harness_writes_a_bench_json():
    writers = [
        str(path.relative_to(BENCHMARKS))
        for path in outside_harness()
        if path.suffix == ".py" and re.search(r"\bBENCH_", path.read_text(encoding="utf-8"))
    ]
    assert writers == []


def test_no_bench_json_outside_the_harness():
    found = [
        str(path.relative_to(BENCHMARKS))
        for path in outside_harness()
        if re.fullmatch(r"BENCH_.*\.json", path.name)
    ]
    assert found == []
