"""Tests for DOT export and small grid utilities."""

import pytest

from repro.grid import Transfer, imaging_pipeline, plan_to_activity_graph, to_dot
from repro.planning.search import goal_gap, greedy_best_first


@pytest.fixture
def graph():
    onto, domain = imaging_pipeline()
    r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
    return domain, plan_to_activity_graph(domain, r.plan)


class TestToDot:
    def test_valid_structure(self, graph):
        domain, ag = graph
        dot = to_dot(ag)
        assert dot.startswith("digraph activity {")
        assert dot.endswith("}")
        # One node line per activity, one edge line per dependency (labels
        # also contain "->" glyphs, so match whole edge statements).
        import re

        assert dot.count("[shape=") == len(ag)
        edges = re.findall(r"^  a\d+ -> a\d+;$", dot, flags=re.MULTILINE)
        assert len(edges) == len(ag.edges())

    def test_node_shapes_by_kind(self, graph):
        domain, ag = graph
        dot = to_dot(ag)
        runs = sum(1 for a in ag.activities() if a.kind == "run")
        transfers = len(ag) - runs
        assert dot.count("shape=box") == runs
        assert dot.count("shape=ellipse") == transfers

    def test_quotes_escaped(self, graph):
        domain, ag = graph
        assert '\\"' not in to_dot(ag)


class TestDomainExecute:
    def test_execute_rejects_invalid_op(self):
        onto, domain = imaging_pipeline()
        raw = next(iter(domain.initial_state))[0]
        bogus = Transfer(raw, "hpc-1", "hpc-2")  # product is not at hpc-1
        with pytest.raises(ValueError, match="not valid"):
            domain.execute([bogus])

    def test_plan_cost_sums(self):
        onto, domain = imaging_pipeline()
        ops = domain.valid_operations(domain.initial_state)[:2]
        total = domain.plan_cost(ops)
        assert total == pytest.approx(sum(domain.operation_cost(op) for op in ops))
