"""Tests for the grid-workflow planning domain and ontology."""

import pytest

from repro.core import GAConfig, GAPlanner
from repro.grid import (
    DataProduct,
    DataType,
    GridWorkflowDomain,
    Ontology,
    OutputSpec,
    ProgramSpec,
    RunProgram,
    Transfer,
    imaging_pipeline,
    small_heterogeneous_grid,
)
from repro.planning.search import goal_gap, greedy_best_first


class TestOntology:
    def test_program_must_reference_known_types(self):
        onto = Ontology(small_heterogeneous_grid())
        with pytest.raises(ValueError, match="unknown data type"):
            onto.register_program(
                ProgramSpec(name="p", inputs=(), outputs=(OutputSpec(dtype="zzz"),))
            )

    def test_duplicate_registration_rejected(self):
        onto = Ontology(small_heterogeneous_grid())
        onto.register_data_type(DataType("t"))
        with pytest.raises(ValueError, match="duplicate"):
            onto.register_data_type(DataType("t"))

    def test_hosts_for_filters_by_requirements(self):
        onto, _ = imaging_pipeline()
        hosts = {m.name for m in onto.hosts_for("fft")}  # needs 16 GB
        assert hosts == {"campus-a", "campus-b", "hpc-1", "hpc-2"}

    def test_hosts_exclude_failed_machines(self):
        onto, _ = imaging_pipeline()
        onto.topology.fail_machine("campus-a")
        hosts = {m.name for m in onto.hosts_for("fft")}
        assert "campus-a" not in hosts

    def test_producers_of(self):
        onto, _ = imaging_pipeline()
        producers = {p.name for p in onto.producers_of("filtered")}
        assert producers == {"highpass", "lowpass"}  # two service versions

    def test_volume_of_unknown_type(self):
        onto, _ = imaging_pipeline()
        with pytest.raises(ValueError, match="unknown data type"):
            onto.volume_of("nope")


class TestGridWorkflowDomain:
    def test_goal_validation(self):
        onto, _ = imaging_pipeline()
        raw = DataProduct.make("raw-frames", attrs={"resolution": 1024})
        with pytest.raises(ValueError, match="unknown data type"):
            GridWorkflowDomain(onto, [(raw, "lab-ws")], goal=[("zzz", "lab-ws")])
        with pytest.raises(ValueError, match="unknown machine"):
            GridWorkflowDomain(onto, [(raw, "lab-ws")], goal=[("report", "zzz")])
        with pytest.raises(ValueError, match="at least one"):
            GridWorkflowDomain(onto, [(raw, "lab-ws")], goal=[])

    def test_initial_operations(self):
        _, domain = imaging_pipeline()
        ops = domain.valid_operations(domain.initial_state)
        runs = [op for op in ops if isinstance(op, RunProgram)]
        xfers = [op for op in ops if isinstance(op, Transfer)]
        # Only histeq can run (on the lab ws where the raw frames are,
        # which has 8 GB: histeq needs 4 GB).
        assert {r.program for r in runs} == {"histeq"}
        assert {r.machine for r in runs} == {"lab-ws"}
        # Raw frames can be shipped to any of the four other machines.
        assert len(xfers) == 4

    def test_operation_ordering_deterministic(self):
        _, domain = imaging_pipeline()
        a = [str(op) for op in domain.valid_operations(domain.initial_state)]
        b = [str(op) for op in domain.valid_operations(domain.initial_state)]
        assert a == b

    def test_run_costs_are_heterogeneous(self):
        _, domain = imaging_pipeline()
        state = domain.initial_state
        # Transfer raw frames to both campus-a and hpc-1 and compare histeq cost.
        raw = next(iter(state))[0]
        state = domain.apply(state, Transfer(raw, "lab-ws", "campus-a"))
        state = domain.apply(state, Transfer(raw, "lab-ws", "hpc-1"))
        runs = {
            op.machine: domain.operation_cost(op)
            for op in domain.valid_operations(state)
            if isinstance(op, RunProgram) and op.program == "histeq"
        }
        assert runs["hpc-1"] < runs["campus-a"] < runs["lab-ws"]

    def test_transfer_cost_uses_topology(self):
        _, domain = imaging_pipeline()
        raw = next(iter(domain.initial_state))[0]
        slow = domain.operation_cost(Transfer(raw, "lab-ws", "hpc-1"))
        fast = domain.operation_cost(Transfer(raw, "lab-ws", "campus-a"))
        assert fast < slow  # lab->campus is 1 Gb/s, lab->hpc direct is 100 Mb/s

    def test_goal_fitness_partial_credit(self):
        onto, domain = imaging_pipeline()
        assert domain.goal_fitness(domain.initial_state) == 0.0
        report = DataProduct.make("report")
        # Report exists somewhere (not at the lab): half credit.
        state = frozenset(domain.initial_state) | {(report, "hpc-1")}
        assert domain.goal_fitness(state) == pytest.approx(0.5)
        # Report delivered: full credit.
        state = state | {(report, "lab-ws")}
        assert domain.goal_fitness(state) == 1.0
        assert domain.is_goal(state)

    def test_genealogy_precondition_blocks_lowpass_route(self):
        """The analyze program must reject spectra whose genealogy includes
        the low-pass filter (the paper's footnote scenario)."""
        onto, domain = imaging_pipeline()
        raw = next(iter(domain.initial_state))[0]
        state = domain.initial_state
        state = domain.apply(state, Transfer(raw, "lab-ws", "hpc-1"))
        run = lambda prog: next(
            op for op in domain.valid_operations(state)
            if isinstance(op, RunProgram) and op.program == prog and op.machine == "hpc-1"
        )
        state = domain.apply(state, run("histeq"))
        state = domain.apply(state, run("lowpass"))  # the poisoned branch
        state = domain.apply(state, run("fft"))
        # No analyze operation may be offered anywhere: the only spectrum
        # was low-pass filtered.
        analyzes = [
            op for op in domain.valid_operations(state)
            if isinstance(op, RunProgram) and op.program == "analyze"
        ]
        assert analyzes == []

    def test_rerun_of_satisfied_program_pruned(self):
        _, domain = imaging_pipeline()
        raw = next(iter(domain.initial_state))[0]
        state = domain.initial_state
        histeq = next(
            op for op in domain.valid_operations(state) if isinstance(op, RunProgram)
        )
        state = domain.apply(state, histeq)
        again = [
            op for op in domain.valid_operations(state)
            if isinstance(op, RunProgram) and op.program == "histeq" and op.machine == "lab-ws"
        ]
        assert again == []

    def test_transfer_fanout_cap(self):
        onto, _ = imaging_pipeline()
        raw = DataProduct.make("raw-frames", attrs={"resolution": 1024})
        domain = GridWorkflowDomain(
            onto, [(raw, "lab-ws")], goal=[("report", "lab-ws")],
            max_transfers_per_product=1,
        )
        ops = domain.valid_operations(domain.initial_state)
        assert not any(isinstance(op, Transfer) for op in ops)

    def test_greedy_plan_solves(self):
        _, domain = imaging_pipeline()
        r = greedy_best_first(domain, goal_gap(domain, scale=100.0), max_expansions=100_000)
        assert r.solved
        state = domain.initial_state
        for op in r.plan:
            state = domain.apply(state, op)
        assert domain.is_goal(state)

    def test_ga_plans_the_pipeline(self):
        _, domain = imaging_pipeline()
        cfg = GAConfig(population_size=60, generations=60, max_len=24, init_length=8)
        outcome = GAPlanner(domain, cfg, multiphase=3, seed=3).solve()
        assert outcome.solved
