"""Units for churn classification and the replan degradation ladder."""

import pytest

from repro.grid.simulator import GridEvent
from repro.grid.workflow_domain import RunProgram, Transfer
from repro.obs import MetricsRegistry, Tracer
from repro.soak import ArrivalStream, ReplanController, request_domain, soak_ontology
from repro.soak.controller import _greedy, relaxed_feasible


def _scenario(seed=3):
    """One planned request on a fresh soak grid."""
    onto = soak_ontology(seed=seed)
    (req,) = ArrivalStream("arrival:rate=1.0,n=1", seed=seed).requests(onto, 100.0)
    domain = request_domain(onto, req, n_stages=3)
    plan = _greedy(domain, domain.initial_state)
    assert plan is not None
    return onto, req, domain, tuple(plan)


class TestInvalidates:
    def setup_method(self):
        self.onto, self.req, self.domain, self.plan = _scenario()
        self.controller = ReplanController(
            self.onto, tracer=Tracer([]), metrics=MetricsRegistry()
        )

    def test_fail_hits_run_program_machine(self):
        run_ops = [op for op in self.plan if isinstance(op, RunProgram)]
        assert run_ops, "scenario plan should run at least one program"
        ev = GridEvent(time=1.0, kind="fail", machine=run_ops[0].machine)
        assert self.controller.invalidates(ev, self.plan)

    def test_fail_on_untouched_machine_is_soft(self):
        touched = set()
        for op in self.plan:
            if isinstance(op, RunProgram):
                touched.add(op.machine)
            elif isinstance(op, Transfer):
                touched.update((op.src, op.dst))
        untouched = [m for m in self.onto.topology.machine_names() if m not in touched]
        assert untouched, "grid should have spare machines"
        ev = GridEvent(time=1.0, kind="fail", machine=untouched[0])
        assert not self.controller.invalidates(ev, self.plan)

    def test_fail_hits_transfer_endpoint(self):
        transfers = [op for op in self.plan if isinstance(op, Transfer)]
        if not transfers:
            pytest.skip("plan has no transfer")
        ev = GridEvent(time=1.0, kind="fail", machine=transfers[0].src)
        assert self.controller.invalidates(ev, self.plan)

    def test_partition_hits_cross_site_transfer(self):
        machines = self.onto.topology.machines
        cross = [
            op
            for op in self.plan
            if isinstance(op, Transfer)
            and machines[op.src].site != machines[op.dst].site
        ]
        if not cross:
            pytest.skip("plan stays within one site")
        op = cross[0]
        ev = GridEvent(
            time=1.0,
            kind="partition",
            machine=machines[op.src].site,
            peer=machines[op.dst].site,
        )
        assert self.controller.invalidates(ev, self.plan)

    def test_soft_kinds_never_invalidate(self):
        machine = self.onto.topology.machine_names()[0]
        sites = sorted({m.site for m in self.onto.topology.machines.values()})
        soft = [
            GridEvent(time=1.0, kind="restore", machine=machine),
            GridEvent(time=1.0, kind="load", machine=machine, value=3.0),
            GridEvent(
                time=1.0, kind="link-degrade", machine=sites[0], peer=sites[1], value=2.0
            ),
            GridEvent(time=1.0, kind="link-restore", machine=sites[0], peer=sites[1]),
        ]
        for ev in soft:
            assert not self.controller.invalidates(ev, self.plan)


class TestRelaxedFeasible:
    def test_feasible_on_healthy_grid(self):
        _onto, _req, domain, _plan = _scenario()
        assert relaxed_feasible(domain, domain.initial_state)

    def test_infeasible_when_source_machine_down(self):
        onto, req, domain, _plan = _scenario()
        for name in onto.topology.machine_names():
            onto.topology.fail_machine(name)
        assert not relaxed_feasible(domain, domain.initial_state)

    def test_infeasible_when_source_lost(self):
        _onto, _req, domain, _plan = _scenario()
        assert not relaxed_feasible(domain, frozenset())


class TestLadder:
    def test_modes_validated(self):
        # The degradation ladder is the only replan mode.
        onto = soak_ontology(seed=0)
        with pytest.raises(TypeError, match="mode"):
            ReplanController(onto, mode="cold")
        with pytest.raises(ValueError, match="budget"):
            ReplanController(onto, replan_budget_s=0.0)

    def test_repair_rung_on_undamaged_plan(self):
        """A fully valid suffix resolves at the repair rung with full reuse."""
        onto, req, domain, plan = _scenario()
        controller = ReplanController(onto, tracer=Tracer([]), metrics=MetricsRegistry())
        decision = controller.replan(
            domain, plan, req, now=1.0, round_index=0, wall_spent_s=0.0
        )
        assert decision.rung == "repair"
        assert decision.plan == plan
        assert decision.reused == len(plan)
        assert decision.repaired == 0

    def test_infeasible_goal_sheds_without_search(self):
        onto, req, domain, plan = _scenario()
        for name in onto.topology.machine_names():
            onto.topology.fail_machine(name)
        controller = ReplanController(onto, tracer=Tracer([]), metrics=MetricsRegistry())
        decision = controller.replan(
            domain, plan, req, now=1.0, round_index=0, wall_spent_s=0.0
        )
        assert decision.rung == "none"
        assert decision.plan is None
        assert decision.seconds < 1.0  # no search budget burned

    def test_replan_ticks_metrics(self):
        onto, req, domain, plan = _scenario()
        metrics = MetricsRegistry()
        controller = ReplanController(onto, tracer=Tracer([]), metrics=metrics)
        controller.replan(domain, plan, req, now=1.0, round_index=0, wall_spent_s=0.0)
        assert metrics.counter("soak_replans").value == 1
        assert metrics.counter("soak_repairs").value == 1
        assert metrics.histogram("replan_latency").count == 1
