"""Grid-workflow planning domain: the paper's motivating application.

State: the set of ``(data product, machine)`` placements.  Operations:

- ``RunProgram(program, machine)`` — valid when the machine satisfies the
  program's hardware preconditions and every input spec matches a product
  present on that machine; postcondition: the outputs appear on the machine
  (with provenance).  Cost: estimated runtime, ``flops / effective_speed`` —
  *heterogeneous*: the same program costs different amounts on different
  machines, so the GA's cost fitness drives placement.
- ``Transfer(product, src, dst)`` — valid when the product is at ``src``,
  absent at ``dst``, both machines are up and connected; postcondition: the
  product is (also) at ``dst``.  Cost: estimated transfer time.

The goal is a set of ``(dtype, machine)`` requirements ("desired results at
the user's site").  Goal fitness gives full credit per requirement when the
typed product is at the required machine and half credit when it exists
anywhere — so producing the result and delivering it are separately visible
to the GA.

A plan in this domain *is* an activity-graph construction: see
:mod:`repro.grid.activity_graph` for the conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Hashable, Sequence, Tuple

from repro.protocol import PlanningDomain
from repro.grid.data import DataProduct
from repro.grid.ontology import Ontology

__all__ = ["RunProgram", "Transfer", "Placement", "GridWorkflowDomain"]

Placement = Tuple[DataProduct, str]  # (product, machine name)


@dataclass(frozen=True)
class RunProgram:
    """Execute *program* on *machine*, consuming the matched inputs there."""

    program: str
    machine: str
    inputs: tuple  # matched DataProducts (for provenance and the activity graph)
    outputs: tuple  # produced DataProducts

    def __str__(self) -> str:
        return f"run({self.program} @ {self.machine})"


@dataclass(frozen=True)
class Transfer:
    """Copy *product* from *src* to *dst*."""

    product: DataProduct
    src: str
    dst: str

    def __str__(self) -> str:
        return f"xfer({self.product.dtype}: {self.src} -> {self.dst})"


class GridWorkflowDomain(PlanningDomain):
    """Planning over an :class:`Ontology` toward data-product goals.

    Parameters
    ----------
    ontology:
        Programs, data types and the topology.
    initial_placements:
        Where the raw input data starts.
    goal:
        Required ``(dtype, machine)`` pairs.
    max_transfers_per_product:
        Soft cap on fan-out: a product already present at this many machines
        stops generating transfer operations (keeps branching bounded).
    """

    def __init__(
        self,
        ontology: Ontology,
        initial_placements: Sequence[Placement],
        goal: Sequence[Tuple[str, str]],
        max_transfers_per_product: int = 4,
    ) -> None:
        self.ontology = ontology
        self.topology = ontology.topology
        self._initial: FrozenSet[Placement] = frozenset(initial_placements)
        if not goal:
            raise ValueError("goal must name at least one (dtype, machine) requirement")
        for dtype, machine in goal:
            if dtype not in ontology.data_types:
                raise ValueError(f"goal references unknown data type {dtype!r}")
            if machine not in self.topology.machines:
                raise ValueError(f"goal references unknown machine {machine!r}")
        self.goal: Tuple[Tuple[str, str], ...] = tuple(sorted(set(goal)))
        self.max_transfers_per_product = max_transfers_per_product
        self.name = "grid-workflow"
        self._machine_order = self.topology.machine_names()

    # -- PlanningDomain ----------------------------------------------------------

    @property
    def initial_state(self) -> FrozenSet[Placement]:
        return self._initial

    def valid_operations(self, state) -> Sequence[object]:
        ops: list = []
        by_machine: dict = {}
        locations: dict = {}
        for product, machine in state:
            by_machine.setdefault(machine, []).append(product)
            locations.setdefault(product, set()).add(machine)

        # Run operations: sorted program then machine order.
        for pname in self.ontology.program_names():
            program = self.ontology.programs[pname]
            for mname in self._machine_order:
                machine = self.topology.machines[mname]
                if not program.machine_ok(machine):
                    continue
                available = by_machine.get(mname, ())
                matched = program.match_inputs(available)
                if matched is None:
                    continue
                outputs = program.produce(matched)
                # Re-running a program whose outputs are already present is
                # a no-op plan step; prune it to keep branching useful.
                if all((o, mname) in state for o in outputs):
                    continue
                ops.append(
                    RunProgram(program=pname, machine=mname, inputs=matched, outputs=outputs)
                )

        # Transfer operations: every placed product to every other live,
        # reachable machine where it is absent.
        for product in sorted(locations, key=repr):
            at = locations[product]
            if len(at) >= self.max_transfers_per_product:
                continue
            for src in sorted(at):
                if not self.topology.machines[src].up:
                    continue
                for dst in self._machine_order:
                    if dst in at:
                        continue
                    if not self.topology.machines[dst].up:
                        continue
                    if self.topology.bandwidth(src, dst) is None:
                        continue
                    ops.append(Transfer(product=product, src=src, dst=dst))
        return ops

    def apply(self, state, op) -> FrozenSet[Placement]:
        if isinstance(op, RunProgram):
            additions = {(o, op.machine) for o in op.outputs}
            return frozenset(state) | additions
        if isinstance(op, Transfer):
            return frozenset(state) | {(op.product, op.dst)}
        raise TypeError(f"unknown operation type {type(op).__name__}")

    def operation_cost(self, op) -> float:
        if isinstance(op, RunProgram):
            return self.ontology.programs[op.program].runtime_on(
                self.topology.machines[op.machine]
            )
        if isinstance(op, Transfer):
            t = self.topology.transfer_time(
                op.src, op.dst, self.ontology.volume_of(op.product.dtype)
            )
            if t is None:
                raise ValueError(f"no route for {op}")
            return t
        raise TypeError(f"unknown operation type {type(op).__name__}")

    def goal_fitness(self, state) -> float:
        have_at: set = set()
        have_anywhere: set = set()
        for product, machine in state:
            have_at.add((product.dtype, machine))
            have_anywhere.add(product.dtype)
        score = 0.0
        for dtype, machine in self.goal:
            if (dtype, machine) in have_at:
                score += 1.0
            elif dtype in have_anywhere:
                score += 0.5
        return score / len(self.goal)

    def is_goal(self, state) -> bool:
        have_at = {(p.dtype, m) for p, m in state}
        return all(req in have_at for req in self.goal)

    def state_key(self, state) -> Hashable:
        return state

    def relaxed_depth(self, state) -> float:
        """Relaxed parallel steps from *state* until every goal is met.

        Layered fixpoint over ``(dtype, machine)`` pairs ignoring transfer
        caps, attribute/history constraints and all costs: each layer
        spreads every reached dtype to every up machine with a live route,
        and adds a program's output dtypes on every up machine that can
        host it once its input dtypes are there.  Returns the number of
        layers until all goal pairs are reached, or ``math.inf`` when the
        fixpoint misses one — a proof the goal is unreachable, since the
        relaxation only over-approximates reachability.

        As a search heuristic it is what :func:`~repro.planning.search.
        heuristics.goal_gap` cannot be on a pipeline: ``goal_fitness`` is
        flat until the final data type exists, so greedy best-first on the
        goal gap explores that plateau blind, while every useful step
        (a transfer towards a host, a stage run) lowers the depth.
        """
        onto = self.ontology
        topo = self.topology
        up = [m.name for m in topo.up_machines()]
        reach = {(product.dtype, machine) for product, machine in state
                 if topo.machines[machine].up}
        depth = 0
        while not all(req in reach for req in self.goal):
            new = set()
            for dtype, src in reach:
                volume = onto.volume_of(dtype)
                for dst in up:
                    if (dtype, dst) in reach:
                        continue
                    if topo.transfer_time(src, dst, volume) is not None:
                        new.add((dtype, dst))
            for name in onto.program_names():
                program = onto.programs[name]
                for machine in onto.hosts_for(name):
                    if all((spec.dtype, machine.name) in reach for spec in program.inputs):
                        new.update((out.dtype, machine.name) for out in program.outputs)
            new -= reach
            if not new:
                return math.inf
            reach |= new
            depth += 1
        return float(depth)

    def describe_operation(self, op) -> str:
        return str(op)
