"""Program ontology: pre/postconditions and resource requirements.

A :class:`ProgramSpec` is the paper's "description of each program": input
data types with constraints (pre-conditions), produced outputs
(post-conditions), and the physical resources required to execute (memory,
disk, and a compute size in Mflop that heterogeneous machine speeds divide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.grid.data import DataProduct
from repro.grid.resources import Machine

__all__ = ["InputSpec", "OutputSpec", "ProgramSpec"]


@dataclass(frozen=True)
class InputSpec:
    """One required input.

    Attributes
    ----------
    dtype:
        Required data type name.
    min_attrs:
        Lower bounds on numeric attributes, e.g. ``(("resolution", 512),)``
        — "program A could require a resolution higher than x".
    requires_history / forbids_history:
        Program names that must / must not appear in the input's genealogy
        — "B could do a filtering in the Fourier domain that would cancel
        the effect of the histogram equalization".
    """

    dtype: str
    min_attrs: tuple = ()
    requires_history: tuple = ()
    forbids_history: tuple = ()

    def accepts(self, product: DataProduct) -> bool:
        if product.dtype != self.dtype:
            return False
        for key, minimum in self.min_attrs:
            value = product.attr(key)
            if value is None or value < minimum:
                return False
        for prog in self.requires_history:
            if not product.processed_by(prog):
                return False
        for prog in self.forbids_history:
            if product.processed_by(prog):
                return False
        return True


@dataclass(frozen=True)
class OutputSpec:
    """One produced output: type plus attribute overrides."""

    dtype: str
    attrs: tuple = ()


@dataclass(frozen=True)
class ProgramSpec:
    """A runnable program in the grid ontology.

    Attributes
    ----------
    name:
        Unique program name.
    inputs / outputs:
        Pre- and postconditions on data.
    flops:
        Compute size in Mflop; runtime on machine ``m`` is
        ``flops / m.effective_speed``.
    min_memory_gb / min_disk_tb:
        Physical resource preconditions.
    params:
        Fixed parameters recorded into output provenance.
    """

    name: str
    inputs: tuple
    outputs: tuple
    flops: float = 1000.0
    min_memory_gb: float = 0.0
    min_disk_tb: float = 0.0
    params: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "params", tuple(self.params))
        if self.flops <= 0:
            raise ValueError(f"program {self.name!r}: flops must be positive")
        if not self.outputs:
            raise ValueError(f"program {self.name!r}: must produce at least one output")

    # -- preconditions --------------------------------------------------------

    def machine_ok(self, machine: Machine) -> bool:
        """Hardware precondition: the machine can host this program."""
        return (
            machine.up
            and machine.memory_gb >= self.min_memory_gb
            and machine.disk_tb >= self.min_disk_tb
        )

    def match_inputs(self, available: Sequence[DataProduct]) -> Optional[tuple]:
        """Greedy matching of available products to input specs.

        Returns one matched product per input (first acceptable, in sorted
        product order, each product used at most once), or ``None`` when
        some input cannot be satisfied.  Deterministic, so grounding the
        planning domain is stable.
        """
        pool = sorted(available, key=repr)
        chosen = []
        used: set = set()
        for spec in self.inputs:
            found = None
            for idx, product in enumerate(pool):
                if idx in used:
                    continue
                if spec.accepts(product):
                    found = idx
                    break
            if found is None:
                return None
            used.add(found)
            chosen.append(pool[found])
        return tuple(chosen)

    # -- postconditions --------------------------------------------------------

    def produce(self, matched_inputs: Sequence[DataProduct]) -> tuple:
        """The output products, with provenance derived from the inputs.

        Output attributes start from the first input's attributes (or empty
        when the program is a source) and apply each output's overrides.
        """
        base = matched_inputs[0] if matched_inputs else DataProduct(dtype="__void__")
        out = []
        for spec in self.outputs:
            product = base.derived(
                dtype=spec.dtype,
                program=self.name,
                params=dict(self.params),
                attrs=dict(base.attrs) | dict(spec.attrs) if matched_inputs else dict(spec.attrs),
            )
            out.append(product)
        return tuple(out)

    def runtime_on(self, machine: Machine) -> float:
        """Estimated execution seconds on *machine* (the ETC entry)."""
        return self.flops / machine.effective_speed
