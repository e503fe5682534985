"""The ontology registry — the grid's "meta-information" store.

Collects the three ontologies the paper assumes (data, programs, hardware)
behind one lookup service used by the planner, the broker and the
coordination service.
"""

from __future__ import annotations

from typing import Dict, List

from repro.grid.data import DataType
from repro.grid.programs import ProgramSpec
from repro.grid.resources import GridTopology, Machine

__all__ = ["Ontology"]


class Ontology:
    """Registry of data types and program specs over a grid topology."""

    def __init__(self, topology: GridTopology) -> None:
        self.topology = topology
        self.data_types: Dict[str, DataType] = {}
        self.programs: Dict[str, ProgramSpec] = {}

    # -- registration ----------------------------------------------------------

    def register_data_type(self, dtype: DataType) -> "Ontology":
        if dtype.name in self.data_types:
            raise ValueError(f"duplicate data type {dtype.name!r}")
        self.data_types[dtype.name] = dtype
        return self

    def register_program(self, program: ProgramSpec) -> "Ontology":
        if program.name in self.programs:
            raise ValueError(f"duplicate program {program.name!r}")
        for spec in program.inputs:
            if spec.dtype not in self.data_types:
                raise ValueError(
                    f"program {program.name!r} consumes unknown data type {spec.dtype!r}"
                )
        for spec in program.outputs:
            if spec.dtype not in self.data_types:
                raise ValueError(
                    f"program {program.name!r} produces unknown data type {spec.dtype!r}"
                )
        self.programs[program.name] = program
        return self

    # -- queries ----------------------------------------------------------------

    def program_names(self) -> List[str]:
        return sorted(self.programs)

    def volume_of(self, dtype: str) -> float:
        try:
            return self.data_types[dtype].volume_mb
        except KeyError:
            raise ValueError(f"unknown data type {dtype!r}") from None

    def hosts_for(self, program_name: str) -> List[Machine]:
        """Machines whose hardware satisfies the program's preconditions."""
        try:
            program = self.programs[program_name]
        except KeyError:
            raise ValueError(f"unknown program {program_name!r}") from None
        return [m for m in self.topology.up_machines() if program.machine_ok(m)]

    def producers_of(self, dtype: str) -> List[ProgramSpec]:
        """Programs that can produce *dtype* (multiple versions may exist)."""
        return [
            self.programs[name]
            for name in self.program_names()
            if any(o.dtype == dtype for o in self.programs[name].outputs)
        ]
