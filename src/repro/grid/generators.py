"""Random grid and workflow generators for tests and benchmarks.

Produce random — but *solvable by construction* — grid topologies and
pipeline ontologies: every generated stage is hostable by at least one live
machine, all sites are connected, and the raw input is placed somewhere
real.  Property-based tests sweep seeds through these generators and assert
the whole stack (plan → activity graph → simulation) holds up.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.grid.data import DataProduct, DataType
from repro.grid.ontology import Ontology
from repro.grid.programs import InputSpec, OutputSpec, ProgramSpec
from repro.grid.resources import GridTopology, Link, Machine, Site
from repro.grid.workflow_domain import GridWorkflowDomain

__all__ = ["random_grid", "random_pipeline"]

# Memory tiers machines/programs draw from; programs only ever require a
# tier that some machine provides (solvability by construction).
_MEMORY_TIERS = (4.0, 8.0, 16.0, 32.0)


def random_grid(
    rng: np.random.Generator,
    n_sites: int = 3,
    machines_per_site: int = 2,
) -> GridTopology:
    """A connected random topology with heterogeneous speeds and links."""
    if n_sites < 1 or machines_per_site < 1:
        raise ValueError("need at least one site and one machine per site")
    topo = GridTopology()
    for s in range(n_sites):
        topo.add_site(Site(f"site{s}"))
        for m in range(machines_per_site):
            topo.add_machine(
                Machine(
                    name=f"m{s}-{m}",
                    site=f"site{s}",
                    speed=float(rng.uniform(500, 8000)),
                    memory_gb=float(rng.choice(_MEMORY_TIERS)),
                    disk_tb=float(rng.uniform(1, 32)),
                )
            )
    # Ring of links guarantees connectivity; extra chords at random.
    for s in range(n_sites - 1):
        topo.add_link(
            Link(
                f"site{s}",
                f"site{s + 1}",
                bandwidth_mbps=float(rng.uniform(100, 10_000)),
                latency_s=float(rng.uniform(0.0, 0.05)),
            )
        )
    if n_sites > 2 and rng.random() < 0.5:
        topo.add_link(
            Link(
                "site0",
                f"site{n_sites - 1}",
                bandwidth_mbps=float(rng.uniform(100, 10_000)),
            )
        )
    return topo


def random_pipeline(
    rng: np.random.Generator,
    n_stages: int = 4,
    n_sites: int = 3,
    machines_per_site: int = 2,
    alternative_versions: bool = True,
) -> Tuple[Ontology, GridWorkflowDomain]:
    """A random linear pipeline over a random grid, solvable by construction.

    ``dt0 --stage0--> dt1 --stage1--> ... --> dt[n]``; each stage may exist
    in two versions with different costs (the service-grid "multiple
    versions" scenario).  The raw input starts at a random machine; the
    goal is the final data type delivered to a random machine.
    """
    if n_stages < 1:
        raise ValueError("need at least one stage")
    topo = random_grid(rng, n_sites=n_sites, machines_per_site=machines_per_site)
    onto = Ontology(topo)

    # Memory requirements drawn only from tiers some machine actually has.
    available_tiers = sorted({m.memory_gb for m in topo.machines.values()})

    for i in range(n_stages + 1):
        onto.register_data_type(
            DataType(f"dt{i}", volume_mb=float(rng.uniform(10, 2000)))
        )
    for i in range(n_stages):
        n_versions = 2 if alternative_versions and rng.random() < 0.5 else 1
        for v in range(n_versions):
            name = f"stage{i}" if v == 0 else f"stage{i}-alt"
            onto.register_program(
                ProgramSpec(
                    name=name,
                    inputs=(InputSpec(dtype=f"dt{i}"),),
                    outputs=(OutputSpec(dtype=f"dt{i + 1}"),),
                    flops=float(rng.uniform(500, 20_000)),
                    min_memory_gb=float(
                        available_tiers[int(rng.integers(0, len(available_tiers)))]
                    ),
                )
            )

    machines = topo.machine_names()
    src = machines[int(rng.integers(0, len(machines)))]
    dst = machines[int(rng.integers(0, len(machines)))]
    raw = DataProduct.make(f"dt0", attrs={"seed": int(rng.integers(0, 1 << 30))})
    domain = GridWorkflowDomain(
        ontology=onto,
        initial_placements=[(raw, src)],
        goal=[(f"dt{n_stages}", dst)],
        max_transfers_per_product=3,
    )
    return onto, domain
