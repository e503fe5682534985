"""Expected-time-to-compute (ETC) matrix generation — Braun et al. (2001).

The paper's related work ([4, 19, 20]) maps independent tasks onto
heterogeneous machines; the standard benchmark parameterises an ETC matrix
``etc[task, machine]`` by *task heterogeneity*, *machine heterogeneity*, and
*consistency*:

- **consistent** — machine columns are sorted per task: a machine faster on
  one task is faster on all;
- **inconsistent** — no such structure;
- **semi-consistent** — a consistent sub-matrix embedded in an inconsistent
  one (even-indexed columns sorted).

Generation follows the range-based method: ``etc[i, j] = tau_i * u_ij`` with
``tau_i ~ U(1, R_task)`` and ``u_ij ~ U(1, R_mach)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ETCParams", "generate_etc", "CONSISTENCY_KINDS", "HETEROGENEITY_RANGES"]

CONSISTENCY_KINDS = ("consistent", "semi", "inconsistent")

#: Braun et al.'s hi/lo heterogeneity ranges.
HETEROGENEITY_RANGES = {"lo": 10.0, "hi": 100.0, "hi-task": 3000.0}


@dataclass(frozen=True)
class ETCParams:
    """Parameters of one ETC instance."""

    n_tasks: int = 512
    n_machines: int = 16
    task_heterogeneity: float = 3000.0
    machine_heterogeneity: float = 100.0
    consistency: str = "inconsistent"

    def __post_init__(self) -> None:
        if self.n_tasks < 1 or self.n_machines < 1:
            raise ValueError("need at least one task and one machine")
        if self.task_heterogeneity <= 1 or self.machine_heterogeneity <= 1:
            raise ValueError("heterogeneity ranges must exceed 1")
        if self.consistency not in CONSISTENCY_KINDS:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_KINDS}, got {self.consistency!r}"
            )


def generate_etc(params: ETCParams, rng: np.random.Generator) -> np.ndarray:
    """An ``(n_tasks, n_machines)`` ETC matrix per the range-based method."""
    tau = rng.uniform(1.0, params.task_heterogeneity, size=(params.n_tasks, 1))
    u = rng.uniform(1.0, params.machine_heterogeneity, size=(params.n_tasks, params.n_machines))
    etc = tau * u
    if params.consistency == "consistent":
        etc.sort(axis=1)
    elif params.consistency == "semi":
        sub = etc[:, ::2]
        sub.sort(axis=1)
        etc[:, ::2] = sub
    return etc
