"""repro.faults — deterministic fault injection for the unreliable grid.

The paper plans *because* grids are unreliable; this package supplies the
unreliability on demand.  A compact spec string (see
:func:`parse_fault_spec`) describes a fault mix::

    machine-crash:p=0.02;slowdown:factor=4;worker-crash:n=2;eval-timeout:s=5

and :class:`FaultInjector` materialises it — deterministically, from a
seed — into a :class:`FaultPlan`: a grid-event timeline (machine crashes,
transient slowdowns, link degradation, partitions) for the simulator and
coordination service, plus execution-fault directives (worker crashes and
hangs, evaluation timeouts) for the resilient evaluation path in
:mod:`repro.core.resilient`.

Everything downstream is exercised by this one front door: the broker's
next-best-offer retries, the coordinator's replan-from-failure-state loop,
the evaluator's pool-rebuild/serial-degradation ladder, and checkpoint
recovery all have a seeded adversary to prove themselves against, with the
``fault-injected`` / ``retry`` / ``evaluator-degraded`` / ``replan``
events and ``faults_injected`` / ``retries`` / ``degradations`` counters
flowing through :mod:`repro.obs`.

Each name loads with the module that defines it, on first access
(:mod:`repro._lazy`): parsing a spec loads neither the grid nor the GA.
"""

from repro._lazy import lazy_exports

#: Public name → the module that defines it.
_EXPORTS = {
    "FaultInjector": "injector",
    "FaultPlan": "injector",
    "FAULT_KINDS": "spec",
    "FaultClause": "spec",
    "FaultSpec": "spec",
    "parse_fault_spec": "spec",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
