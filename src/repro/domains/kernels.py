"""Kernel plumbing: the generic table kernel and the per-domain cache.

The specialised kernels (Hanoi's dense base-3 tables, the sliding tile's
packed boards, the pocket cube's composed move tables) live next to their
domains; this module holds what they share:

- :func:`cached_kernel` — the one-kernel-per-domain-instance cache behind
  every ``PlanningDomain.kernel()`` implementation, so repeated capability
  probes are free and concurrent consumers (islands, multi-phase, several
  evaluators) share warm tables.  The cache is external to the domain on
  purpose: domains are pickled to process-pool workers, and a kernel held
  in an attribute would ship megabytes of tables with every pool start.
- :func:`intern_rows` — the packed kernels' one intern loop: a batch of
  ``uint8`` rows becomes ids through a dict keyed by each row's packed
  int, the same int their domains' ``state_key`` returns.
- :class:`TableKernel` — a generic, object-backed
  :class:`~repro.protocol.DomainKernel` for *any* domain with hashable
  state keys.  It builds its tables by calling the object API
  (``valid_operations`` / ``apply`` / ``goal_fitness`` / ``is_goal``) the
  first time each state or transition is needed, so it is exactly as
  correct as the domain itself — just amortised into arrays.  Specialised
  kernels beat it by *vectorising* expansion; it exists so irregular
  domains (and tests) can opt into the vector decode path with one line.

Ownership rule: a kernel holds its domain *weakly*
(:attr:`~repro.protocol.DomainKernel.domain`), and the cache holds the
domain weakly too, so nothing here keeps a domain alive — a domain's
kernel (tens to hundreds of MB of tables for the larger puzzles) is freed
by refcount the moment the last reference to the domain goes.  Whoever
keeps a kernel keeps its domain: :class:`~repro.core.vector_decode.
VectorDecoder` stores the domain it was built from, and any other
long-lived holder of a kernel must do the same.

This module deliberately imports only :mod:`repro.protocol` and numpy —
never ``repro.core`` — so domain modules can define kernels without import
cycles.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

from repro.protocol import DomainKernel, PlanningDomain

__all__ = ["TableKernel", "cached_kernel", "grow", "intern_rows"]


#: domain instance -> its kernel (or None for "probed, unsupported").
_KERNEL_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_UNSUPPORTED = object()


def cached_kernel(
    domain: PlanningDomain,
    factory: Callable[[PlanningDomain], Optional[DomainKernel]],
) -> Optional[DomainKernel]:
    """The kernel for *domain*, built once per instance via *factory*.

    ``factory(domain)`` may return ``None`` ("unsupported at this size");
    the negative result is cached too.  Entries die with the domain
    instance (weak keys, and kernels refer back to their domain only
    weakly), so long-lived processes cycling through many domains don't
    accumulate tables.  The cache never keeps a domain alive: hold the
    domain for as long as you use its kernel.
    """
    hit = _KERNEL_CACHE.get(domain)
    if hit is not None:
        return None if hit is _UNSUPPORTED else hit
    kernel = factory(domain)
    _KERNEL_CACHE[domain] = _UNSUPPORTED if kernel is None else kernel
    return kernel


def grow(arr: np.ndarray, needed: int, fill=None) -> np.ndarray:
    """Amortised-doubling reallocation of a row-indexed table.

    Returns an array whose first dimension is at least *needed*, with the
    old rows copied over and (optionally) new rows set to *fill*.
    """
    cap = arr.shape[0]
    if needed <= cap:
        return arr
    new_cap = max(needed, 2 * cap)
    out = np.empty((new_cap,) + arr.shape[1:], dtype=arr.dtype)
    out[:cap] = arr
    if fill is not None:
        out[cap:] = fill
    return out


def intern_rows(
    ids: dict, keys: list, rows: np.ndarray, admit: Callable[[np.ndarray], None]
) -> np.ndarray:
    """Ids for a ``(m, w)`` uint8 row batch, admitting unseen rows in bulk.

    A row's key is ``int.from_bytes(row, "little")``: one Python int per
    state that the *ids* dict (key → id) and the id-indexed *keys* list
    share, and that the kernel serves as the state key, so plans and
    memos hold the same object rather than a copy.  Unseen rows get the
    next ids in row order (a row repeated within the batch is admitted
    once); ``admit(new_rows)`` is then called once with them, after
    *keys* has grown, so the new ids are ``len(keys) - len(new_rows)``
    onwards.
    """
    width = rows.shape[1]
    data = rows.tobytes()
    from_bytes = int.from_bytes
    get = ids.get
    out: list = []
    new_rows: list = []
    for i, off in enumerate(range(0, len(data), width)):
        key = from_bytes(data[off : off + width], "little")
        sid = get(key)
        if sid is None:
            sid = ids[key] = len(keys)
            keys.append(key)
            new_rows.append(i)
        out.append(sid)
    if new_rows:
        admit(rows[new_rows])
    return np.array(out, dtype=np.int64)


class TableKernel(DomainKernel):
    """Object-backed kernel: arrays grown by calling the domain's own API.

    Any domain with hashable, injective ``state_key`` values qualifies —
    including ones with dead ends (``valid_count`` 0) and non-unit
    operation costs.  Interning a state computes its valid-operation
    tuple, goal fitness and goal flag once; transitions are filled on
    demand per ``(state, slot)`` pair.  All values come from the object
    API verbatim, so bit-identity with the object decode path is inherited
    rather than re-proven.
    """

    def __init__(self, domain: PlanningDomain, max_states: int = 200_000) -> None:
        if max_states < 1:
            raise ValueError(f"max_states must be >= 1, got {max_states}")
        self.domain = domain
        self.max_states = max_states
        self.unit_cost = (
            type(domain).operation_cost is PlanningDomain.operation_cost
        )
        self.epoch = 0
        self.max_ops = 1  # grows with the widest state seen
        self._ids: dict = {}  # state_key -> id
        self._states: list = []  # id -> concrete state
        self._valid: list = []  # id -> valid-operation tuple
        cap = 256
        self._vc = np.zeros(cap, dtype=np.int32)
        self._succ = np.full((cap, self.max_ops), -1, dtype=np.int32)
        self._gfit = np.zeros(cap, dtype=np.float64)
        self._gmask = np.zeros(cap, dtype=bool)
        self._cost = (
            None if self.unit_cost else np.zeros((cap, self.max_ops), dtype=np.float64)
        )

    # -- DomainKernel surface -------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self._states)

    @property
    def valid_count(self) -> np.ndarray:
        return self._vc

    @property
    def succ(self) -> np.ndarray:
        return self._succ

    @property
    def goal_fit(self) -> np.ndarray:
        return self._gfit

    @property
    def goal_mask(self) -> np.ndarray:
        return self._gmask

    @property
    def op_cost(self) -> Optional[np.ndarray]:
        return self._cost

    @property
    def overflowed(self) -> bool:
        return len(self._states) > self.max_states

    def reset(self) -> None:
        self._ids.clear()
        self._states.clear()
        self._valid.clear()
        self._succ[:, :] = -1
        self.epoch += 1

    def intern(self, state) -> int:
        key = self.domain.state_key(state)
        sid = self._ids.get(key)
        if sid is not None:
            return sid
        return self._admit(key, state)

    def id_for_key(self, key: Hashable) -> Optional[int]:
        return self._ids.get(key)

    def _admit(self, key: Hashable, state) -> int:
        domain = self.domain
        sid = len(self._states)
        valid = tuple(domain.valid_operations(state))
        if len(valid) > self.max_ops:
            self._widen(len(valid))
        needed = sid + 1
        self._vc = grow(self._vc, needed)
        self._succ = grow(self._succ, needed, fill=-1)
        self._gfit = grow(self._gfit, needed)
        self._gmask = grow(self._gmask, needed)
        if self._cost is not None:
            self._cost = grow(self._cost, needed)
        self._ids[key] = sid
        self._states.append(state)
        self._valid.append(valid)
        self._vc[sid] = len(valid)
        self._succ[sid, :] = -1
        self._gfit[sid] = float(domain.goal_fitness(state))
        self._gmask[sid] = bool(domain.is_goal(state))
        return sid

    def _widen(self, new_max_ops: int) -> None:
        """Widen the per-slot tables when a state has more ops than any before."""
        old = self._succ
        self._succ = np.full((old.shape[0], new_max_ops), -1, dtype=np.int32)
        self._succ[:, : old.shape[1]] = old
        if self._cost is not None:
            old_c = self._cost
            self._cost = np.zeros((old_c.shape[0], new_max_ops), dtype=np.float64)
            self._cost[:, : old_c.shape[1]] = old_c
        self.max_ops = new_max_ops

    def fill_transitions(self, ids, slots) -> None:
        domain = self.domain
        seen = set()
        for sid, slot in zip(ids.tolist(), slots.tolist()):
            if (sid, slot) in seen or self._succ[sid, slot] >= 0:
                continue
            seen.add((sid, slot))
            op = self._valid[sid][slot]
            nid = self.intern(domain.apply(self._states[sid], op))
            # intern() may have reallocated the tables; index fresh.
            self._succ[sid, slot] = nid
            if self._cost is not None:
                self._cost[sid, slot] = float(domain.operation_cost(op))

    # -- reconstruction -------------------------------------------------------

    def state_of(self, sid: int):
        return self._states[sid]

    def operations_of(self, sid: int) -> Sequence:
        return self._valid[sid]
