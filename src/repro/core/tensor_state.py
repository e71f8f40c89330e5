"""Per-session tensor state: the executor's private placement table.

Historically the runtime mutated scheduling state (``placement``,
``locked``, ``host_resident``) directly on :class:`~repro.tensors.tensor.Tensor`
descriptors.  Descriptors belong to the *net*, and the net is shared by
every session an :class:`~repro.core.engine.Engine` spawns — so two
sessions could only interleave at iteration granularity, where the
shared fields are guaranteed to be back at their settled values.

:class:`SessionTensorState` removes that constraint.  It is a table of
*all* executor-mutated per-tensor state, keyed by ``tensor_id`` and
owned by exactly one :class:`~repro.core.runtime.Executor`:

* the placement state machine (UNALLOCATED/GPU/HOST/FREED);
* the LRU-cache lock bit (paper Alg. 2 ``T.Lock``);
* host-copy residency (a valid copy exists in host RAM);
* prefetch-arrival membership (H2D copies in flight);
* the live-descriptor set reported in step traces.

``Tensor`` keeps only immutable identity (shape, dtype, nbytes, name,
kind, producer); every policy reads and writes session-local state
through ``StepContext.state``.  Two sessions can therefore run the same
net concurrently at *op* granularity — each thread sees only its own
placements and locks (proven by ``tests/test_parallel_sessions.py``).

``validate=True`` arms the placement state machine::

    UNALLOCATED --alloc--> GPU --offload--> HOST --prefetch--> GPU
                            |                 |
                            +----free---------+---free--> FREED
                            ^                             |
                            +-------(recompute re-allocs)-+

Every ``set_placement`` is then checked against the legal edges (plus
same-state no-ops).  The runtime leaves validation off on the hot path;
``validate=None`` (the default) defers to the ``REPRO_VALIDATE_STATE``
environment variable, which the test suite and the CI stress/serving
jobs set — so every suite runs the full ablation ladder through the
armed state machine while production runs pay nothing.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.check import instrument as _ins
from repro.tensors.tensor import Placement, Tensor

#: Environment switch consulted when ``SessionTensorState(validate=None)``:
#: "1"/"true"/"yes" arm the placement state machine process-wide.
VALIDATE_ENV = "REPRO_VALIDATE_STATE"


def _env_validate() -> bool:
    return os.environ.get(VALIDATE_ENV, "").strip().lower() \
        in ("1", "true", "yes", "on")

#: Legal placement transitions (see the state machine above).  The
#: UNALLOCATED->FREED edge is the no-op discard: liveness free lists
#: may name tensors no step ever materialized (e.g. the data layer's
#: grad, which the route reads but no runtime allocates).
ALLOWED_TRANSITIONS: FrozenSet[Tuple[Placement, Placement]] = frozenset({
    (Placement.UNALLOCATED, Placement.GPU),
    (Placement.UNALLOCATED, Placement.FREED),
    (Placement.GPU, Placement.HOST),
    (Placement.GPU, Placement.FREED),
    (Placement.HOST, Placement.GPU),
    (Placement.HOST, Placement.FREED),
    (Placement.FREED, Placement.GPU),
})


class IllegalPlacementTransition(RuntimeError):
    """A ``set_placement`` violated the placement state machine."""

    def __init__(self, t: Tensor, old: Placement, new: Placement):
        super().__init__(
            f"illegal placement transition {old.value} -> {new.value} "
            f"for tensor {t.name!r} (id={t.tensor_id})"
        )
        self.tensor = t
        self.old = old
        self.new = new


class SessionTensorState:
    """All executor-mutated per-tensor state of ONE session.

    Methods take :class:`Tensor` descriptors (identity only) and key
    the tables by ``tensor_id``.  Absent entries mean the default:
    ``UNALLOCATED``, unlocked, no host copy, no arrival in flight.
    """

    __slots__ = ("_placement", "_locked", "_host", "_live", "_arrivals",
                 "validate")

    def __init__(self, validate: Optional[bool] = None) -> None:
        self._placement: Dict[int, Placement] = {}
        self._locked: Set[int] = set()
        self._host: Set[int] = set()
        self._live: Set[int] = set()      # DATA/GRAD ids with GPU allocs
        self._arrivals: Dict[int, object] = {}  # tensor_id -> DMA Event
        self.validate = _env_validate() if validate is None else validate

    # -- placement --------------------------------------------------------
    def placement(self, t: Tensor) -> Placement:
        return self._placement.get(t.tensor_id, Placement.UNALLOCATED)

    def set_placement(self, t: Tensor, p: Placement) -> None:
        if self.validate:
            old = self._placement.get(t.tensor_id, Placement.UNALLOCATED)
            if old is not p and (old, p) not in ALLOWED_TRANSITIONS:
                raise IllegalPlacementTransition(t, old, p)
        if _ins.SYNC is not None:  # a foreign-thread write here IS a race
            _ins.trace_write(self, "tensor_state.placement", t.name)
        self._placement[t.tensor_id] = p

    def on_gpu(self, t: Tensor) -> bool:
        return self._placement.get(t.tensor_id) is Placement.GPU

    def on_host(self, t: Tensor) -> bool:
        return self._placement.get(t.tensor_id) is Placement.HOST

    def is_live(self, t: Tensor) -> bool:
        """True while the tensor holds meaningful data somewhere."""
        p = self._placement.get(t.tensor_id)
        return p is Placement.GPU or p is Placement.HOST

    # -- cache lock (paper Alg. 2) ----------------------------------------
    def lock(self, t: Tensor) -> None:
        """Pin ``t`` for the duration of a kernel: the LRU cache must
        not evict it (paper Alg. 2, ``T.Lock``)."""
        if _ins.SYNC is not None:
            _ins.trace_write(self, "tensor_state.locked", t.name)
        self._locked.add(t.tensor_id)

    def unlock(self, t: Tensor) -> None:
        if _ins.SYNC is not None:
            _ins.trace_write(self, "tensor_state.locked", t.name)
        self._locked.discard(t.tensor_id)

    def locked(self, t: Tensor) -> bool:
        return t.tensor_id in self._locked

    def locked_ids(self) -> FrozenSet[int]:
        """Snapshot of currently locked tensor ids (lock-balance tests)."""
        return frozenset(self._locked)

    # -- host residency ----------------------------------------------------
    def host_resident(self, t: Tensor) -> bool:
        return t.tensor_id in self._host

    def set_host_resident(self, t: Tensor, resident: bool) -> None:
        if _ins.SYNC is not None:
            _ins.trace_write(self, "tensor_state.host", t.name)
        if resident:
            self._host.add(t.tensor_id)
        else:
            self._host.discard(t.tensor_id)

    # -- live-descriptor accounting (step-trace statistic) -----------------
    def add_live(self, t: Tensor) -> None:
        self._live.add(t.tensor_id)

    def discard_live(self, t: Tensor) -> None:
        self._live.discard(t.tensor_id)

    def live_count(self) -> int:
        return len(self._live)

    # -- prefetch arrivals (H2D copies in flight) --------------------------
    @property
    def any_arrivals(self) -> bool:
        return bool(self._arrivals)

    def set_arrival(self, t: Tensor, event) -> None:
        self._arrivals[t.tensor_id] = event

    def arrival_pending(self, t: Tensor) -> bool:
        return t.tensor_id in self._arrivals

    def pop_arrival(self, t: Tensor):
        """Remove and return the in-flight arrival event (or None)."""
        return self._arrivals.pop(t.tensor_id, None)

    def clear_arrivals(self) -> None:
        self._arrivals.clear()

    # -- introspection ------------------------------------------------------
    def snapshot(self, tensors: Iterable[Tensor]
                 ) -> Tuple[Placement, ...]:
        """Placement of each tensor, in order (test trace helper)."""
        get = self._placement.get
        U = Placement.UNALLOCATED
        return tuple(get(t.tensor_id, U) for t in tensors)

    def describe(self, t: Tensor) -> str:
        return (f"{t.name}: {self.placement(t).value}"
                f"{' locked' if self.locked(t) else ''}"
                f"{' host' if self.host_resident(t) else ''}")
