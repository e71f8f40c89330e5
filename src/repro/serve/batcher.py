"""Dynamic batching: coalesce variable-sized requests into the compiled
batch shape.

The engine froze ONE input shape at compile time (that is what makes
its sessions cheap); live traffic arrives as requests of 1..K samples.
The :class:`DynamicBatcher` bridges the two:

* **padding** — a batch with fewer real rows than the compiled capacity
  is padded with zero rows; the padded rows never reach a caller (each
  request's future receives exactly its own rows back);
* **splitting** — a request larger than the compiled batch spans
  multiple engine steps (its output parts are re-concatenated in
  order);
* **max_wait** — a lone request is dispatched, padded, at most
  ``max_wait`` seconds after it arrived, so light traffic is never
  starved waiting for a full batch;
* **coalescing policy** — *which* pending requests ride one step is a
  registered :class:`CoalescePolicy` (``fifo``, ``greedy-fill``,
  ``deadline``), mirroring the registry pattern of
  :mod:`repro.core.policy`: a new strategy is a new class plus a
  :func:`register_coalescer` line.  The ``deadline`` policy reorders
  the round by (priority class, deadline, arrival) before packing, so
  deadline-critical requests get first claim on assembly rounds.

Assembly is atomic per request: every slice of a split request enters
the ready queue in the same assembly round.  The weight-swap barrier of
:class:`~repro.serve.server.InferenceServer` relies on exactly this —
"pause assembly, drain ready + outstanding" implies no request ever
straddles a weights install.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.check import instrument
from repro.check.instrument import channel_recv, channel_send
from repro.obs import trace as obs_trace
from repro.serve.queue import (
    PRIORITY_RANK,
    InferenceRequest,
    RequestQueue,
)


class BatchSlice:
    """Rows ``[start:stop)`` of one request, placed at ``row_offset`` of
    an assembled batch; ``part_index`` orders the request's parts."""

    __slots__ = ("request", "start", "stop", "row_offset", "part_index")

    def __init__(self, request: InferenceRequest, start: int, stop: int,
                 row_offset: int, part_index: int):
        self.request = request
        self.start = start
        self.stop = stop
        self.row_offset = row_offset
        self.part_index = part_index

    @property
    def rows(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BatchSlice(req={self.request.request_id}, "
                f"[{self.start}:{self.stop}) @ {self.row_offset})")


class AssembledBatch:
    """One engine step's worth of coalesced request rows."""

    def __init__(self, batch_id: int, capacity: int,
                 slices: List[BatchSlice], created_time: float):
        self.batch_id = batch_id
        self.capacity = capacity
        self.slices = slices
        self.created_time = created_time
        self.fill = sum(s.rows for s in slices)
        if self.fill < 1:
            raise ValueError("an assembled batch needs >= 1 real rows")
        if self.fill > capacity:
            raise ValueError(
                f"plan put {self.fill} rows into capacity {capacity}")

    @property
    def padding(self) -> int:
        return self.capacity - self.fill

    @property
    def fill_ratio(self) -> float:
        return self.fill / self.capacity

    def build_feed(self, input_shape: Tuple[int, ...]
                   ) -> Optional[np.ndarray]:
        """The padded input array (compiled shape), or ``None`` when the
        riding requests carry no payloads (simulated-mode traffic)."""
        if any(s.request.data is None for s in self.slices):
            return None
        feed = np.zeros(input_shape, dtype=np.float32)
        for s in self.slices:
            feed[s.row_offset:s.row_offset + s.rows] = \
                s.request.data[s.start:s.stop]
        return feed

    def __repr__(self) -> str:  # pragma: no cover
        ids = [s.request.request_id for s in self.slices]
        return (f"AssembledBatch(id={self.batch_id}, fill={self.fill}/"
                f"{self.capacity}, requests={ids})")


# --------------------------------------------------------------- policies
class CoalescePolicy:
    """How pending requests are packed into compiled-shape batches.

    ``plan`` partitions one assembly round's backlog into per-batch
    slice lists; each list's rows must fit ``capacity`` and every
    request must be fully covered, in row order, by the returned plan
    (the batcher validates nothing — a broken policy shows up as a
    wrong-sized feed or a hung future, both loud).
    """

    #: registry key (subclasses set it; ``register_coalescer`` indexes it)
    key = "abstract"

    def plan(self, pending: List[InferenceRequest], capacity: int
             ) -> List[List[BatchSlice]]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.key


COALESCER_REGISTRY: Dict[str, Type[CoalescePolicy]] = {}


def register_coalescer(cls: Type[CoalescePolicy]) -> Type[CoalescePolicy]:
    """Class decorator: index a coalescing policy under its ``key``
    (the same pattern :data:`repro.core.policy.POLICY_REGISTRY` uses)."""
    if cls.key in COALESCER_REGISTRY:
        raise ValueError(f"duplicate coalescer key {cls.key!r}")
    COALESCER_REGISTRY[cls.key] = cls
    return cls


def resolve_coalescer(policy) -> CoalescePolicy:
    """A policy instance from a registry name (or pass one through)."""
    if isinstance(policy, CoalescePolicy):
        return policy
    try:
        return COALESCER_REGISTRY[policy]()
    except KeyError:
        raise KeyError(
            f"unknown coalescing policy {policy!r}; registered: "
            f"{sorted(COALESCER_REGISTRY)}") from None


@register_coalescer
class FifoCoalescer(CoalescePolicy):
    """Strict arrival order, whole requests only.

    A batch closes when the next request does not fit entirely in the
    remaining rows — small requests are never split to top a batch off,
    so a request's rows stay contiguous in one step whenever they can.
    Only an *oversized* request (> capacity) splits, into
    ``ceil(size/capacity)`` consecutive batches (no all-padding final
    batch: an exact multiple yields exactly ``size/capacity`` steps).
    """

    key = "fifo"

    def plan(self, pending: List[InferenceRequest], capacity: int
             ) -> List[List[BatchSlice]]:
        batches: List[List[BatchSlice]] = []
        current: List[BatchSlice] = []
        used = 0
        for req in pending:
            if req.size <= capacity - used:
                current.append(BatchSlice(req, 0, req.size, used, 0))
                used += req.size
            elif req.size <= capacity:
                batches.append(current)
                current = [BatchSlice(req, 0, req.size, 0, 0)]
                used = req.size
            else:
                # oversized: dedicated full batches, remainder padded
                if current:
                    batches.append(current)
                    current, used = [], 0
                part = 0
                for start in range(0, req.size, capacity):
                    stop = min(start + capacity, req.size)
                    batches.append([BatchSlice(req, start, stop, 0, part)])
                    part += 1
            if used == capacity:
                batches.append(current)
                current, used = [], 0
        if current:
            batches.append(current)
        return [b for b in batches if b]


def _pack_split_fill(pending: List[InferenceRequest], capacity: int
                     ) -> List[List[BatchSlice]]:
    """Pack ``pending`` in the given order, splitting requests freely
    across batch boundaries so every batch except the last is filled
    exactly (the greedy-fill packing, shared by every policy that only
    differs in how it *orders* the round)."""
    batches: List[List[BatchSlice]] = []
    current: List[BatchSlice] = []
    used = 0
    parts: Dict[int, int] = {}
    for req in pending:
        start = 0
        while start < req.size:
            take = min(req.size - start, capacity - used)
            part = parts.get(req.request_id, 0)
            current.append(
                BatchSlice(req, start, start + take, used, part))
            parts[req.request_id] = part + 1
            start += take
            used += take
            if used == capacity:
                batches.append(current)
                current, used = [], 0
    if current:
        batches.append(current)
    return batches


@register_coalescer
class GreedyFillCoalescer(CoalescePolicy):
    """Arrival order, but requests split freely across batch boundaries
    so every batch except the round's last is filled exactly — minimum
    padding waste at the cost of more split requests (each split costs
    an output re-concatenation, never a recompute)."""

    key = "greedy-fill"

    def plan(self, pending: List[InferenceRequest], capacity: int
             ) -> List[List[BatchSlice]]:
        return _pack_split_fill(pending, capacity)


@register_coalescer
class DeadlineCoalescer(CoalescePolicy):
    """Priority/deadline order with greedy-fill packing.

    The round is sorted by (priority class, deadline, arrival) before
    packing: ``critical`` requests ride the earliest batches of every
    assembly round, ties break on the tighter deadline (requests
    without one sort after every dated peer of their class), then on
    enqueue time and finally request id for determinism.  Packing
    itself is the same exact-fill split as ``greedy-fill``, so urgency
    never costs padding waste.
    """

    key = "deadline"

    def plan(self, pending: List[InferenceRequest], capacity: int
             ) -> List[List[BatchSlice]]:
        normal = PRIORITY_RANK["normal"]
        ordered = sorted(pending, key=lambda r: (
            PRIORITY_RANK.get(r.priority, normal),
            r.deadline if r.deadline is not None else float("inf"),
            r.enqueue_time,
            r.request_id,
        ))
        return _pack_split_fill(ordered, capacity)


# ---------------------------------------------------------------- batcher
class DynamicBatcher:
    """Coalesces the request queue into ready-to-run batches.

    Workers call :meth:`next_batch`; whichever worker arrives while the
    ready queue is empty runs one *assembly round* — snapshot the
    backlog (waiting out ``max_wait`` from the oldest request if the
    backlog cannot yet fill one batch), plan it through the coalescing
    policy, and publish every resulting batch atomically.  All
    synchronization rides the queue's single condition variable.

    ``pause``/``resume`` gate *assembly only*: already-published
    batches keep flowing to workers, which is exactly the drain the
    weight-swap barrier needs (started requests complete on the old
    weights; everything still in the request queue waits for the new).
    """

    def __init__(self, queue: RequestQueue, capacity: int,
                 policy="fifo", max_wait: float = 0.002,
                 clock: Callable[[], float] = monotonic):
        if capacity < 1:
            raise ValueError(f"batch capacity must be >= 1, got {capacity}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.queue = queue
        self.capacity = capacity
        self.policy = resolve_coalescer(policy)
        self.max_wait = max_wait
        self.clock = clock
        self._cond = queue.cond         # ONE monitor with the queue
        self._ready: List[AssembledBatch] = []
        self._outstanding = 0           # popped, not yet mark_done
        self._paused = False
        self._shutdown = False
        self._next_batch_id = 0
        self.batches_assembled = 0

    # -- worker side ------------------------------------------------------
    def next_batch(self, timeout: Optional[float] = None
                   ) -> Optional[AssembledBatch]:
        """The next ready batch; blocks up to ``timeout`` (forever when
        None).  Returns ``None`` on timeout or shutdown.  Popping a
        batch marks it outstanding — the worker MUST call
        :meth:`mark_done` when its step (and output scatter) finished.
        """
        deadline = None if timeout is None else self.clock() + timeout
        with self._cond:
            while True:
                if self._shutdown:
                    return None
                if self._ready:
                    self._outstanding += 1
                    batch = self._ready.pop(0)
                    channel_recv(f"batch:{id(self)}:{batch.batch_id}",
                                 "batcher.pop")
                    return batch
                wait = None if deadline is None \
                    else deadline - self.clock()
                if wait is not None and wait <= 0:
                    return None
                if not self._paused and self.queue.pending_count():
                    hold = self._assembly_hold()
                    if hold <= 0:
                        self._assemble_round()
                        continue
                    wait = hold if wait is None else min(wait, hold)
                self._cond.wait(wait)

    def mark_done(self, batch: AssembledBatch) -> None:
        with self._cond:
            self._outstanding -= 1
            self._cond.notify_all()

    # -- assembly (caller holds the monitor) ------------------------------
    def _assembly_hold(self) -> float:
        """Seconds to keep holding before assembling: 0 when the backlog
        fills a batch, the queue is closed, or the oldest request has
        waited ``max_wait`` already."""
        if self.queue.closed \
                or self.queue.pending_rows() >= self.capacity:
            return 0.0
        oldest = self.queue.oldest_enqueue_time()
        return oldest + self.max_wait - self.clock()

    def _assemble_round(self) -> None:
        pending = self.queue.take_pending()
        if not pending:
            return
        now = self.clock()
        plans = self.policy.plan(pending, self.capacity)
        slice_counts: Dict[int, int] = {}
        for plan in plans:
            for s in plan:
                slice_counts[s.request.request_id] = \
                    slice_counts.get(s.request.request_id, 0) + 1
        for req in pending:
            req.begin_dispatch(slice_counts.get(req.request_id, 0))
        for plan in plans:
            self._ready.append(AssembledBatch(
                self._next_batch_id, self.capacity, plan, now))
            # the batch hand-off edge: the assembling thread's work
            # happens-before the worker that pops this batch
            channel_send(f"batch:{id(self)}:{self._next_batch_id}",
                         "batcher.publish")
            self._next_batch_id += 1
        self.batches_assembled += len(plans)
        log = instrument.SPANS
        if log is not None:
            # the padding decision, as its own tree: which requests
            # rode this round, how many batches, what was wasted
            rows = sum(r.size for r in pending)
            obs_trace.emit(
                log, "batcher.round", cat="serve.batcher",
                start=now, end=self.clock(),
                attrs={"requests": len(pending), "rows": rows,
                       "batches": len(plans),
                       "padding": len(plans) * self.capacity - rows,
                       "policy": self.policy.key})
        self._cond.notify_all()

    # -- barrier / lifecycle ----------------------------------------------
    def pause(self) -> None:
        """Stop publishing new batches (ready ones keep draining)."""
        with self._cond:
            self._paused = True
            self._cond.notify_all()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no batch is ready or outstanding (with assembly
        paused this is the swap barrier: every started request has
        fully completed).  False on timeout."""
        deadline = None if timeout is None else self.clock() + timeout
        with self._cond:
            while self._ready or self._outstanding:
                wait = None if deadline is None \
                    else deadline - self.clock()
                if wait is not None and wait <= 0:
                    return False
                self._cond.wait(wait)
            return True

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Like :meth:`wait_idle` but also requires an empty request
        queue — the graceful-shutdown barrier.  Assembly must still be
        running (not paused), or a non-empty backlog never drains."""
        deadline = None if timeout is None else self.clock() + timeout
        with self._cond:
            while self.queue.pending_count() or self._ready \
                    or self._outstanding:
                wait = None if deadline is None \
                    else deadline - self.clock()
                if wait is not None and wait <= 0:
                    return False
                self._cond.wait(wait)
            return True

    def shutdown(self) -> None:
        """Wake every blocked worker with ``None``."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()

    @property
    def stopping(self) -> bool:
        """True once :meth:`shutdown` ran — lets a worker whose
        ``next_batch`` returned ``None`` tell shutdown apart from an
        idle timeout (the autoscaler retires on the latter only)."""
        return self._shutdown

    def drain_ready(self) -> List[AssembledBatch]:
        """Remove and return batches that will never run (post-shutdown
        cleanup; the server fails their requests loudly)."""
        with self._cond:
            ready, self._ready = self._ready, []
            return ready

    def describe(self) -> str:
        return (f"DynamicBatcher(capacity={self.capacity}, "
                f"policy={self.policy.describe()}, "
                f"max_wait={self.max_wait * 1e3:g}ms)")
