"""A minimal discrete-event timeline with CUDA-like streams.

The paper's overlap argument — offload/prefetch hide under compute
because the DMA engines are independent of the SMs (§3.3.1) — is the
heart of the UTP performance story, so the simulator must model streams
faithfully:

* ops submitted to the same stream serialize;
* ops on different streams run concurrently;
* an op may depend on events (completions of earlier ops on any stream);
* synchronizing a stream on an event advances that stream's clock to
  the event's completion time (that is the *stall* the tensor cache is
  designed to avoid).

Time is a float in seconds.  There is no event queue to pump: because
every duration is known at submission, completion times are computed
eagerly — the classic "max of dependencies plus duration" critical-path
recurrence.

When the op log is on, every record's label is ``"<kind>:<name>"`` with
``kind`` drawn from the vocabulary below: kernels (``fw``/``bw``/
``recompute``), copies (``prefetch``/``fetch``/``offload``/``evict``),
compute stalls (``stall:<awaited copy's label>``) and the instant at
which an offload's GPU bytes are released (``release``).  The executor,
the policies and the cost model all build and parse labels through
these names.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple


#: op-log label kinds (see the module docstring)
FW, BW, RECOMPUTE = "fw", "bw", "recompute"
PREFETCH, FETCH, OFFLOAD, EVICT = "prefetch", "fetch", "offload", "evict"
STALL, RELEASE = "stall", "release"


def split_label(label: str) -> Tuple[str, str]:
    """``"<kind>:<name>"`` -> ``(kind, name)``."""
    kind, _, name = label.partition(":")
    return kind, name


class Stream(enum.Enum):
    """The three hardware engines the paper's runtime drives."""

    COMPUTE = "compute"
    D2H = "d2h"      # offload engine
    H2D = "h2d"      # prefetch engine


class Event(NamedTuple):
    """Completion marker of one submitted op.

    A NamedTuple, not a dataclass: events are minted on every kernel
    and copy submission, and frozen-dataclass construction (one
    ``object.__setattr__`` per field) is measurable on that path.
    """

    event_id: int
    stream: Stream
    time: float        # absolute completion timestamp
    label: str = ""


@dataclass
class _OpRecord:
    label: str
    stream: Stream
    start: float
    end: float


class Timeline:
    """Tracks per-stream clocks and the ops run on them.

    The runtime submits work via :meth:`submit` and gets back an
    :class:`Event`; waiting on an event via :meth:`sync` models a CUDA
    ``cudaStreamWaitEvent`` + host sync.  :attr:`elapsed` is the
    wall-clock of the whole simulation (max over stream clocks).
    """

    def __init__(self, record_ops: bool = True,
                 max_ops: Optional[int] = None) -> None:
        """``record_ops=False`` keeps the per-op log empty: clocks and
        busy-time still accumulate, but long-running executors do not
        grow an unbounded list of one record per submitted op.
        ``max_ops`` bounds the log instead: the *newest* records are
        kept (a serving executor armed for tracing wants the recent
        window, not the first minutes) and :attr:`dropped_ops` counts
        the evictions so an exported trace can say it was clipped."""
        # keyed by Stream.value: str hashes are cached in the object,
        # enum hashing is not — these dicts sit on the hottest path
        self._clock: Dict[str, float] = {s.value: 0.0 for s in Stream}
        self._events = itertools.count(0)
        self._ops: Deque[_OpRecord] = deque() if max_ops is None \
            else deque(maxlen=max_ops)
        self._busy: Dict[str, float] = {s.value: 0.0 for s in Stream}
        self.record_ops = record_ops
        self.max_ops = max_ops
        self.dropped_ops = 0

    # -- submission -------------------------------------------------------
    def submit(
        self,
        stream: Stream,
        duration: float,
        label: str = "",
        after: Optional[Iterable[Event]] = None,
        not_before: float = 0.0,
    ) -> Event:
        """Run ``duration`` seconds of work on ``stream``.

        The op starts when the stream is free, all ``after`` events have
        completed, and ``not_before`` has passed.  ``not_before`` models
        the *issue time*: work queued by host code that runs in lockstep
        with the compute stream cannot start before that code ran —
        without it, an idle copy stream would happily execute transfers
        "in the past" and no prefetch could ever be late.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration} for {label!r}")
        key = stream.value
        start = self._clock[key]
        if not_before > start:
            start = not_before
        if after:
            for ev in after:
                if ev.time > start:
                    start = ev.time
        end = start + duration
        self._clock[key] = end
        self._busy[key] += duration
        if self.record_ops:
            self._record(label, stream, start, end)
        return Event(next(self._events), stream, end, label)

    def _record(self, label: str, stream: Stream, start: float,
                end: float) -> None:
        if self.max_ops is not None and len(self._ops) == self.max_ops:
            self.dropped_ops += 1
        self._ops.append(_OpRecord(label, stream, start, end))

    def tick(self, stream: Stream, duration: float) -> None:
        """Serialized host-side latency (mallocs/frees): advance the
        stream's clock and busy-time without minting an event or an op
        record.  Identical clock arithmetic to a dependency-free
        :meth:`submit` whose event nobody waits on — just cheaper, for
        the two-calls-per-allocation hot path."""
        key = stream.value
        self._clock[key] += duration
        self._busy[key] += duration

    def tick_compute(self, duration: float) -> None:
        """:meth:`tick` on the compute stream, skipping even the enum
        ``value`` descriptor — the allocator calls this twice per
        allocation lifecycle."""
        self._clock["compute"] += duration
        self._busy["compute"] += duration

    def sync(self, stream: Stream, event: Event) -> float:
        """Block ``stream`` until ``event`` completes; returns stall time.
        A stall is logged as ``stall:<event label>`` on ``stream``."""
        key = stream.value
        now = self._clock[key]
        if event.time > now:
            self._clock[key] = event.time
            if self.record_ops:
                self._record(f"{STALL}:{event.label}", stream, now,
                             event.time)
            return event.time - now
        return 0.0

    def mark(self, stream: Stream, label: str) -> None:
        """Log a zero-length record at ``stream``'s clock (op log only)."""
        if self.record_ops:
            now = self._clock[stream.value]
            self._record(label, stream, now, now)

    def sync_all(self) -> float:
        """Join every stream (end-of-iteration barrier); returns new now."""
        t = max(self._clock.values())
        for s in self._clock:
            self._clock[s] = t
        return t

    def advance(self, stream: Stream, duration: float, label: str = "") -> Event:
        """Alias of :meth:`submit` for host-side latencies (mallocs etc.)."""
        return self.submit(stream, duration, label)

    # -- introspection ------------------------------------------------------
    def now(self, stream: Stream = Stream.COMPUTE) -> float:
        return self._clock[stream.value]

    @property
    def elapsed(self) -> float:
        return max(self._clock.values())

    def busy_time(self, stream: Stream) -> float:
        """Total work submitted to ``stream`` (ignores gaps)."""
        return self._busy[stream.value]

    def ops(self, stream: Optional[Stream] = None) -> List[_OpRecord]:
        if stream is None:
            return list(self._ops)
        return [op for op in self._ops if op.stream is stream]

    def reset(self) -> None:
        self._clock = {s.value: 0.0 for s in Stream}
        self._busy = {s.value: 0.0 for s in Stream}
        self._ops.clear()
