"""Instrumentation: traced primitives + the one bounded event log.

The race detector (:mod:`repro.check.race_detector`) is an *execution*
checker: it replays a happens-before analysis over a log of every
synchronization operation and shared-state access one run performed.
This module is the recording half:

* :class:`TracedLock` / :class:`TracedCondition` / :class:`TracedEvent`
  / :class:`TracedThread` — drop-in wrappers over the ``threading``
  primitives that append :class:`SyncEvent` records to the armed
  :class:`EventLog`.  LINT005 forbids constructing the raw primitives
  anywhere else in ``src/repro``, so production code is
  sanitizer-ready by construction;
* :func:`trace_read` / :func:`trace_write` — shared-state access hooks
  placed on the cross-thread surfaces (``SessionTensorState`` table
  writes, ``Engine.weights_version`` / parameter installs, the
  compiled-mode cache);
* :func:`channel_send` / :func:`channel_recv` — explicit happens-before
  edges for message-passing hand-offs that no single lock models (the
  request queue put/take, batch publish/pop, ``parallel_run``'s
  submit/collect).

The same log also holds the observability spans
(:mod:`repro.obs.trace`): one event stream, one raw append lock, one
``limit``/``truncated`` pair, one deduplicated thread key and one
clock.  Appending a span takes only the raw lock, so span hooks add no
happens-before edge the detector could mistake for synchronization.

Arming
------
A log is armed per record category — ``sync`` (the race detector's
input) and ``span`` (the exporter's and flight recorder's) — by
publishing it to the module globals :data:`SYNC` and :data:`SPANS`.
Tracing is off by default: every hook first loads its global and
returns immediately when it is ``None`` (one global load + ``is None``
per operation — the "near-zero when disarmed" contract the serving
benchmark holds to ≤5%).  Arm with :func:`arm`/:func:`capture`, or name
the categories in ``REPRO_TRACE`` (a comma list, read once at import —
how the CI stress/race jobs arm whole scripts without code changes).

Gate locks
----------
``TracedLock(..., gate=True)`` marks a lock *designed* to be held
across a blocking wait — e.g. the server's swap lock, which serializes
swappers while each waits out the batcher drain barrier.  RACE004
(lock-held-across-wait) skips gate locks; the flag is the audited,
greppable record of that intent, exactly like a lint pragma.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import contextmanager
from time import monotonic
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Tuple)

#: Environment switch: a comma list of :data:`CATEGORIES` armed at import.
TRACE_ENV = "REPRO_TRACE"

#: The record categories a log can be armed for.
CATEGORIES = ("sync", "span")

#: Default event-log capacity, in records.  On overflow the log stops
#: appending and sets :attr:`EventLog.truncated`; the detector reports
#: RACE005 (incomplete-trace, warning) and the exporter marks the trace
#: truncated, so a silently-partial capture is impossible.
DEFAULT_LIMIT = 2_000_000


class SyncEvent(NamedTuple):
    """One synchronization operation or shared-state access."""

    seq: int        # position in the log (assigned under its lock)
    thread: str     # stable per-log thread key (name, deduped by ident)
    kind: str       # see KINDS
    obj: int        # id() of the primitive / shared-state owner
    label: str      # human label ("serve.queue", "engine.weights_version")
    detail: str     # tensor name, channel token, "timeout", ...
    gate: bool      # lock acquires only: held-across-wait is intended


#: Event kinds the detector understands.
KINDS = frozenset({
    "acquire", "release",            # TracedLock / monitor enter-exit
    "wait_begin", "wait_end",        # condition wait (releases monitor)
    "notify",                        # condition notify (reporting only)
    "event_set", "event_wait_begin", "event_wait_end",
    "chan_send", "chan_recv",        # explicit hand-off edges
    "thread_start", "thread_begin",  # parent spawn -> child first step
    "thread_end", "thread_join",     # child last step -> parent join
    "read", "write",                 # shared-state accesses
})


class EventLog:
    """Thread-safe, bounded, append-only log of trace records.

    Records are :class:`SyncEvent` tuples and span objects
    (:class:`repro.obs.trace.Span`), in one ``events`` list.  Appends
    serialize on one internal raw (untraced) lock, so the order is a
    total order consistent with the real execution: a lock-release
    record is appended while the lock is still held, an acquire record
    after acquisition, which keeps the log order a linearization of the
    synchronization order the detector replays.  ``clock`` times spans;
    ``span_ids``/``trace_ids`` number them.
    """

    def __init__(self, limit: Optional[int] = None,
                 clock: Callable[[], float] = monotonic):
        if limit is None:
            limit = DEFAULT_LIMIT
        if limit < 1:
            raise ValueError(f"event log limit must be >= 1, got {limit}")
        #: the one raw lock (LINT005 owner); span finishing shares it
        self.lock = threading.Lock()
        self.events: list = []
        self.limit = limit
        self.truncated = False
        self.clock = clock
        self.span_ids = itertools.count(1)
        self.trace_ids = itertools.count(1)
        self._thread_keys: Dict[int, str] = {}    # id(thread) -> key
        self._threads: List[threading.Thread] = []  # pins: ids stay unique
        self._names_seen: Dict[str, int] = {}     # name -> count

    def _thread_key(self, t: threading.Thread) -> str:
        """A stable, human-readable per-thread key.

        Thread *names* read well in diagnostics but are not unique, and
        idents are recycled the moment a thread exits (a short-lived
        thread's ident routinely reappears on the next spawn) — so key
        by the Thread *object*, pinned in ``_threads`` for the log's
        lifetime to keep its ``id()`` unique.  First thread to record
        under a name owns it; later same-named threads get ``name#N``.
        """
        key = self._thread_keys.get(id(t))
        if key is None:
            n = self._names_seen.get(t.name, 0)
            self._names_seen[t.name] = n + 1
            key = t.name if n == 0 else f"{t.name}#{n + 1}"
            self._thread_keys[id(t)] = key
            self._threads.append(t)
        return key

    def record(self, kind: str, obj: int = 0, label: str = "",
               detail: str = "", gate: bool = False) -> None:
        """Append one :class:`SyncEvent` from the calling thread."""
        t = threading.current_thread()
        with self.lock:
            if len(self.events) >= self.limit:
                self.truncated = True
                return
            self.events.append(SyncEvent(
                len(self.events), self._thread_key(t), kind, obj,
                label, detail, gate))

    def append(self, record) -> None:
        """Append a record with a writable ``thread`` attribute (a
        span), stamped with the calling thread's key.  Past ``limit``
        the record is stamped but not retained."""
        t = threading.current_thread()
        with self.lock:
            record.thread = self._thread_key(t)
            if len(self.events) >= self.limit:
                self.truncated = True
            else:
                self.events.append(record)

    def records(self, cls: type) -> list:
        """Snapshot of the retained records of type ``cls``, in order."""
        with self.lock:
            return [e for e in self.events if type(e) is cls]

    def __len__(self) -> int:
        return len(self.events)


#: The log armed for the ``sync`` category, or ``None``.  Hot paths
#: read these module attributes directly (``instrument.SPANS is not
#: None``), so the disarmed cost is one global load per hook.
SYNC: Optional[EventLog] = None
#: The log armed for the ``span`` category, or ``None``.
SPANS: Optional[EventLog] = None


def _check_categories(cats, source: str = "trace categories") -> None:
    unknown = [c for c in cats if c not in CATEGORIES]
    if unknown:
        raise ValueError(f"{source}: unknown categor"
                         f"{'y' if len(unknown) == 1 else 'ies'} "
                         f"{', '.join(map(repr, unknown))}; known: "
                         f"{', '.join(CATEGORIES)}")


def env_categories() -> Tuple[str, ...]:
    """The categories ``REPRO_TRACE`` names (empty: none).  Unknown
    names raise ``ValueError``."""
    cats = tuple(c.strip() for c in os.environ.get(TRACE_ENV, "").split(",")
                 if c.strip())
    _check_categories(cats, TRACE_ENV)
    return cats


def arm(*cats: str, limit: Optional[int] = None,
        clock: Callable[[], float] = monotonic) -> EventLog:
    """Publish one fresh log for exactly ``cats``; every category not
    named is disarmed.  Returns the log."""
    global SYNC, SPANS
    _check_categories(cats)
    log = EventLog(limit, clock)
    SYNC = log if "sync" in cats else None
    SPANS = log if "span" in cats else None
    return log


def disarm() -> Optional[EventLog]:
    """Disarm every category; returns the log that was armed (if any)."""
    global SYNC, SPANS
    log = SYNC if SYNC is not None else SPANS
    SYNC = SPANS = None
    return log


@contextmanager
def capture(*cats: str, limit: Optional[int] = None,
            clock: Callable[[], float] = monotonic) -> Iterator[EventLog]:
    """:func:`arm` ``cats`` for the enclosed block, then restore the
    previous arming — the scenario/test entry point.  With no category
    the block runs disarmed."""
    global SYNC, SPANS
    prev = SYNC, SPANS
    log = arm(*cats, limit=limit, clock=clock)
    try:
        yield log
    finally:
        SYNC, SPANS = prev


def _rec(kind: str, obj: int, label: str, detail: str = "",
         gate: bool = False) -> None:
    log = SYNC
    if log is not None:
        log.record(kind, obj, label, detail, gate)


# ------------------------------------------------------------- primitives
class TracedLock:
    """Drop-in ``threading.Lock`` held via ``with`` (LINT004 already
    forbids bare ``.acquire()``; this wrapper simply does not offer it).

    ``gate=True`` documents a lock intended to be held across a
    blocking wait (see module docstring); RACE004 skips it.
    """

    __slots__ = ("_lock", "label", "gate")

    def __init__(self, label: str = "lock", *, gate: bool = False):
        self._lock = threading.Lock()
        self.label = label
        self.gate = gate

    def __enter__(self) -> "TracedLock":
        self._lock.__enter__()
        _rec("acquire", id(self), self.label, gate=self.gate)
        return self

    def __exit__(self, exc_type, exc, tb):
        # record while still holding: the release event's seq precedes
        # any subsequent acquire of the same lock
        _rec("release", id(self), self.label)
        return self._lock.__exit__(exc_type, exc, tb)

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedLock({self.label!r}{', gate' if self.gate else ''})"


class TracedCondition:
    """Drop-in ``threading.Condition`` (own monitor, entered via
    ``with``).  ``wait`` records the monitor hand-off — begin counts as
    a release (and is the RACE004 checkpoint), end as a re-acquire."""

    __slots__ = ("_cond", "label")

    def __init__(self, label: str = "cond"):
        self._cond = threading.Condition()
        self.label = label

    def __enter__(self) -> "TracedCondition":
        self._cond.__enter__()
        _rec("acquire", id(self), self.label)
        return self

    def __exit__(self, exc_type, exc, tb):
        _rec("release", id(self), self.label)
        return self._cond.__exit__(exc_type, exc, tb)

    def wait(self, timeout: Optional[float] = None) -> bool:
        _rec("wait_begin", id(self), self.label)
        ok = self._cond.wait(timeout)
        _rec("wait_end", id(self), self.label,
             detail="ok" if ok else "timeout")
        return ok

    def notify(self, n: int = 1) -> None:
        _rec("notify", id(self), self.label)
        self._cond.notify(n)

    def notify_all(self) -> None:
        _rec("notify", id(self), self.label)
        self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedCondition({self.label!r})"


class TracedEvent:
    """Drop-in ``threading.Event``; ``set`` -> successful ``wait`` is a
    happens-before edge (the future-completion hand-off)."""

    __slots__ = ("_event", "label")

    def __init__(self, label: str = "event"):
        self._event = threading.Event()
        self.label = label

    def is_set(self) -> bool:
        return self._event.is_set()

    def set(self) -> None:
        # record first: a waiter can only observe the flag after the
        # physical set, so its wait_end seq lands after this one
        _rec("event_set", id(self), self.label)
        self._event.set()

    def clear(self) -> None:
        self._event.clear()

    def wait(self, timeout: Optional[float] = None) -> bool:
        _rec("event_wait_begin", id(self), self.label)
        ok = self._event.wait(timeout)
        if ok:
            _rec("event_wait_end", id(self), self.label)
        return ok

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedEvent({self.label!r}, set={self.is_set()})"


class TracedThread(threading.Thread):
    """``threading.Thread`` recording spawn/begin/end/join edges:
    ``start`` (parent) happens-before the child's first step, and the
    child's last step happens-before a successful ``join``."""

    def start(self) -> None:
        _rec("thread_start", id(self), self.name)
        super().start()

    def run(self) -> None:
        _rec("thread_begin", id(self), self.name)
        try:
            super().run()
        finally:
            _rec("thread_end", id(self), self.name)

    def join(self, timeout: Optional[float] = None) -> None:
        super().join(timeout)
        if not self.is_alive():
            _rec("thread_join", id(self), self.name)


# ----------------------------------------------------- access / edge hooks
def trace_read(owner: object, label: str, detail: str = "") -> None:
    """Record a read of shared state ``(owner, label)``."""
    _rec("read", id(owner), label, detail)


def trace_write(owner: object, label: str, detail: str = "") -> None:
    """Record a write to shared state ``(owner, label)``."""
    _rec("write", id(owner), label, detail)


def channel_send(token: str, label: str = "chan") -> None:
    """Publish a happens-before source under ``token`` (joined by every
    later :func:`channel_recv` of the same token)."""
    _rec("chan_send", 0, label, detail=token)


def channel_recv(token: str, label: str = "chan") -> None:
    """Join the accumulated clock of ``token``'s sends into the calling
    thread (no-op if nothing was sent — the detector just finds no
    edge)."""
    _rec("chan_recv", 0, label, detail=token)


# module init: the environment switch arms process-wide tracing for
# whole scripts (CI stress / race-sanitizer jobs) without code changes
_ENV_CATEGORIES = env_categories()
if _ENV_CATEGORIES:  # pragma: no cover - exercised via subprocess in CI
    arm(*_ENV_CATEGORIES)
