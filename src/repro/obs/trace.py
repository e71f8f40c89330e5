"""Spans: one request (or iteration) = one tree of timed spans.

A :class:`Span` is a named, timed interval with a ``trace_id`` shared by
its whole tree and an explicit ``parent_id`` — context rides the object
(a serving request carries its root span across the submitter, the
assembling worker and the computing worker), never a thread-local,
because the interesting trees here *cross* threads by design.

Spans are records in the one bounded
:class:`~repro.check.instrument.EventLog`: it stamps each span with its
deduplicated thread key, numbers it, times it on its clock, and bounds
it with its ``limit`` (past the cap spans are created but not retained,
and ``log.truncated`` says so).  Arming is the log's too: hook sites
read :data:`repro.check.instrument.SPANS` (one global load + ``is
None`` when disarmed) and open spans on it with :func:`root`,
:func:`start`, :func:`emit` or :func:`span`.  ``RuntimeConfig.trace =
False`` compiles the executor's per-iteration hook out entirely (the
hook-free control arm the ``bench_steady_state`` overhead gate measures
the disarmed path against).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.check.instrument import EventLog


class Span:
    """One timed interval in a trace tree.

    ``start``/``end`` are seconds on the owning log's clock (the
    serving stack injects one shared monotonic clock, so span edges and
    request timestamps live in one time base).  ``finish`` is
    idempotent — the first call wins, late calls are no-ops — because a
    split request's root can race its queue-wait child's closer.
    """

    __slots__ = ("log", "name", "cat", "trace_id", "span_id",
                 "parent_id", "start", "end", "status", "attrs",
                 "thread")

    def __init__(self, log: EventLog, name: str, cat: str,
                 trace_id: int, span_id: int, parent_id: Optional[int],
                 start: float, attrs: Optional[Dict[str, Any]]):
        self.log = log
        self.name = name
        self.cat = cat
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "open"
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.thread = ""    # the log's thread key, stamped on append

    def child(self, name: str, cat: Optional[str] = None,
              start: Optional[float] = None,
              attrs: Optional[Dict[str, Any]] = None) -> "Span":
        return _open(self.log, name, cat or self.cat, self.trace_id,
                     self.span_id, start, attrs)

    def finish(self, end: Optional[float] = None, status: str = "ok",
               **attrs: Any) -> None:
        """Close the span (first call wins; late calls are no-ops)."""
        log = self.log
        with log.lock:
            if self.end is not None:
                return
            self.end = log.clock() if end is None else end
            self.status = status
            if attrs:
                self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"id={self.span_id}, status={self.status})")


def _open(log: EventLog, name: str, cat: str, trace_id: int,
          parent_id: Optional[int], start: Optional[float],
          attrs: Optional[Dict[str, Any]]) -> Span:
    span = Span(log, name, cat, trace_id, next(log.span_ids), parent_id,
                log.clock() if start is None else start, attrs)
    log.append(span)
    return span


def root(log: EventLog, name: str, cat: str = "serve",
         start: Optional[float] = None,
         attrs: Optional[Dict[str, Any]] = None) -> Span:
    """Open a new trace tree (fresh ``trace_id``, no parent)."""
    return _open(log, name, cat, next(log.trace_ids), None, start, attrs)


def start(log: EventLog, name: str, cat: str = "serve",
          parent: Optional[Span] = None, start: Optional[float] = None,
          attrs: Optional[Dict[str, Any]] = None) -> Span:
    """Open a span; with ``parent`` it joins that tree."""
    if parent is None:
        return root(log, name, cat=cat, start=start, attrs=attrs)
    return parent.child(name, cat=cat, start=start, attrs=attrs)


_start = start    # emit's ``start`` argument shadows the function


def emit(log: EventLog, name: str, start: float, end: float,
         cat: str = "serve", parent: Optional[Span] = None,
         status: str = "ok",
         attrs: Optional[Dict[str, Any]] = None) -> Span:
    """Record an already-finished interval in one call (the worker
    emits per-slice compute spans after the step completed)."""
    sp = _start(log, name, cat=cat, parent=parent, start=start,
                attrs=attrs)
    sp.finish(end=end, status=status)
    return sp


@contextmanager
def span(log: EventLog, name: str, cat: str = "serve",
         parent: Optional[Span] = None,
         attrs: Optional[Dict[str, Any]] = None) -> Iterator[Span]:
    """``with span(log, "compile"):`` — finishes on exit, status
    ``"error"`` (with the exception type) when the body raised."""
    sp = start(log, name, cat=cat, parent=parent, attrs=attrs)
    try:
        yield sp
    except BaseException as exc:
        sp.finish(status="error", error=type(exc).__name__)
        raise
    else:
        sp.finish()


def spans(log: EventLog) -> List[Span]:
    """Snapshot of the log's retained spans (creation order)."""
    return log.records(Span)
