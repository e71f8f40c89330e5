"""Flight recorder: a bounded ring of recent events, dumped on trouble.

Serving failures are interleaving-dependent: by the time a worker crash
or a shed storm surfaces, the interesting history is gone.  The
recorder keeps a cheap ring of recent notes (``deque(maxlen=...)``
appends, a leaf lock) that subsystems feed unconditionally — it is
always on, because the cost is O(1) per *rare* event, not per request —
and snapshots itself automatically when something goes wrong:

* a worker's batch raised (request failure / worker crash);
* a shed burst (``shed_burst_threshold`` sheds since the last dump —
  one saturated second must not produce a thousand dumps);
* ``engine.parallel_run`` timed out;
* ``InferenceServer.stop`` found stuck workers.

A dump captures the ring plus the most recent spans of the armed
span log (if any).  Dumps are kept in a bounded in-memory deque for
post-mortem inspection (``RECORDER.dumps``); set ``REPRO_FLIGHT_DIR``
(or :attr:`FlightRecorder.dump_dir`) to also write each one to a JSON
file.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import deque
from time import monotonic
from typing import Any, Callable, Dict, List, Optional

from repro.check import instrument
from repro.check.instrument import EventLog, TracedLock
from repro.obs.trace import spans

DUMP_DIR_ENV = "REPRO_FLIGHT_DIR"

#: ring capacity (events); dumps keep the most recent spans too
DEFAULT_RING = 2048
#: recent finished spans included per dump
DUMP_SPANS = 256
#: in-memory dumps retained (oldest evicted)
DUMP_KEEP = 8


class FlightRecorder:
    """Bounded event ring + automatic trouble dumps."""

    def __init__(self, limit: int = DEFAULT_RING,
                 clock: Callable[[], float] = monotonic,
                 shed_burst_threshold: int = 16):
        self.clock = clock
        self._lock = TracedLock("obs.recorder")
        self._ring: deque = deque(maxlen=max(1, limit))
        self._dump_ids = itertools.count(1)
        self._shed_since_dump = 0
        self.shed_burst_threshold = max(1, shed_burst_threshold)
        self.dumps: deque = deque(maxlen=DUMP_KEEP)
        self.dump_dir: Optional[str] = \
            os.environ.get(DUMP_DIR_ENV) or None

    # -- feeding ----------------------------------------------------------
    def note(self, kind: str, message: str = "",
             **attrs: Any) -> None:
        """Append one event to the ring (cheap, never raises upward
        into the caller's control flow)."""
        event = {"t": self.clock(), "kind": kind, "message": message}
        if attrs:
            event.update(attrs)
        with self._lock:
            self._ring.append(event)

    def note_shed(self, rows: int, priority: str, where: str) -> None:
        """Record a shed; auto-dumps once per burst of
        ``shed_burst_threshold`` sheds."""
        self.note("shed", where, rows=rows, priority=priority)
        with self._lock:
            self._shed_since_dump += 1
            burst = self._shed_since_dump >= self.shed_burst_threshold
            if burst:
                self._shed_since_dump = 0
        if burst:
            self.dump("shed-burst")

    # -- dumping ----------------------------------------------------------
    def dump(self, reason: str, log: Optional[EventLog] = None) -> dict:
        """Snapshot the ring (+ recent spans of ``log``, default the
        armed span log) into ``self.dumps``; also writes
        ``flight-<n>-<reason>.json`` when a dump directory is
        configured."""
        log = log if log is not None else instrument.SPANS
        with self._lock:
            events = list(self._ring)
            dump_id = next(self._dump_ids)
        record: Dict[str, Any] = {
            "dump_id": dump_id,
            "reason": reason,
            "t": self.clock(),
            "events": events,
        }
        if log is not None:
            record["spans"] = [
                {"name": s.name, "cat": s.cat, "trace": s.trace_id,
                 "span": s.span_id, "parent": s.parent_id,
                 "start": s.start, "end": s.end, "status": s.status,
                 "attrs": s.attrs}
                for s in spans(log)[-DUMP_SPANS:]
            ]
        self.dumps.append(record)
        if self.dump_dir:
            try:
                os.makedirs(self.dump_dir, exist_ok=True)
                path = os.path.join(
                    self.dump_dir, f"flight-{dump_id}-{reason}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=2, sort_keys=True)
            except OSError:
                # a full disk must not turn a diagnostic into a crash
                pass
        return record

    def events(self) -> List[dict]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._shed_since_dump = 0
        self.dumps.clear()


#: the process recorder — always on (the ring only fills on rare
#: events, so there is nothing to arm)
RECORDER = FlightRecorder()
