"""Serving metrics: latency, fill, padding waste, throughput, SLOs.

Collected under one lock from every worker thread and exported via
``to_dict`` exactly like :class:`~repro.core.runtime.IterationResult`
— the CLI, the benchmark gate and the tests all read the same dict.

Latency decomposes the way the request actually spends it:

* **queue** — enqueue until the request's first slice starts computing
  (what the batcher's ``max_wait`` bounds for a lone request);
* **compute** — first slice start until the last slice's outputs are
  delivered (for a split request this spans several engine steps).

Failed requests get their own ``failed_ms`` distribution (enqueue →
fail) — they never pollute the success percentiles, and an error storm
cannot silently *flatter* p95 by vanishing from every window either.
Each request's latency is also bucketed by its priority class, so the
SLO report reads per-class p50/p95/p99.  :class:`FleetMetrics` rolls N
per-engine :class:`ServerMetrics` up into one fleet-wide report
(routing counts, shed rate, merged percentiles).
"""

from __future__ import annotations

from collections import deque
from time import monotonic
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.check.instrument import TracedLock, trace_read, trace_write
from repro.obs.metrics import summarize
from repro.serve.batcher import AssembledBatch
from repro.serve.queue import PRIORITIES, InferenceRequest

#: latency samples kept per distribution — a rolling window, so a
#: server left up for days holds O(1) memory and the percentiles
#: describe *recent* traffic (the counters stay lifetime-exact)
LATENCY_WINDOW = 65536


class ServerMetrics:
    """Thread-safe serving counters + distributions."""

    def __init__(self, clock: Callable[[], float] = monotonic):
        self.clock = clock
        self._lock = TracedLock("serve.metrics")
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        # requests
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.samples = 0
        self.shed_samples = 0
        self._queue_lat: deque = deque(maxlen=LATENCY_WINDOW)
        self._compute_lat: deque = deque(maxlen=LATENCY_WINDOW)
        self._total_lat: deque = deque(maxlen=LATENCY_WINDOW)
        self._failed_lat: deque = deque(maxlen=LATENCY_WINDOW)
        # per priority class: completed/failed/shed counts + latencies
        self._class_completed: Dict[str, int] = \
            {c: 0 for c in PRIORITIES}
        self._class_failed: Dict[str, int] = {c: 0 for c in PRIORITIES}
        self._class_shed: Dict[str, int] = {c: 0 for c in PRIORITIES}
        self._class_lat: Dict[str, deque] = \
            {c: deque(maxlen=LATENCY_WINDOW) for c in PRIORITIES}
        # batches
        self.batches = 0
        self.rows = 0
        self.padded_rows = 0
        self.split_slices = 0
        self._compute_seconds = 0.0
        # weight swaps
        self.swaps = 0
        self.weights_version = 0

    # -- recording --------------------------------------------------------
    def note_start(self) -> None:
        with self._lock:
            self._started_at = self.clock()

    def note_stop(self) -> None:
        with self._lock:
            self._stopped_at = self.clock()

    def record_batch(self, batch: AssembledBatch,
                     compute_seconds: float) -> None:
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self.batches += 1
            self.rows += batch.fill
            self.padded_rows += batch.padding
            self.split_slices += sum(
                1 for s in batch.slices if s.rows != s.request.size)
            self._compute_seconds += compute_seconds

    def record_request(self, req: InferenceRequest) -> None:
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self.completed += 1
            self.samples += req.size
            self._class_completed[req.priority] += 1
            if req.dispatch_time is not None:
                self._queue_lat.append(
                    req.dispatch_time - req.enqueue_time)
                if req.complete_time is not None:
                    self._compute_lat.append(
                        req.complete_time - req.dispatch_time)
            if req.complete_time is not None:
                total = req.complete_time - req.enqueue_time
                self._total_lat.append(total)
                self._class_lat[req.priority].append(total)

    def record_failure(self, req: InferenceRequest) -> None:
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self.failed += 1
            self._class_failed[req.priority] += 1
            if req.complete_time is not None:
                self._failed_lat.append(
                    req.complete_time - req.enqueue_time)

    def record_shed(self, samples: int, priority: str = "normal") -> None:
        """A request of ``samples`` rows was rejected at admission."""
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self.shed += 1
            self.shed_samples += samples
            if priority in self._class_shed:
                self._class_shed[priority] += 1

    def note_swap(self, version: int) -> None:
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self.swaps += 1
            self.weights_version = version

    # -- export -----------------------------------------------------------
    def _elapsed_unlocked(self) -> float:
        if self._started_at is None:
            return 0.0
        end = self._stopped_at if self._stopped_at is not None \
            else self.clock()
        return max(end - self._started_at, 0.0)

    def _fill_ratio_unlocked(self) -> float:
        total = self.rows + self.padded_rows
        return self.rows / total if total else 0.0

    @property
    def elapsed(self) -> float:
        # under _lock: a monitor thread must never see a half-written
        # start/stop pair mid-note (and the race checker must see the
        # read).  TracedLock is not reentrant, so to_dict — which
        # already holds the lock — uses the _unlocked internals.
        with self._lock:
            trace_read(self, "serve.metrics.counters")
            return self._elapsed_unlocked()

    @property
    def fill_ratio(self) -> float:
        with self._lock:
            trace_read(self, "serve.metrics.counters")
            return self._fill_ratio_unlocked()

    def p95_latency(self) -> float:
        """Seconds; 0 when nothing completed yet."""
        with self._lock:
            trace_read(self, "serve.metrics.counters")
            if not self._total_lat:
                return 0.0
            return float(np.percentile(np.asarray(self._total_lat), 95))

    def counts(self) -> tuple:
        """One consistent ``(completed, failed, shed)`` snapshot."""
        with self._lock:
            trace_read(self, "serve.metrics.counters")
            return self.completed, self.failed, self.shed

    def latency_snapshot(self) -> Dict[str, list]:
        """Copies of the raw latency windows (seconds) — what
        :class:`FleetMetrics` merges across engines so fleet-wide
        percentiles come from samples, not averaged percentiles."""
        with self._lock:
            trace_read(self, "serve.metrics.counters")
            return {
                "total": list(self._total_lat),
                "queue": list(self._queue_lat),
                "compute": list(self._compute_lat),
                "failed": list(self._failed_lat),
                "classes": {c: list(d)
                            for c, d in self._class_lat.items()},
            }

    def to_dict(self) -> dict:
        """JSON-serializable summary (the ``IterationResult.to_dict``
        contract: one flat dict the CLI/benchmarks print or gate on)."""
        with self._lock:
            trace_read(self, "serve.metrics.counters")
            elapsed = self._elapsed_unlocked()
            offered = self.completed + self.failed + self.shed
            return {
                "requests": {
                    "completed": self.completed,
                    "failed": self.failed,
                    "shed": self.shed,
                    "samples": self.samples,
                    "shed_samples": self.shed_samples,
                    "shed_rate":
                        self.shed / offered if offered else 0.0,
                    "latency_ms": summarize(self._total_lat, 1e3),
                    "queue_ms": summarize(self._queue_lat, 1e3),
                    "compute_ms": summarize(self._compute_lat, 1e3),
                    "failed_ms": summarize(self._failed_lat, 1e3),
                },
                "classes": {
                    c: {
                        "completed": self._class_completed[c],
                        "failed": self._class_failed[c],
                        "shed": self._class_shed[c],
                        "latency_ms": summarize(self._class_lat[c], 1e3),
                    }
                    for c in PRIORITIES
                },
                "batches": {
                    "count": self.batches,
                    "rows": self.rows,
                    "padded_rows": self.padded_rows,
                    "fill_ratio": self._fill_ratio_unlocked(),
                    "split_slices": self.split_slices,
                    "compute_seconds": self._compute_seconds,
                },
                "throughput": {
                    "elapsed_seconds": elapsed,
                    "requests_per_second":
                        self.completed / elapsed if elapsed else 0.0,
                    "samples_per_second":
                        self.samples / elapsed if elapsed else 0.0,
                },
                "swaps": {
                    "count": self.swaps,
                    "weights_version": self.weights_version,
                },
            }


def _render_classes(classes: Dict[str, dict]) -> List[str]:
    lines = []
    for cls, c in classes.items():
        if c["completed"] or c["failed"] or c["shed"]:
            lines.append(
                f"  {cls:<10} : {c['completed']} done, "
                f"p95 {c['latency_ms']['p95']:.2f} ms, "
                f"p99 {c['latency_ms']['p99']:.2f} ms, "
                f"{c['shed']} shed")
    return lines


def render_slo_report(m: dict) -> str:
    """Render one SLO report from a metrics dict — the single text
    view of serving health, shared by ``cli serve`` (both the
    single-server and ``--fleet`` branches) and the
    :class:`~repro.obs.metrics.MetricsRegistry` probe renderer.

    Accepts either shape: :meth:`ServerMetrics.to_dict` (keys
    ``requests``/``batches``/``throughput``) or
    :meth:`FleetMetrics.to_dict` (key ``fleet`` plus per-engine
    sub-dicts) — detected by the ``"fleet"`` key, so callers never
    branch on which level they hold.
    """
    lines: List[str] = []
    if "fleet" in m:
        fl = m["fleet"]
        req = fl["requests"]
        offered = req["completed"] + req["failed"] + req["shed"]
        lines.append(
            f"requests     : {req['completed']} completed, "
            f"{req['failed']} failed, {req['shed']} shed "
            f"(rate {req['shed_rate']:.1%}) — offered {offered}")
        lines.append(
            f"latency      : p50 {req['latency_ms']['p50']:.2f} ms, "
            f"p95 {req['latency_ms']['p95']:.2f} ms, "
            f"p99 {req['latency_ms']['p99']:.2f} ms")
        lines.extend(_render_classes(fl["classes"]))
        lines.append(f"fill         : {fl['fill_ratio']:.1%} fleet-wide")
        for lane, eng in m["engines"].items():
            er, eb = eng["requests"], eng["batches"]
            lines.append(
                f"  {lane:<12} : {fl['routed'][lane]} routed, "
                f"{er['completed']} done, "
                f"fill {eb['fill_ratio']:.1%}, "
                f"p95 {er['latency_ms']['p95']:.2f} ms")
    else:
        req, bat = m["requests"], m["batches"]
        thr = m["throughput"]
        lines.append(
            f"requests     : {req['completed']} completed, "
            f"{req['failed']} failed, {req['samples']} samples"
            + (f", {req['shed']} shed" if req["shed"] else ""))
        lines.append(
            f"latency      : p50 {req['latency_ms']['p50']:.2f} ms, "
            f"p95 {req['latency_ms']['p95']:.2f} ms, "
            f"max {req['latency_ms']['max']:.2f} ms "
            f"(queue p95 {req['queue_ms']['p95']:.2f} ms)")
        lines.extend(_render_classes(m["classes"]))
        lines.append(
            f"batches      : {bat['count']} steps, fill "
            f"{bat['fill_ratio']:.1%}, {bat['padded_rows']} padded "
            f"rows, {bat['split_slices']} split slices")
        lines.append(
            f"throughput   : {thr['requests_per_second']:.1f} req/s, "
            f"{thr['samples_per_second']:.1f} samples/s over "
            f"{thr['elapsed_seconds']:.2f}s")
        if m["swaps"]["count"]:
            lines.append(
                f"weight swaps : {m['swaps']['count']} "
                f"(now v{m['swaps']['weights_version']})")
    return "\n".join(lines)


class FleetMetrics:
    """Fleet-wide SLO rollup over N per-engine :class:`ServerMetrics`.

    The fleet owns only routing and shed counters; every per-request
    number lives in the engine the request ran on.  ``to_dict`` merges
    the engines' raw latency windows (via ``latency_snapshot``) so the
    fleet percentiles are computed over samples — averaging per-engine
    percentiles would be wrong.  Lock order is fleet → engine, and the
    engine snapshots are taken *outside* the fleet lock, so the two
    levels never nest.
    """

    def __init__(self, engines: Dict[str, ServerMetrics]):
        self._engines = dict(engines)
        self._lock = TracedLock("serve.fleet.metrics")
        self.routed: Dict[str, int] = {n: 0 for n in self._engines}
        self.shed = 0
        self.shed_samples = 0
        self._class_shed: Dict[str, int] = {c: 0 for c in PRIORITIES}

    @property
    def engine_names(self) -> List[str]:
        return list(self._engines)

    def engine(self, name: str) -> ServerMetrics:
        return self._engines[name]

    # -- recording --------------------------------------------------------
    def record_routed(self, name: str) -> None:
        with self._lock:
            trace_write(self, "serve.fleet.counters")
            self.routed[name] += 1

    def record_shed(self, samples: int, priority: str = "normal") -> None:
        """Every lane rejected this request: a fleet-level shed."""
        with self._lock:
            trace_write(self, "serve.fleet.counters")
            self.shed += 1
            self.shed_samples += samples
            if priority in self._class_shed:
                self._class_shed[priority] += 1

    # -- export -----------------------------------------------------------
    def counts(self) -> tuple:
        """Fleet ``(completed, failed, shed)``: engine sums + fleet
        sheds (a fleet shed means *no* engine ever saw the request)."""
        completed = failed = 0
        for m in self._engines.values():
            c, f, _ = m.counts()
            completed += c
            failed += f
        with self._lock:
            trace_read(self, "serve.fleet.counters")
            return completed, failed, self.shed

    def to_dict(self) -> dict:
        engines = {n: m.to_dict() for n, m in self._engines.items()}
        snaps = [m.latency_snapshot() for m in self._engines.values()]
        with self._lock:
            trace_read(self, "serve.fleet.counters")
            routed = dict(self.routed)
            shed = self.shed
            shed_samples = self.shed_samples
            class_shed = dict(self._class_shed)
        completed = sum(e["requests"]["completed"]
                        for e in engines.values())
        failed = sum(e["requests"]["failed"] for e in engines.values())
        samples = sum(e["requests"]["samples"]
                      for e in engines.values())
        rows = sum(e["batches"]["rows"] for e in engines.values())
        padded = sum(e["batches"]["padded_rows"]
                     for e in engines.values())
        offered = completed + failed + shed
        merged = {k: [x for s in snaps for x in s[k]]
                  for k in ("total", "queue", "compute", "failed")}
        classes = {}
        for c in PRIORITIES:
            classes[c] = {
                "completed": sum(e["classes"][c]["completed"]
                                 for e in engines.values()),
                "failed": sum(e["classes"][c]["failed"]
                              for e in engines.values()),
                "shed": class_shed[c],
                "latency_ms": summarize(
                    [x for s in snaps for x in s["classes"][c]], 1e3),
            }
        return {
            "engines": engines,
            "fleet": {
                "requests": {
                    "completed": completed,
                    "failed": failed,
                    "shed": shed,
                    "samples": samples,
                    "shed_samples": shed_samples,
                    "shed_rate": shed / offered if offered else 0.0,
                    "latency_ms": summarize(merged["total"], 1e3),
                    "queue_ms": summarize(merged["queue"], 1e3),
                    "compute_ms": summarize(merged["compute"], 1e3),
                    "failed_ms": summarize(merged["failed"], 1e3),
                },
                "classes": classes,
                "routed": routed,
                "fill_ratio":
                    rows / (rows + padded) if rows + padded else 0.0,
            },
        }
