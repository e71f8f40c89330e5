"""Process-wide metrics registry: counters, gauges, histograms, probes.

Four surfaces already count things —
:class:`~repro.serve.metrics.ServerMetrics`/``FleetMetrics`` windows,
:class:`~repro.mempool.stats.AllocatorStats`, the tensor-cache
hit/miss/evict counters, and the device :class:`~repro.device.timeline`
busy clocks — each with its own locking and its own export shape.  The
registry does not replace them; it gives them one namespace to
*register into*, one ``collect()`` snapshot, one JSON-lines exporter
and one renderer, so the CLI, the obs-smoke CI job and a monitoring
sidecar all read the same surface.

Two instrument families:

* **owned** — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
  created via the registry; thread-safe, lock-per-instrument (the lock
  is a leaf, safe to touch from worker threads);
* **probes** — a name bound to a zero-arg callable over an *existing*
  locked stats object (``server.metrics.to_dict``, allocator stats,
  cache counters).  The callable runs at ``collect()`` time, so the
  owning subsystem keeps its own synchronization and the registry adds
  no per-event cost to hot paths.  A probe may carry a ``renderer``
  (value -> str) — ``serve.metrics.render_slo_report`` plugs in here,
  so the CLI's SLO block and the registry's render never drift.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.check.instrument import TracedLock

#: histogram samples kept per instrument (rolling window, O(1) memory)
HISTOGRAM_WINDOW = 8192


def summarize(samples, scale: float = 1.0) -> Dict[str, float]:
    """mean/p50/p95/p99/max of ``samples`` times ``scale`` (all zero
    when empty).  Scaling happens before the percentiles, so a
    seconds window summarized with ``scale=1e3`` reads in ms."""
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "max": 0.0}
    arr = np.asarray(samples) * scale
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


class Counter:
    """Monotonic event count (``inc`` only goes up)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = TracedLock("obs.metric")
        self._value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = TracedLock("obs.metric")
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Rolling-window distribution with percentile snapshots."""

    __slots__ = ("name", "_lock", "_window", "_count", "_sum")

    def __init__(self, name: str, window: int = HISTOGRAM_WINDOW):
        self.name = name
        self._lock = TracedLock("obs.metric")
        self._window: deque = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(float(value))
            self._count += 1
            self._sum += float(value)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            samples = list(self._window)
            count, total = self._count, self._sum
        return {"count": count, "sum": total, **summarize(samples)}

    @property
    def value(self) -> Dict[str, float]:
        return self.snapshot()


class Probe:
    """A registered window onto someone else's stats object."""

    __slots__ = ("name", "fn", "renderer")

    def __init__(self, name: str, fn: Callable[[], Any],
                 renderer: Optional[Callable[[Any], str]] = None):
        self.name = name
        self.fn = fn
        self.renderer = renderer

    @property
    def value(self) -> Any:
        return self.fn()


class MetricsRegistry:
    """One namespace of instruments; snapshot, export, render.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent
    for the same type; a name clash across types raises — one name, one
    meaning).  ``probe`` replaces on re-register: a restarted server
    re-binding its name must win over the dead instance's callable.
    """

    def __init__(self) -> None:
        self._lock = TracedLock("obs.registry")
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls, *args):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}")
                return existing
            inst = cls(name, *args)
            self._instruments[name] = inst
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  window: int = HISTOGRAM_WINDOW) -> Histogram:
        return self._get_or_create(name, Histogram, window)

    def probe(self, name: str, fn: Callable[[], Any],
              renderer: Optional[Callable[[Any], str]] = None) -> Probe:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None and type(existing) is not Probe:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}")
            inst = Probe(name, fn, renderer)
            self._instruments[name] = inst
            return inst

    def unregister(self, prefix: str) -> int:
        """Drop every instrument whose name is ``prefix`` or starts
        with ``prefix.``; returns how many were removed."""
        with self._lock:
            doomed = [n for n in self._instruments
                      if n == prefix or n.startswith(prefix + ".")]
            for n in doomed:
                del self._instruments[n]
            return len(doomed)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._instruments.get(name)

    # -- export -----------------------------------------------------------
    def collect(self) -> Dict[str, dict]:
        """``{name: {"type": ..., "value": ...}}`` snapshot.  Probes run
        *outside* the registry lock (their callables take the owning
        subsystem's locks; holding ours across them would couple two
        unrelated lock domains)."""
        with self._lock:
            items = sorted(self._instruments.items())
        out: Dict[str, dict] = {}
        for name, inst in items:
            out[name] = {"type": type(inst).__name__.lower(),
                         "value": inst.value}
        return out

    def export_jsonl(self, path, extra: Optional[dict] = None) -> dict:
        """Append one JSON line ``{"metrics": collect(), **extra}`` to
        ``path`` — a scrape, not a rewrite, so a sampler loop appending
        every N seconds yields a time series."""
        record = dict(extra or {})
        record["metrics"] = self.collect()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def render(self) -> str:
        """Human-readable listing; a probe with a renderer delegates to
        it (the shared SLO renderer keeps CLI and registry identical)."""
        with self._lock:
            items = sorted(self._instruments.items())
        lines: List[str] = []
        for name, inst in items:
            if isinstance(inst, Probe) and inst.renderer is not None:
                body = inst.renderer(inst.value)
                lines.append(f"{name}:")
                lines.extend("  " + ln for ln in body.splitlines())
            elif isinstance(inst, Histogram):
                snap = inst.snapshot()
                lines.append(
                    f"{name}: n={snap['count']} mean={snap['mean']:.4g} "
                    f"p50={snap['p50']:.4g} p95={snap['p95']:.4g} "
                    f"p99={snap['p99']:.4g} max={snap['max']:.4g}")
            elif isinstance(inst, Probe):
                lines.append(f"{name}: {inst.value!r}")
            else:
                lines.append(f"{name}: {inst.value}")
        return "\n".join(lines)

