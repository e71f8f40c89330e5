"""The serving fleet: N engines behind one SLO-aware front door.

A :class:`ServingFleet` stands up one
:class:`~repro.serve.server.InferenceServer` lane per compiled engine
(different zoo nets and/or batch shapes), a
:class:`~repro.serve.router.Router` that orders lanes per request by
predicted padding waste + queue depth, and one
:class:`~repro.serve.metrics.FleetMetrics` rollup.  The submit path
walks the router's ordering and probes each lane with ``try_submit``;
a lane's bounded queue may refuse (backpressure), in which case the
request spills to the next-best lane.  Only when *every* lane refused
does the fleet shed — recorded, then raised as
:class:`~repro.serve.queue.RequestRejected` so the caller learns
synchronously.

The three backpressure invariants (DESIGN.md "Serving"):

1. admission is bounded — no queue ever holds more than its
   ``max_pending_rows``, so backlog memory is O(fleet config), not
   O(offered load);
2. shed is explicit and synchronous — an over-capacity submit raises
   ``RequestRejected`` from ``submit`` itself, and the accounting
   identity ``completed + failed + shed == offered`` holds exactly;
3. worker autoscale is bounded — each lane scales between its
   ``workers`` floor and ``max_workers`` ceiling, never below the
   floor, so a drain always progresses.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.check import instrument
from repro.core.engine import Engine
from repro.obs import trace as obs_trace
from repro.obs.recorder import RECORDER
from repro.serve.metrics import FleetMetrics
from repro.serve.queue import RequestFuture, RequestRejected
from repro.serve.router import Router
from repro.serve.server import InferenceServer


def _lane_names(engines: Sequence[Engine],
                names: Optional[Sequence[str]]) -> List[str]:
    if names is not None:
        names = [str(n) for n in names]
        if len(names) != len(engines):
            raise ValueError(
                f"{len(names)} names for {len(engines)} engines")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate lane names: {sorted(names)}")
        return names
    out: List[str] = []
    for eng in engines:
        base = f"{eng.net.name}@b{eng.batch_size}"
        name, n = base, 2
        while name in out:
            name, n = f"{base}#{n}", n + 1
        out.append(name)
    return out


class ServingFleet:
    """N engine lanes, one router, one front-door ``submit``.

    ``workers``/``max_workers``/``max_pending_rows`` configure every
    lane identically (the shapes differ; the backpressure contract
    should not).  ``max_wait`` is the anti-starvation bound for the
    *largest* lane; smaller lanes wait proportionally less
    (``max_wait * capacity / max_capacity``) — the same
    fill-vs-latency tuning policy applied per shape, so a small-batch
    lane never holds a lone request longer than filling its whole
    batch could justify.
    """

    def __init__(self, engines: Sequence[Engine],
                 names: Optional[Sequence[str]] = None,
                 workers: int = 1,
                 max_workers: Optional[int] = None,
                 max_pending_rows: Optional[int] = None,
                 policy="greedy-fill",
                 max_wait: float = 0.002,
                 depth_weight: float = 1.0,
                 clock: Callable[[], float] = monotonic):
        if not engines:
            raise ValueError("a fleet needs at least one engine")
        concrete = {e.config.concrete for e in engines}
        if len(concrete) != 1:
            raise ValueError(
                "all fleet engines must agree on concrete vs simulated "
                "mode (payloads either exist everywhere or nowhere)")
        self.concrete = concrete.pop()
        self.clock = clock
        names = _lane_names(engines, names)
        max_capacity = max(e.batch_size for e in engines)
        self.servers: Dict[str, InferenceServer] = {}
        for name, eng in zip(names, engines):
            self.servers[name] = InferenceServer(
                eng, workers=workers, policy=policy,
                max_wait=max_wait * eng.batch_size / max_capacity,
                max_pending_rows=max_pending_rows,
                max_workers=max_workers, clock=clock)
        self.router = Router(self.servers, depth_weight=depth_weight)
        self.metrics = FleetMetrics(
            {name: s.metrics for name, s in self.servers.items()})
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServingFleet":
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        for server in self.servers.values():
            server.start()
        return self

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Stop every lane; True when all backlogs fully drained."""
        if not self._started or self._stopped:
            return False
        self._stopped = True
        deadline = None if timeout is None else self.clock() + timeout
        drained = True
        for server in self.servers.values():
            left = None if deadline is None \
                else max(0.0, deadline - self.clock())
            drained = server.stop(drain=drain, timeout=left) and drained
        return drained

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every lane's backlog has completed."""
        deadline = None if timeout is None else self.clock() + timeout
        ok = True
        for server in self.servers.values():
            left = None if deadline is None \
                else max(0.0, deadline - self.clock())
            ok = server.drain(left) and ok
        return ok

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -------------------------------------------------------------- serving
    def submit(self, data: Optional[np.ndarray] = None,
               size: Optional[int] = None,
               priority: str = "normal",
               deadline: Optional[float] = None) -> RequestFuture:
        """Route one request to the best willing lane.

        Tries lanes in the router's best-first order; a lane's bounded
        queue may refuse, spilling the request to the next.  When every
        lane refused, records a fleet shed and raises
        :class:`RequestRejected` — the explicit backpressure signal.
        """
        if self.concrete and data is None:
            raise ValueError(
                "a concrete fleet serves payload rows; pass data= "
                "(size-only requests are for simulated fleets)")
        if not self.concrete and data is not None:
            raise ValueError(
                "a simulated fleet holds no payloads; pass size= instead")
        sample_shape = None
        if data is not None:
            data = np.asarray(data, dtype=np.float32)
            size = data.shape[0]
            sample_shape = data.shape[1:]
        elif size is None:
            raise ValueError("submit needs data rows or an explicit size")
        log = instrument.SPANS
        span = None
        if log is not None:
            # the fleet is the front door: one root span per offered
            # request, whatever lane (if any) admits it — the root
            # count is exactly the offered count, so completed +
            # failed + shed partition the roots.  The route child
            # covers only the router's ordering pass; it closes before
            # any lane can admit (so it can never outlive its root).
            span = obs_trace.root(log, "request", attrs={
                "size": size, "priority": priority})
            route_span = span.child("route")
            order = self.router.route(size, sample_shape)
            route_span.finish(lanes=len(order),
                              order=[name for name, _ in order])
        else:
            order = self.router.route(size, sample_shape)
        for probe, (name, server) in enumerate(order):
            future = server.try_submit(data=data, size=size,
                                       priority=priority,
                                       deadline=deadline, span=span)
            if future is not None:
                self.metrics.record_routed(name)
                if span is not None:
                    # benign post-hoc annotation (never a timing edge)
                    span.attrs["lane"] = name
                    span.attrs["probe"] = probe
                return future
        self.metrics.record_shed(size, priority)
        if span is not None:
            span.finish(status="shed", probes=len(order))
        RECORDER.note_shed(size, priority, "fleet")
        raise RequestRejected(
            f"all {len(self.servers)} lanes rejected a {size}-row "
            f"{priority} request (fleet saturated)")

    def session_timelines(self) -> Dict[str, "object"]:
        """Every lane's worker-session device timelines, lane-prefixed
        (the Chrome trace exporter's simulated-stream lanes)."""
        out: Dict[str, "object"] = {}
        for name, server in self.servers.items():
            for label, tl in server.session_timelines().items():
                out[f"{name}/{label}"] = tl
        return out

    def register_metrics(self, registry, prefix: str = "fleet") -> None:
        """Register the fleet rollup plus every lane on a
        :class:`~repro.obs.metrics.MetricsRegistry` — one shared SLO
        renderer for the rollup, per-lane server/executor probes under
        ``<prefix>.lane.<name>``."""
        from repro.serve.metrics import render_slo_report
        registry.probe(f"{prefix}.slo", self.metrics.to_dict,
                       renderer=render_slo_report)
        for name, server in self.servers.items():
            server.register_metrics(registry, f"{prefix}.lane.{name}")

    def describe(self) -> str:
        lanes = ", ".join(
            f"{name}: {server.describe()}"
            for name, server in self.servers.items())
        return (f"ServingFleet({len(self.servers)} lanes, "
                f"{self.router.describe()}; {lanes})")
