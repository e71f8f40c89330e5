"""The inference server: one engine, N worker sessions, dynamic batches.

The :class:`InferenceServer` owns a compiled
:class:`~repro.core.engine.Engine` and drives N ``mode="infer"``
sessions the way :meth:`~repro.core.engine.Engine.parallel_run` does —
one thread per session, safe because every piece of mutable tensor
state is session-local (PR 4's ``SessionTensorState``).  Instead of a
fixed iteration count, each worker pulls
:class:`~repro.serve.batcher.AssembledBatch` work from the shared
:class:`~repro.serve.batcher.DynamicBatcher`, feeds the padded batch
through its session, and scatters the output rows back to the riding
requests' futures.

Weight hot-swap (the ROADMAP item) is a *step barrier* built from two
facts: batch assembly is atomic per request (every slice of a split
request is published together), and :meth:`swap_weights` pauses
assembly, drains ready + outstanding batches, and only then calls
:meth:`~repro.core.engine.Engine.install_params`.  Every request
therefore computes entirely on one weights version — in-flight requests
(including the second half of a split one) finish on the old weights,
requests still queued see the new.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable, Dict, Optional

import numpy as np

from repro.check import instrument
from repro.check.instrument import TracedLock, TracedThread, trace_read
from repro.core.engine import Engine
from repro.obs import trace as obs_trace
from repro.obs.recorder import RECORDER
from repro.serve.batcher import DynamicBatcher
from repro.serve.metrics import ServerMetrics
from repro.serve.queue import (
    BoundedRequestQueue,
    RequestFuture,
    RequestQueue,
    RequestRejected,
)


class InferenceServer:
    """Serve variable-sized requests over one compiled engine.

    ``workers`` infer sessions share the engine's compiled plans (one
    planning pass however many workers).  ``policy`` picks the
    registered coalescing strategy (``"fifo"``, ``"greedy-fill"``,
    ``"deadline"``); ``max_wait`` bounds how long a lone request waits
    for batch-mates.  ``max_pending_rows`` bounds admission (the queue
    sheds with :class:`RequestRejected` past it); ``max_workers`` above
    ``workers`` arms the autoscaler — extra workers spawn while the
    backlog exceeds ``scale_up_depth`` batches per live worker, and
    retire after ``idle_retire`` seconds without work, never dropping
    below the ``workers`` floor (so a drain always progresses).
    Use as a context manager, or ``start()``/``stop()`` explicitly.
    """

    def __init__(self, engine: Engine, workers: int = 2,
                 policy="fifo", max_wait: float = 0.002,
                 max_pending_rows: Optional[int] = None,
                 max_workers: Optional[int] = None,
                 scale_up_depth: float = 2.0,
                 idle_retire: float = 0.05,
                 clock: Callable[[], float] = monotonic):
        if workers < 1:
            raise ValueError(f"need >= 1 workers, got {workers}")
        if max_workers is not None and max_workers < workers:
            raise ValueError(
                f"max_workers={max_workers} below the {workers}-worker "
                f"floor")
        if scale_up_depth <= 0:
            raise ValueError(
                f"scale_up_depth must be > 0, got {scale_up_depth}")
        if idle_retire <= 0:
            raise ValueError(
                f"idle_retire must be > 0, got {idle_retire}")
        if not engine.supports_parallel("infer"):  # always true today;
            raise TypeError(                       # guards future modes
                "engine cannot drive parallel infer sessions")
        self.engine = engine
        self.workers = workers
        self.min_workers = workers
        self.max_workers = workers if max_workers is None else max_workers
        self.scale_up_depth = scale_up_depth
        self.idle_retire = idle_retire
        self.clock = clock
        sample_shape = engine.input_shape[1:]
        if max_pending_rows is None:
            self.queue = RequestQueue(sample_shape=sample_shape,
                                      clock=clock)
        else:
            self.queue = BoundedRequestQueue(
                max_pending_rows, sample_shape=sample_shape, clock=clock)
        self.batcher = DynamicBatcher(self.queue, engine.batch_size,
                                      policy=policy, max_wait=max_wait,
                                      clock=clock)
        self.metrics = ServerMetrics(clock=clock)
        self._sessions: list = []
        self._threads: list = []
        self._started = False
        self._stopped = False
        # guards the worker roster (_alive/_sessions/_threads); taken
        # alone, never inside the queue monitor, so the order is acyclic
        self._scale_lock = TracedLock("server.scale")
        self._alive = 0
        self._worker_seq = 0
        # serializes swappers; the batcher pause/drain is the barrier.
        # gate=True: holding it across wait_idle IS the design (RACE004
        # exempts documented gates)
        self._swap_lock = TracedLock("server.swap", gate=True)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "InferenceServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        # compile before spawning so workers are pure run loops (the
        # engine's compile lock would serialize them anyway)
        self.engine.compiled("infer")
        self.metrics.note_start()
        with self._scale_lock:
            for _ in range(self.workers):
                self._spawn_worker()
        return self

    def _spawn_worker(self) -> None:
        """Stand one worker up (caller holds ``_scale_lock``)."""
        # history capped to 0: a serving worker runs unboundedly
        # many iterations and every result holds traces + the
        # output batch — retaining them would grow without limit
        session = self.engine.session(mode="infer").with_history(0)
        thread = TracedThread(
            target=self._worker_loop, args=(session,),
            name=f"repro-serve-{self._worker_seq}", daemon=True)
        self._worker_seq += 1
        self._alive += 1
        self._sessions.append(session)
        self._threads.append(thread)
        thread.start()

    def _maybe_scale_up(self) -> None:
        """Spawn a worker when the backlog outruns the live ones (called
        on the submit path; cheap when autoscaling is off)."""
        if self.max_workers <= self.min_workers:
            return
        with self.queue.cond:
            backlog = self.queue.pending_rows()
        with self._scale_lock:
            if self._stopped or not self._started \
                    or self._alive >= self.max_workers:
                return
            threshold = self.scale_up_depth * self.engine.batch_size \
                * self._alive
            if backlog > threshold:
                self._spawn_worker()

    @property
    def alive_workers(self) -> int:
        with self._scale_lock:
            return self._alive

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Shut down: close the queue, optionally drain the backlog,
        join the workers, fail whatever could not run.  ``timeout``
        bounds the whole stop (drain + joins); returns True when the
        backlog fully drained (always False for ``drain=False``)."""
        if not self._started or self._stopped:
            return False
        self._stopped = True
        deadline = None if timeout is None else self.clock() + timeout
        self.queue.close()
        drained = self.batcher.wait_drained(timeout) if drain else False
        self.batcher.shutdown()
        for t in self._threads:
            # post-shutdown a worker exits after at most one batch;
            # honor what is left of the caller's budget, with a floor
            # so timeout exhaustion cannot turn joins into no-waits
            grace = 30.0 if deadline is None \
                else max(1.0, deadline - self.clock())
            t.join(timeout=grace)
        stuck = [t.name for t in self._threads if t.is_alive()]
        now = self.clock()
        err = RuntimeError("server stopped before the request ran")
        for batch in self.batcher.drain_ready():
            for s in batch.slices:
                if s.request.fail(err, now):
                    self.metrics.record_failure(s.request)
        with self.queue.cond:
            leftover = self.queue.take_pending()
        for req in leftover:
            if req.fail(err, now):
                self.metrics.record_failure(req)
        if stuck:
            # a worker outlived the join grace: leave its session alive
            # (closing it under a running iteration would turn the
            # orderly 'server stopped' failure into an internal crash);
            # the threads are daemons, so interpreter exit reaps them
            RECORDER.note("worker.stuck", ", ".join(stuck),
                          engine=self.engine.net.name)
            RECORDER.dump("worker-stuck")
            raise RuntimeError(
                f"workers still running after shutdown: {stuck}; "
                "their sessions were left open")
        # the accounting invariant the double-count fix restores: every
        # admitted request resolved exactly one way (sheds never entered
        # `submitted`, so they do not appear on either side)
        completed, failed, _ = self.metrics.counts()
        if completed + failed != self.queue.submitted:
            raise RuntimeError(
                f"request accounting broken: completed={completed} + "
                f"failed={failed} != submitted={self.queue.submitted}")
        for s in self._sessions:
            s.close()
        self.metrics.note_stop()
        return drained

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -------------------------------------------------------------- serving
    def _check_payload(self, data, size) -> int:
        if self.engine.config.concrete and data is None:
            raise ValueError(
                "a concrete engine serves payload rows; pass data= "
                "(size-only requests are for simulated engines)")
        if not self.engine.config.concrete and data is not None:
            raise ValueError(
                "a simulated engine holds no payloads, so the rows "
                "would be silently ignored; pass size= instead")
        if data is not None:
            return int(np.asarray(data).shape[0])
        if size is None:
            raise ValueError("submit needs data rows or an explicit size")
        return int(size)

    def submit(self, data: Optional[np.ndarray] = None,
               size: Optional[int] = None,
               priority: str = "normal",
               deadline: Optional[float] = None) -> RequestFuture:
        """Enqueue one request; returns its future.

        Concrete engines require payload ``data`` of shape
        ``(n, *sample_shape)`` — the rows the future's result maps back
        to, bit-identical to running them alone.  Simulated engines
        take a bare ``size`` (descriptor-only traffic: the full
        batching/latency path with no payloads, so the future resolves
        to ``None``).  On a bounded queue an over-cap submit records a
        shed and re-raises :class:`RequestRejected`.
        """
        rows = self._check_payload(data, size)
        log = instrument.SPANS
        span = None if log is None else obs_trace.root(
            log, "request", attrs={"size": rows, "priority": priority,
                              "engine": self.engine.net.name})
        try:
            req = self.queue.submit(data=data, size=size,
                                    priority=priority, deadline=deadline,
                                    span=span)
        except RequestRejected:
            self.metrics.record_shed(rows, priority)
            if span is not None:
                span.finish(status="shed")
            RECORDER.note_shed(rows, priority,
                               f"server:{self.engine.net.name}")
            raise
        self._maybe_scale_up()
        return req.future

    def try_submit(self, data: Optional[np.ndarray] = None,
                   size: Optional[int] = None,
                   priority: str = "normal",
                   deadline: Optional[float] = None,
                   span=None) -> Optional[RequestFuture]:
        """Like :meth:`submit`, but an admission rejection returns
        ``None`` and records nothing — the spillover probe the fleet
        router uses while it still has other lanes to try (only a
        fleet-wide rejection is a real shed, and the fleet records it).
        ``span`` is the fleet's root span for the request, passed
        through to the queue on admission — the fleet owns root
        creation, so a probed-and-refused lane leaves no trace.
        """
        self._check_payload(data, size)
        try:
            req = self.queue.submit(data=data, size=size,
                                    priority=priority, deadline=deadline,
                                    span=span)
        except RequestRejected:
            return None
        self._maybe_scale_up()
        return req.future

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted request has completed."""
        return self.batcher.wait_drained(timeout)

    def session_timelines(self) -> Dict[str, "object"]:
        """Each worker session's device :class:`Timeline` (for the
        Chrome trace exporter's simulated-stream lanes).  Includes
        retired autoscaled workers — their ops happened."""
        with self._scale_lock:
            return {f"{self.engine.net.name}.worker{i}": s.executor.timeline
                    for i, s in enumerate(self._sessions)}

    def register_metrics(self, registry, prefix: str) -> None:
        """Register this server's surfaces on a
        :class:`~repro.obs.metrics.MetricsRegistry`: the SLO report as
        a rendered probe (the shared renderer, so CLI output and
        registry render never drift) plus each worker session's
        executor probes."""
        from repro.serve.metrics import render_slo_report
        registry.probe(f"{prefix}.slo", self.metrics.to_dict,
                       renderer=render_slo_report)

        def _pending():
            with self.queue.cond:   # consistent (requests, rows) pair
                return {"requests": self.queue.pending_count(),
                        "rows": self.queue.pending_rows()}
        registry.probe(f"{prefix}.queue.pending", _pending)
        with self._scale_lock:
            sessions = list(self._sessions)
        for i, s in enumerate(sessions):
            s.executor.register_metrics(registry,
                                        f"{prefix}.worker{i}")

    def swap_weights(self, params: Dict[str, np.ndarray],
                     timeout: Optional[float] = None) -> int:
        """Install updated weights at a step barrier.

        Pauses batch assembly, waits for every published batch to
        finish (so each started request — including both halves of a
        split one — completed on the old weights), installs, resumes.
        Requests still in the queue during the barrier run on the new
        weights.  Returns the number of parameter tensors installed.
        """
        log = instrument.SPANS
        barrier = None if log is None else obs_trace.root(
            log, "swap.barrier", cat="serve.swap",
            attrs={"engine": self.engine.net.name})
        with self._swap_lock:
            self.batcher.pause()
            try:
                drain = None if barrier is None \
                    else barrier.child("swap.drain")
                idle = self.batcher.wait_idle(timeout)
                if drain is not None:
                    drain.finish(status="ok" if idle else "error")
                if not idle:
                    raise TimeoutError(
                        f"in-flight batches still running after "
                        f"{timeout}s; weights NOT swapped")
                installed = self.engine.install_params(params)
                self.metrics.note_swap(self.engine.weights_version)
                if barrier is not None:
                    barrier.finish(
                        version=self.engine.weights_version)
            except BaseException as exc:
                if barrier is not None:
                    barrier.finish(status="error",
                                   error=type(exc).__name__)
                raise
            finally:
                self.batcher.resume()
        return installed

    def describe(self) -> str:
        workers = f"{self.workers} workers" \
            if self.max_workers == self.min_workers \
            else f"{self.min_workers}..{self.max_workers} workers"
        bound = "" if not isinstance(self.queue, BoundedRequestQueue) \
            else f", max_pending_rows={self.queue.max_pending_rows}"
        return (f"InferenceServer({self.engine.net.name}, "
                f"{workers}, {self.batcher.describe()}{bound}, "
                f"weights v{self.engine.weights_version})")

    # -------------------------------------------------------------- workers
    def _worker_loop(self, session) -> None:
        concrete = self.engine.config.concrete
        input_shape = self.engine.input_shape
        autoscaling = self.max_workers > self.min_workers
        iteration = 0
        while True:
            batch = self.batcher.next_batch(
                timeout=self.idle_retire if autoscaling else None)
            if batch is None:
                if self.batcher.stopping:   # shutdown
                    return
                # idle timeout: retire if we are above the floor (the
                # floor guarantees a drain always has live workers)
                with self._scale_lock:
                    if self._alive > self.min_workers:
                        self._alive -= 1
                        return
                continue
            now = self.clock()
            for s in batch.slices:
                s.request.mark_dispatched(now)
            # read under the barrier's protection: a swap waits for this
            # batch's mark_done before installing, so the version cannot
            # change between here and the compute below
            trace_read(self.engine, "engine.weights_version")
            trace_read(self.engine, "engine.params")
            version = self.engine.weights_version
            try:
                feed = batch.build_feed(input_shape) if concrete else None
                t0 = self.clock()
                res = session.run_iteration(
                    iteration, feed=feed,
                    capture_output=feed is not None)
                dt = self.clock() - t0
                out = res.output
                now = self.clock()
                for s in batch.slices:
                    rows = None if out is None else \
                        np.array(out[s.row_offset:s.row_offset + s.rows])
                    if s.request.deliver(s.part_index, rows, version, now):
                        self.metrics.record_request(s.request)
                    if s.request.span is not None:
                        # one compute span per slice, in the request's
                        # own tree (split requests show every ride)
                        obs_trace.emit(
                            s.request.span.log, "compute.slice",
                            start=t0, end=now,
                            parent=s.request.span,
                            attrs={"rows": s.rows,
                                   "part": s.part_index,
                                   "batch": batch.batch_id,
                                   "fill": batch.fill,
                                   "padding": batch.padding,
                                   "version": version})
                self.metrics.record_batch(batch, dt)
            except BaseException as exc:
                now = self.clock()
                failed = []
                for s in batch.slices:
                    if s.request.fail(exc, now):
                        self.metrics.record_failure(s.request)
                        failed.append(s.request.request_id)
                RECORDER.note("worker.exception",
                              f"{type(exc).__name__}: {exc}",
                              engine=self.engine.net.name,
                              batch=batch.batch_id, requests=failed)
                RECORDER.dump("worker-exception")
            finally:
                self.batcher.mark_done(batch)
            iteration += 1
