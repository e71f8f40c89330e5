"""Instrumented stress scenarios the race sanitizer drives.

Two scenarios cover the repo's two concurrency surfaces (``check race``
on the CLI and the ``race-sanitizer`` CI job run both):

* :func:`run_parallel_scenario` — ``Engine.parallel_run`` over a mix of
  infer and simulated-train sessions (the PR 4 thread-per-session
  path);
* :func:`run_serving_scenario` — an :class:`InferenceServer` draining a
  Poisson-ish arrival trace of variable-sized requests while a *swap
  storm* exercises the ``swap_weights`` barrier against live workers
  (the PR 5 queue/batcher/worker path).

Each runs entirely under ``instrument.capture("sync")`` and returns
``(EventLog, info)`` for :func:`repro.check.race_detector.analyze_log`.
Both are deterministic in their scheduling *surface* (seeded arrivals,
fixed request sizes), though the interleaving itself is the thread
scheduler's — which is the point: the detector checks the
happens-before structure, which must hold for every interleaving.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Optional, Tuple

from repro.check.instrument import EventLog, capture
from repro.core.config import RuntimeConfig
from repro.core.engine import compile as compile_engine
from repro.serve.server import InferenceServer
from repro.zoo import NETWORK_BUILDERS


def _build(net: str, batch: int):
    try:
        builder = NETWORK_BUILDERS[net]
    except KeyError:
        raise KeyError(f"unknown network {net!r}; known: "
                       f"{sorted(NETWORK_BUILDERS)}") from None
    return builder(batch=batch)


def run_parallel_scenario(net: str = "lenet", sessions: int = 4,
                          iters: int = 3, batch: int = 8,
                          limit: Optional[int] = None,
                          ) -> Tuple[EventLog, Dict]:
    """Thread-per-session stress under instrumentation.

    Drives ``sessions`` infer sessions and (simulated engines never
    touch payloads, so it is parallel-safe) ``sessions`` train sessions
    through :meth:`~repro.core.engine.Engine.parallel_run`, including
    the lazy-compile path both modes share.
    """
    with capture("sync", limit=limit) as log:
        cfg = RuntimeConfig(concrete=False)
        engine = compile_engine(_build(net, batch), cfg)
        infer = [engine.session(mode="infer") for _ in range(sessions)]
        train = [engine.session(mode="train") for _ in range(sessions)]
        try:
            engine.parallel_run(infer, iters, timeout=300)
            engine.parallel_run(train, iters, timeout=300)
            # mixed-mode round: infer + sim-train threads side by side
            mixed = [engine.session(mode="infer"),
                     engine.session(mode="train")]
            try:
                engine.parallel_run(mixed, iters, timeout=300)
            finally:
                for s in mixed:
                    s.close()
        finally:
            for s in infer + train:
                s.close()
    info = {
        "scenario": "parallel",
        "net": net,
        "sessions": sessions * 2 + 2,
        "iters": iters,
        "events": len(log),
    }
    return log, info


def run_serving_scenario(net: str = "lenet", workers: int = 3,
                         requests: int = 60, swaps: int = 3,
                         batch: int = 8, max_wait: float = 0.001,
                         rate: float = 2000.0, seed: int = 0,
                         limit: Optional[int] = None,
                         ) -> Tuple[EventLog, Dict]:
    """Serving stress: Poisson-ish trace + swap storm, instrumented.

    ``requests`` variable-sized simulated requests arrive with
    exponential inter-arrival gaps (mean ``1/rate`` seconds, seeded);
    every ``requests // (swaps + 1)`` submissions a full-weights
    hot-swap runs the pause → drain → install → resume barrier against
    whatever the workers have in flight.
    """
    rng = random.Random(seed)
    swap_every = max(1, requests // (swaps + 1)) if swaps else 0
    with capture("sync", limit=limit) as log:
        cfg = RuntimeConfig(concrete=False)
        engine = compile_engine(_build(net, batch), cfg,
                                modes=("infer",))
        payload = engine.snapshot_params()
        done_swaps = 0
        with InferenceServer(engine, workers=workers,
                             max_wait=max_wait) as server:
            futures = []
            for i in range(requests):
                futures.append(
                    server.submit(size=1 + rng.randrange(2 * batch)))
                if swap_every and (i + 1) % swap_every == 0 \
                        and done_swaps < swaps:
                    server.swap_weights(payload, timeout=120)
                    done_swaps += 1
                time.sleep(rng.expovariate(rate))
            for f in futures:
                f.result(timeout=120)
    info = {
        "scenario": "serving",
        "net": net,
        "workers": workers,
        "requests": requests,
        "swaps": done_swaps,
        "weights_version": engine.weights_version,
        "events": len(log),
    }
    return log, info
