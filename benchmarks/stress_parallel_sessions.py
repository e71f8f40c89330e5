#!/usr/bin/env python
"""Threaded serving stress smoke: the CI gate for true parallel sessions.

Drives N infer sessions x M iterations per small zoo net through
``engine.parallel_run`` (one thread per session, op-granularity
interleave) under a hard per-session timeout, and gates on the losses
and peak-memory (plus DMA counters) being **bit-identical** to a
sequential baseline session.  Any cross-session state leak shows up as
a mismatch (or a crash); a hung session shows up as a TimeoutError —
both exit non-zero.

With ``REPRO_TRACE=sync`` exported (the CI parallel-stress job does)
the whole run records synchronization events, and the race detector
analyzes the log at the end — a happens-before violation fails the
gate even when the outputs happened to come out bit-identical.

Usage::

    PYTHONPATH=src python benchmarks/stress_parallel_sessions.py \
        --sessions 4 --iters 3 --timeout 180
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError

import repro
from repro import RuntimeConfig
from repro.zoo import alexnet, lenet, resnet_from_units

#: (name, net builder, config) — small nets: this is a correctness
#: gate, not a throughput benchmark.
WORKLOADS = [
    ("lenet/concrete", lambda: lenet(batch=4, image=12),
     lambda: RuntimeConfig.superneurons()),
    ("alexnet/sim", lambda: alexnet(batch=2, image=67, num_classes=10),
     lambda: RuntimeConfig.superneurons(concrete=False)),
    ("resnet/sim", lambda: resnet_from_units((1, 1, 1, 1), batch=2,
                                             image=32, num_classes=10),
     lambda: RuntimeConfig.superneurons(concrete=False)),
]


def stress_one(name, mk_net, mk_cfg, sessions: int, iters: int,
               timeout: float) -> int:
    engine = repro.compile(mk_net(), mk_cfg())
    workers = [engine.session(mode="infer") for _ in range(sessions)]
    t0 = time.perf_counter()
    parallel = engine.parallel_run(workers, iters=iters, timeout=timeout)
    wall = time.perf_counter() - t0
    with engine.session(mode="infer") as solo:
        baseline = [solo.run_iteration(i) for i in range(iters)]
    for s in workers:
        s.close()

    want = [(r.loss, r.peak_bytes, r.d2h_bytes, r.h2d_bytes)
            for r in baseline]
    failures = 0
    for sid, rs in enumerate(parallel):
        got = [(r.loss, r.peak_bytes, r.d2h_bytes, r.h2d_bytes)
               for r in rs]
        if got != want:
            failures += 1
            print(f"  FAIL session {sid}: {got} != sequential {want}",
                  file=sys.stderr)
    status = "ok" if failures == 0 else f"{failures} MISMATCHED"
    print(f"{name:18s} {sessions} sessions x {iters} iters: {status} "
          f"({wall * 1e3:.0f} ms wall, compile_count="
          f"{engine.compile_count})")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sessions", type=int, default=4)
    ap.add_argument("--iters", type=int, default=3)
    ap.add_argument("--timeout", type=float, default=180.0,
                    help="hard timeout in seconds per workload")
    args = ap.parse_args(argv)

    failures = 0
    for name, mk_net, mk_cfg in WORKLOADS:
        try:
            failures += stress_one(name, mk_net, mk_cfg,
                                   args.sessions, args.iters, args.timeout)
        except (FuturesTimeoutError, TimeoutError):
            # (three names, one intent: futures.TimeoutError is the
            # builtin on 3.11+, a distinct class on 3.10)
            # the hung worker threads are non-daemon and would block
            # normal interpreter exit — hard-exit so the gate fails
            # promptly and non-zero instead of stalling the job
            print(f"{name}: sessions hung past {args.timeout}s — "
                  "parallel execution deadlocked", file=sys.stderr)
            import os
            os._exit(1)
    if failures:
        print(f"{failures} session(s) diverged from the sequential "
              "baseline", file=sys.stderr)
        return 1
    print("all parallel sessions bit-identical to sequential baseline")

    from repro.check import instrument
    log = instrument.SYNC
    if log is not None:
        from repro.check import analyze_log
        report = analyze_log(log, target="parallel-stress")
        print(f"race sanitizer: {len(log)} events analyzed, "
              f"{len(report.errors)} error(s), "
              f"{len(report.warnings)} warning(s)"
              f"{', log truncated' if log.truncated else ''}")
        if not report.ok:
            print(report.render(), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
