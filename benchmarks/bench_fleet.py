#!/usr/bin/env python
"""Fleet serving benchmark: heterogeneous lanes vs one padded shape.

The fleet's value claim: mixed-size traffic served by N compiled batch
shapes behind the SLO router beats one big padded shape on **tail
latency** at equal offered load — a small request routed to the b4
lane rides a short step after at most a short wait, instead of padding
a b16 step (and waiting b16's anti-starvation timeout) — while
**backpressure** stays explicit (bounded queues shed with
``RequestRejected``, never an unbounded backlog).

Both legs drain the *identical* paced Poisson trace in the same
process, so the gated numbers are within-run ratios, robust to runner
speed like every other gate:

* ``fleet-p99``: ``speedup`` = single-engine p99 request latency over
  the fleet's p99 (>1 means the fleet's tail is tighter);
* ``fleet-shed``: ``speedup`` = 1 - fleet shed rate on the paced trace
  (1.0 = nothing shed at the calibrated offered load).

A third, ungated leg saturates a tiny-capped fleet with an unpaced
burst and hard-asserts the backpressure contract: sheds are explicit
``RequestRejected``s and ``completed + failed + shed == offered``
holds exactly.

With ``REPRO_TRACE=sync`` exported (the CI fleet-smoke job does) the
whole run records synchronization events and the race detector
analyzes the log at the end.

Run as a script (CI's fleet-smoke job does)::

    python benchmarks/bench_fleet.py --output BENCH_fleet.json

Writes the trajectory JSON plus ``benchmarks/results/fleet.txt``.
Gate with ``check_regression.py`` against
``benchmarks/baselines/BENCH_fleet.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.serve import InferenceServer, RequestRejected, ServingFleet
from repro.zoo import NETWORK_BUILDERS

RESULTS_DIR = Path(__file__).resolve().parent / "results"

NET = "lenet"
FLEET_BATCHES = (4, 8, 16)
SINGLE_BATCH = 16           # the padded single-SKU baseline
WORKERS = 3                 # single-engine workers == fleet lanes x 1
MAX_WAIT = 0.004            # anti-starvation bound for the b16 shape;
                            # fleet lanes scale it by capacity/16
RATE = 120.0                # offered req/s (calibrated: neither leg
DURATION = 2.0              # saturates, so shed must be exactly 0)
SMALL_FRAC = 0.85           # the PERF006 regime: mostly small requests
SMALL_SIZES = (1, 6)        # ...of 1..6 rows (b4/b8 territory)
LARGE_SIZES = (16, 16)      # ...plus full-b16 bulk requests (both legs
                            # assemble those immediately, so the gated
                            # tail isolates how each leg serves the
                            # small majority: padded b16 steps after a
                            # 4ms hold vs the fleet's b4 lane at 1ms)
BURST_REQUESTS = 300        # saturation leg: unpaced burst
BURST_CAP_ROWS = 16         # ...against this per-lane admission cap


def make_engines():
    cfg = RuntimeConfig.superneurons(concrete=False)
    single = Engine(NETWORK_BUILDERS[NET](batch=SINGLE_BATCH), cfg)
    fleet = [Engine(NETWORK_BUILDERS[NET](batch=b), cfg)
             for b in FLEET_BATCHES]
    return single, fleet


def make_trace(seed: int = 0):
    """Paced arrivals (seconds offsets) with a small-heavy size mix."""
    rng = np.random.default_rng(seed)
    trace, t = [], 0.0
    while t < DURATION:
        if rng.random() < SMALL_FRAC:
            size = int(rng.integers(SMALL_SIZES[0], SMALL_SIZES[1] + 1))
        else:
            size = int(rng.integers(LARGE_SIZES[0], LARGE_SIZES[1] + 1))
        trace.append((t, size))
        t += rng.exponential(1.0 / RATE)
    return trace


def drive(submit, trace):
    """Pace the trace against the wall clock; returns sheds seen."""
    shed = 0
    t0 = time.perf_counter()
    for at, size in trace:
        delay = at - (time.perf_counter() - t0)
        if delay > 0:
            time.sleep(delay)
        try:
            submit(size)
        except RequestRejected:
            shed += 1
    return shed


def run_single(engine, trace):
    with InferenceServer(engine, workers=WORKERS, policy="greedy-fill",
                         max_wait=MAX_WAIT) as server:
        shed = drive(lambda size: server.submit(size=size), trace)
        assert server.drain(timeout=300.0)
    completed, failed, _ = server.metrics.counts()
    assert shed == 0 and failed == 0
    assert completed == len(trace), (completed, len(trace))
    return server.metrics.to_dict()


def run_fleet(engines, trace):
    with ServingFleet(engines, workers=1, policy="greedy-fill",
                      max_wait=MAX_WAIT) as fleet:
        shed = drive(lambda size: fleet.submit(size=size), trace)
        assert fleet.drain(timeout=300.0)
    completed, failed, fleet_shed = fleet.metrics.counts()
    # the accounting identity, exact — sheds included (here: zero)
    assert completed + failed + fleet_shed == len(trace)
    assert shed == fleet_shed == 0 and failed == 0
    return fleet.metrics.to_dict()


def run_burst(seed: int = 1):
    """Saturation leg: unpaced burst against tiny bounded queues must
    shed explicitly, never grow the backlog, and account exactly."""
    cfg = RuntimeConfig.superneurons(concrete=False)
    engines = [Engine(NETWORK_BUILDERS[NET](batch=b), cfg)
               for b in FLEET_BATCHES]
    rng = np.random.default_rng(seed)
    caught = 0
    with ServingFleet(engines, workers=1, policy="greedy-fill",
                      max_wait=0.0, max_pending_rows=BURST_CAP_ROWS
                      ) as fleet:
        for _ in range(BURST_REQUESTS):
            try:
                fleet.submit(size=int(rng.integers(1, 9)))
            except RequestRejected:
                caught += 1
        assert fleet.drain(timeout=300.0)
        for server in fleet.servers.values():
            with server.queue.cond:
                backlog = server.queue.pending_rows()
            assert backlog <= BURST_CAP_ROWS
    completed, failed, shed = fleet.metrics.counts()
    if shed != caught:
        raise AssertionError(
            f"shed accounting drifted: metrics {shed} vs caught {caught}")
    if completed + failed + shed != BURST_REQUESTS:
        raise AssertionError(
            f"accounting broken: {completed} + {failed} + {shed} != "
            f"{BURST_REQUESTS}")
    if failed:
        raise AssertionError(f"{failed} requests failed in the burst")
    if shed == 0:
        raise AssertionError(
            f"{BURST_REQUESTS} unpaced requests against "
            f"{BURST_CAP_ROWS}-row caps must shed some load")
    return {"offered": BURST_REQUESTS, "completed": completed,
            "failed": failed, "shed": shed,
            "shed_rate": round(shed / BURST_REQUESTS, 4)}


def run(repeats: int) -> list:
    rounds = []
    trace = make_trace()
    for _ in range(repeats):
        # fresh engines per repeat: compile cost excluded from both
        # sides (sessions link precompiled plans)
        single_engine, fleet_engines = make_engines()
        single_engine.compiled("infer")
        for e in fleet_engines:
            e.compiled("infer")
        single = run_single(single_engine, trace)
        fleet = run_fleet(fleet_engines, trace)
        rounds.append({
            "single_p99": single["requests"]["latency_ms"]["p99"],
            "fleet_p99":
                fleet["fleet"]["requests"]["latency_ms"]["p99"],
            "single": single,
            "fleet": fleet,
        })
    rounds.sort(key=lambda r: r["single_p99"] / r["fleet_p99"])
    mid = rounds[len(rounds) // 2]        # median p99-ratio round
    fl = mid["fleet"]["fleet"]
    shed_rate = fl["requests"]["shed_rate"]

    burst = run_burst()

    shared = {
        "bench": "fleet",
        "net": NET,
        "batch": ",".join(str(b) for b in FLEET_BATCHES),
        "iters": len(trace),   # the gate's workload-identity check
        "single_batch": SINGLE_BATCH,
        "rate": RATE,
        "small_frac": SMALL_FRAC,
        "routed": fl["routed"],
        "fleet_fill": round(fl["fill_ratio"], 4),
    }
    records = [
        dict(shared,
             config="fleet-p99",
             single_p99_ms=round(mid["single_p99"], 3),
             fleet_p99_ms=round(mid["fleet_p99"], 3),
             speedup=round(mid["single_p99"] / mid["fleet_p99"], 3)),
        dict(shared,
             config="fleet-shed",
             shed=fl["requests"]["shed"],
             speedup=round(1.0 - shed_rate, 3)),
        dict(shared,
             config="fleet-burst",
             speedup=1.0,      # informational; asserted, not gated
             **{f"burst_{k}": v for k, v in burst.items()}),
    ]
    return records


def render(records: list) -> str:
    by = {r["config"]: r for r in records}
    p99, shed, burst = by["fleet-p99"], by["fleet-shed"], \
        by["fleet-burst"]
    return "\n".join([
        f"fleet: {NET} b{{{p99['batch']}}} x1 worker vs "
        f"b{p99['single_batch']} x{WORKERS} workers "
        f"({p99['iters']} paced requests, ~{RATE:g} req/s, "
        f"{SMALL_FRAC:.0%} small)",
        "",
        f"fleet-p99              speedup {p99['speedup']:.2f}x  "
        f"(single {p99['single_p99_ms']:.2f} ms -> fleet "
        f"{p99['fleet_p99_ms']:.2f} ms, fill {p99['fleet_fill']:.1%})",
        f"fleet-shed             speedup {shed['speedup']:.2f}x  "
        f"({shed['shed']} shed on the paced trace)",
        f"fleet-burst            {burst['burst_shed']} of "
        f"{burst['burst_offered']} shed explicitly "
        f"(rate {burst['burst_shed_rate']:.1%}, "
        f"completed+failed+shed == offered exactly)",
    ])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default="BENCH_fleet.json")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    records = run(args.repeats)
    Path(args.output).write_text(json.dumps(records, indent=2) + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fleet.txt").write_text(render(records) + "\n")
    print(render(records))
    print(f"\nwrote {args.output}")

    from repro.check import instrument
    log = instrument.SYNC
    if log is not None:
        from repro.check import analyze_log
        report = analyze_log(log, target="fleet-bench")
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
