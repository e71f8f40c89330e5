#!/usr/bin/env python3
"""Host-cost benchmark of the SuperNeurons runtime and its serving fleet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the runtime is imported from ``src/``.
Every run is simulated mode on the K40 device model
(``RuntimeConfig.superneurons(concrete=False)``), driven by one
load-generating thread, in four phases:

1. set-up, repeated (at least three times), each rep timed against the
   calibration loop run before it: build the workload's net, compile
   its train and infer modes, build and start the lenet serving fleet;
2. output check: the first iterations of a replaying train session and
   infer session must match a fresh non-replaying executor;
3. the closed train/infer loop over the workload's net, every iteration
   timed against an interleaved calibration loop and checked;
4. serving on the lenet fleet: a paced open-loop phase, then a flood.

``--trace 0`` prints the end-to-end metrics, with raw times and the
paced phase's latency beside them; ``--trace 1`` first times
a short untraced loop, then installs the per-layer wrappers
(``layertrace.py``) and repeats phases 2-4 traced, printing the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``;
the last line of standard output is the result object.  The process
exits non-zero when an output check fails, and with code 2 when the
runtime cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    build_net: Callable        # zoo module -> Net
    group: int                 # iterations timed per round and session
    check_iters: int           # iterations compared against fresh
    shares: Tuple[float, float, float]   # --seconds: loop, paced, flood


WORKLOADS: Dict[str, Workload] = {
    # fits 12 GB: no offload traffic, no evictions
    "resnet152-replay": Workload(
        lambda zoo: zoo.resnet152(batch=32), 1, 3, (0.6, 0.15, 0.25)),
    # the paper's beyond-DRAM case: 4456 layers, 12.0 GiB peak,
    # 601 evictions and 2679 recomputed forwards per train iteration
    "resnet1334-beyond-dram": Workload(
        lambda zoo: zoo.resnet(400, batch=16), 1, 2, (0.7, 0.1, 0.2)),
    # serving gets most of the run; lenet steps are ~1 ms, so they are
    # timed in groups of eight per calibration loop
    "serve-fleet-lenet": Workload(
        lambda zoo: zoo.lenet(batch=16), 8, 3, (0.3, 0.35, 0.35)),
}

#: share of the trace run's loop time spent untraced (the baseline
#: trace.overhead_ratio divides by)
UNTRACED_SHARE = 0.4
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_SECONDS = 1.0


def _import_runtime():
    """Put ``src/`` on the path and import the runtime; exit 2 when it
    is not there.  ``REPRO_*`` variables would arm validators and
    tracers inside the runtime, so they are cleared first."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from repro import zoo
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the runtime from "
                         f"{ROOT / 'src'}: {exc}\n")
        sys.exit(2)
    return repro, zoo


def _load_spec() -> dict:
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: cannot read {SPEC_PATH}: {exc}\n")
        sys.exit(2)


# -------------------------------------------------------------- phases
def setup(wl: Workload, zoo, config, calibration):
    """Time build + compile + fleet start, several times, each rep right
    after a calibration loop; returns the last rep's engine and the
    ``(rep seconds, calibration seconds)`` pairs."""
    from serving import build_fleet
    from training import build_engine
    reps: List[Tuple[float, float]] = []
    while True:
        gc.collect()
        calib = calibration()
        t0 = time.perf_counter()
        engine, _ = build_engine(lambda: wl.build_net(zoo), config)
        fleet = build_fleet(config)
        reps.append((time.perf_counter() - t0, calib))
        fleet.stop()
        if len(reps) >= SETUP_MIN_REPS and (
                sum(r for r, _ in reps) >= SETUP_MIN_SECONDS
                or len(reps) >= SETUP_MAX_REPS):
            return engine, reps
        del engine


def loop_phase(wl: Workload, engine, calibration, seconds: float,
               errors: List[str], tracer=None):
    """Check replay against a fresh executor, then run the timed loop;
    returns ``(LoopResult, per-layer delta or None)``."""
    from training import (check_against_fresh, closed_loop, forward_steps,
                          open_sessions)
    sessions = open_sessions(engine)
    try:
        refs, errs = check_against_fresh(engine, sessions, wl.check_iters)
        errors += errs
        gc.collect()
        before = tracer.snapshot() if tracer is not None else None
        loop = closed_loop(sessions, refs, calibration, seconds, wl.group,
                           start=wl.check_iters)
        layers = None
        if tracer is not None:
            from layertrace import delta
            layers = delta(tracer.snapshot(), before)
    finally:
        for s in sessions.values():
            s.close()
    loop.forward_steps = {m: forward_steps(engine, m) for m in sessions}
    errors += loop.errors
    return loop, layers


def serving_phase(config, hook, rng: random.Random, calibration,
                  paced_s: float, flood_s: float, errors: List[str],
                  tracer=None):
    from serving import build_fleet, flood, paced
    fleet = build_fleet(config)
    try:
        before = tracer.snapshot() if tracer is not None else None
        p = paced(fleet, rng, paced_s)
        f = flood(fleet, hook, rng, calibration, flood_s)
        layers = None
        if tracer is not None:
            from layertrace import delta
            layers = delta(tracer.snapshot(), before)
    finally:
        fleet.stop()
    errors += p["phase"].errors + f["phase"].errors
    return p, f, layers


# ------------------------------------------------------------- metrics
def end_to_end(setup_reps, loop, f) -> Dict[str, float]:
    from calib import REFERENCE_CALIB_S
    return {
        "setup_s": median([r / c for r, c in setup_reps])
        * REFERENCE_CALIB_S,
        "train_iter_cal": loop.cal("train"),
        "infer_iter_cal": loop.cal("infer"),
        "flood_req_cal": f["req_cal"],
    }


def per_layer(loop, ll, base, p, f, sl, compile_s) -> Dict[str, float]:
    """Per-layer metrics from the traced loop (``ll``: per-layer delta,
    per iteration) and the traced serving phases (``sl``: per request)."""
    from layertrace import ITERATION_KEYS
    n = sum(loop.iterations.values())
    tot = {c: sum(t[c] for t in loop.totals.values())
           for c in next(iter(loop.totals.values()))}

    def us(key):
        return ll[key][1] / n * 1e6

    def calls(key):
        return ll[key][0] / n

    fwd = sum(loop.forward_steps[m] * k for m, k in loop.iterations.items())
    accesses = tot["cache_hits"] + tot["cache_misses"]
    phases = [p["phase"], f["phase"]]
    offered = sum(ph.offered for ph in phases)
    completed = sum(ph.counts["completed"] for ph in phases)
    batches = sum(ph.counts["batches"] for ph in phases)
    rows = sum(ph.counts["rows"] for ph in phases)
    padded = sum(ph.counts["padded"] for ph in phases)
    compute = sum(ph.counts["compute_s"] for ph in phases)
    waits = [(t[1] - t[0]) * 1e3 for ph in phases for _, fut in ph.futures
             if (t := getattr(fut, "bench_times", None)) is not None]
    nb_calls, nb_secs = sl["serve.batcher.next_batch"]
    traced = loop.cal("train") + loop.cal("infer")
    untraced = base.cal("train") + base.cal("infer")
    return {
        "mempool.alloc_us": us("mempool.alloc"),
        "mempool.free_us": us("mempool.free"),
        "mempool.heap_alloc_us": us("mempool.heap_alloc"),
        "mempool.heap_free_us": us("mempool.heap_free"),
        "mempool.alloc_calls": tot["alloc_calls"] / n,
        "device.timeline.submit_us": us("device.timeline.submit"),
        "device.timeline.tick_compute_us":
            us("device.timeline.tick_compute"),
        "device.dma.copy_calls": calls("device.dma.copy"),
        "device.dma.copy_us": us("device.dma.copy"),
        "device.dma_bytes": (tot["d2h_bytes"] + tot["h2d_bytes"]) / n,
        "core.cache.evict_for_calls": calls("core.cache.evict_for"),
        "core.cache.evict_for_us": us("core.cache.evict_for"),
        "core.cache.evictions": tot["cache_evictions"] / n,
        "core.cache.hit_ratio":
            tot["cache_hits"] / accesses if accesses else 0.0,
        "core.tensor_state.locked_calls": calls("core.tensor_state.locked"),
        "core.tensor_state.transition_us":
            us("core.tensor_state.transition"),
        "core.recompute.extra_forwards": tot["extra_forwards"] / n,
        "core.recompute.waste_ratio": tot["extra_forwards"] / fwd,
        "core.runtime.self_ms": ll["core.runtime.run_iteration"][1] / n * 1e3,
        "core.engine.compile_s": compile_s,
        "serve.fleet.submit_us": sl["serve.fleet.submit"][1] / offered * 1e6,
        "serve.server.try_submit_us":
            sl["serve.server.try_submit"][1] / offered * 1e6,
        "serve.router.route_us": sl["serve.router.route"][1] / offered * 1e6,
        "serve.queue.submit_us": sl["serve.queue.submit"][1] / offered * 1e6,
        "serve.queue.wait_ms": sum(waits) / len(waits) if waits else 0.0,
        "serve.batcher.idle_ms": nb_secs / nb_calls * 1e3 if nb_calls
        else 0.0,
        "serve.batcher.fill_ratio": rows / (rows + padded) if rows else 0.0,
        "serve.batcher.batches_per_req":
            batches / completed if completed else 0.0,
        "serve.server.compute_ms": compute / batches * 1e3 if batches
        else 0.0,
        "paced.gen_late_p99_ms": p["gen_late_p99_ms"],
        "paced.obs_err_p99_us": p["obs_err_p99_us"],
        "calib.loop_ms": median(loop.calib_s + base.calib_s) * 1e3,
        "trace.overhead_ratio": traced / untraced,
        "trace.attributed_ratio":
            sum(ll[k][1] for k in ITERATION_KEYS
                if k != "core.runtime.run_iteration") / loop.wall_s,
    }


def _diagnostics(loop, p, f, setup_reps) -> List[str]:
    calib = loop.calib_s + f["calib_s"]
    return [
        f"  train_iter_ms (raw)      {median(loop.raw_ms['train']):.3f} ms"
        f"  over {loop.iterations['train']} iterations",
        f"  infer_iter_ms (raw)      {median(loop.raw_ms['infer']):.3f} ms"
        f"  over {loop.iterations['infer']} iterations",
        f"  calib.loop_ms            {median(calib) * 1e3:.3f} ms"
        f"  over {len(calib)} loops",
        f"  flood req/s (raw)        {f['req_per_s']:.1f}"
        f"  over {f['pairs']} windows",
        f"  paced requests           {p['phase'].offered} offered,"
        f" {p['misses']} missed (800 req/s open loop)",
        f"  paced_p50_ms             {p['p50_ms']:.3f} ms",
        f"  paced_p99_ms             {p['p99_ms']:.3f} ms",
        f"  paced.gen_late_p99_ms    {p['gen_late_p99_ms']:.3f} ms",
        f"  paced.obs_err_p99_us     {p['obs_err_p99_us']:.1f} us",
        f"  setup reps (raw)         "
        + " ".join(f"{r:.3f}" for r, _ in setup_reps) + " s",
    ]


# ---------------------------------------------------------------- main
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = _load_spec()
    wl = WORKLOADS[name]
    repro, zoo = _import_runtime()
    sys.path.insert(0, str(HERE))
    from calib import Calibration
    from layertrace import ITERATION_KEYS, LayerTracer
    from serving import CompletionHook

    config = repro.RuntimeConfig.superneurons(concrete=False)
    rng = random.Random(seed)
    errors: List[str] = []
    calibration = Calibration()
    hook = CompletionHook()
    hook.install()
    loop_s, paced_s, flood_s = (seconds * x for x in wl.shares)
    if trace:
        from training import build_engine
        engine, compile_s = build_engine(lambda: wl.build_net(zoo), config)
        base, _ = loop_phase(wl, engine, calibration,
                             loop_s * UNTRACED_SHARE, errors)
        del engine
        gc.collect()
        tracer = LayerTracer()
        tracer.install()
        try:
            engine, _ = build_engine(lambda: wl.build_net(zoo), config)
            loop, ll = loop_phase(wl, engine, calibration,
                                  loop_s * (1 - UNTRACED_SHARE), errors,
                                  tracer)
            del engine
            gc.collect()
            p, f, sl = serving_phase(config, hook, rng, calibration,
                                     paced_s, flood_s, errors, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(loop, ll, base, p, f, sl, compile_s)
        declared = spec["per_layer"]
        # every wrapped iteration key runs inside run_iteration, so the
        # self times must add up to the timed wall time (minus the loop's
        # own overhead); this checks the wrappers' bookkeeping only
        bookkeeping = sum(ll[k][1] for k in ITERATION_KEYS) / loop.wall_s
        attempted_loop = base.iterations, loop.iterations
    else:
        engine, setup_reps = setup(wl, zoo, config, calibration)
        loop, _ = loop_phase(wl, engine, calibration, loop_s, errors)
        del engine
        gc.collect()
        p, f, _ = serving_phase(config, hook, rng, calibration, paced_s,
                                flood_s, errors)
        metrics = end_to_end(setup_reps, loop, f)
        declared = spec["end_to_end"]
        attempted_loop = (loop.iterations,)
        print(f"{name} seed={seed} seconds={seconds:g} (untraced)")
        print("\n".join(_diagnostics(loop, p, f, setup_reps)))
    hook.uninstall()

    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"computed metrics {sorted(metrics)} != "
                           f"declared {sorted(names)}")
    if trace:
        print(f"{name} seed={seed} seconds={seconds:g} (traced)")
        print(f"  self times / traced wall {bookkeeping:.4f}"
              "  (wrapper bookkeeping, ~1)")
    for m in declared:
        print(f"  {m['name']:34s} {metrics[m['name']]:14.6g} {m['unit']}")
    for e in errors[:20]:
        print(f"  CHECK FAILED: {e}")
    if len(errors) > 20:
        print(f"  ... {len(errors) - 20} more check failures")

    attempted = sum(sum(it.values()) for it in attempted_loop) \
        + p["phase"].offered + f["phase"].offered
    failed = p["phase"].failures + f["phase"].failures
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process (the tracer patches classes,
    and a fresh interpreter keeps runs independent)."""
    summary, worst = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
        last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            summary[name] = json.loads(last[0])
        except ValueError:
            summary[name] = {"correct": False}
            worst = max(worst, 1)
    print(json.dumps({
        "correct": all(r.get("correct") for r in summary.values()),
        "attempted": sum(r.get("attempted", 0) for r in summary.values()),
        "failed": sum(r.get("failed", 0) for r in summary.values()),
        "workloads": summary}))
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True,
                    help="seeds the serving traffic (sizes, arrivals)")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time, split between the phases")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
