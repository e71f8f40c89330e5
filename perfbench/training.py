"""The closed train/infer loop over one engine, and its output check.

One compiled engine spawns a train session and an infer session; the
loop runs them in rounds, each round timing one group of iterations per
session right after a calibration loop.  Before the timed loop, the
first iterations of both sessions are checked against a fresh executor
that replays nothing (``steady_state_replay=False``); every timed
iteration is then checked against that reference as well, outside its
timed window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Callable, Dict, List

from calib import MIN_SAMPLES

MODES = ("train", "infer")

#: IterationResult fields that must match the fresh executor exactly,
#: and stay equal from one steady-state iteration to the next
INT_FIELDS = ("peak_bytes", "d2h_bytes", "h2d_bytes", "extra_forwards",
              "cache_evictions", "alloc_calls")

#: sim_time agrees with a fresh run to ~1e-12 relative (float drift from
#: summation order); anything above this bound is a real difference
SIM_RTOL = 1e-9


def build_engine(build_net: Callable, config):
    """Build the net and compile every mode; returns
    ``(engine, compile_seconds)``."""
    import repro
    net = build_net()
    t0 = time.perf_counter()
    engine = repro.Engine(net, config)
    for mode in MODES:
        engine.compiled(mode)
    return engine, time.perf_counter() - t0


def forward_steps(engine, mode: str) -> int:
    """Forward steps one iteration of ``mode`` runs (not counting
    recomputed forwards)."""
    from repro.graph.route import Phase
    return sum(1 for s in engine.compiled(mode).route
               if s.phase is Phase.FORWARD)


def _compare(got, ref, what: str) -> List[str]:
    errors = [f"{what}: {f} {getattr(got, f)} != {getattr(ref, f)}"
              for f in INT_FIELDS if getattr(got, f) != getattr(ref, f)]
    if abs(got.sim_time - ref.sim_time) > SIM_RTOL * abs(ref.sim_time):
        errors.append(f"{what}: sim_time {got.sim_time!r} != "
                      f"{ref.sim_time!r}")
    return errors


def open_sessions(engine) -> Dict[str, object]:
    return {mode: engine.session(mode=mode).with_history(0)
            for mode in MODES}


def check_against_fresh(engine, sessions, iters: int):
    """Run ``iters`` iterations of each session and of a fresh
    non-replaying executor; returns ``(references, errors)``.

    Iteration *i* of the replaying session must match the fresh
    executor's iteration *i*; the integer fields must also be equal
    across iterations.  The last fresh result is the reference every
    timed iteration is checked against.
    """
    from repro import Executor
    refs, errors = {}, []
    fresh_cfg = replace(engine.config, steady_state_replay=False)
    for mode, session in sessions.items():
        with Executor(engine.net, fresh_cfg, mode=mode) as fresh:
            expected = [fresh.run_iteration(i) for i in range(iters)]
        got = [session.run_iteration(i) for i in range(iters)]
        if session.executor.replayed_iterations != iters:
            errors.append(f"{mode}: replay did not engage "
                          f"({session.executor.replayed_iterations} of "
                          f"{iters} iterations replayed)")
        for i, (g, e) in enumerate(zip(got, expected)):
            errors += _compare(g, e, f"{mode} iteration {i} vs fresh")
            errors += _compare(g, expected[0],
                               f"{mode} iteration {i} vs iteration 0")
        refs[mode] = expected[-1]
    return refs, errors


@dataclass
class LoopResult:
    ratios: Dict[str, List[float]] = field(
        default_factory=lambda: {m: [] for m in MODES})
    raw_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {m: [] for m in MODES})
    calib_s: List[float] = field(default_factory=list)
    iterations: Dict[str, int] = field(
        default_factory=lambda: {m: 0 for m in MODES})
    wall_s: float = 0.0           # summed timed iteration wall time
    #: per-mode sums of IterationResult counters over timed iterations
    totals: Dict[str, Dict[str, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: forward steps of one iteration per mode (recompute waste base)
    forward_steps: Dict[str, int] = field(default_factory=dict)

    def cal(self, mode: str) -> float:
        return median(self.ratios[mode])


_COUNTERS = ("alloc_calls", "d2h_bytes", "h2d_bytes", "extra_forwards",
             "cache_evictions", "cache_hits", "cache_misses")


def closed_loop(sessions, refs, calibration: Callable[[], float],
                seconds: float, group: int, start: int) -> LoopResult:
    """Run rounds for ``seconds``: a calibration loop, then ``group``
    timed iterations of each session in turn; each mode's per-round
    ratio to the calibration loop is one sample.

    Runs at least ``MIN_SAMPLES`` rounds however slow the host.
    """
    res = LoopResult()
    for mode in sessions:
        res.totals[mode] = {c: 0 for c in _COUNTERS}
    perf = time.perf_counter
    it = start
    deadline = perf() + seconds
    rounds = 0
    while rounds < MIN_SAMPLES or perf() < deadline:
        calib = calibration()
        res.calib_s.append(calib)
        for mode, session in sessions.items():
            t0 = perf()
            out = [session.run_iteration(it + k) for k in range(group)]
            dt = perf() - t0
            res.ratios[mode].append(dt / group / calib)
            res.raw_ms[mode].append(dt / group * 1e3)
            res.wall_s += dt
            res.iterations[mode] += group
            tot = res.totals[mode]
            for k, r in enumerate(out):
                res.errors += _compare(r, refs[mode],
                                       f"{mode} iteration {it + k}")
                for c in _COUNTERS:
                    tot[c] += getattr(r, c)
        it += group
        rounds += 1
    return res
