"""Performance & memory cost model: predict a compiled plan's
iteration time, DMA traffic, and peaks *before* a session runs it.

The plan verifier (:mod:`repro.check.plan_verifier`) proves a compiled
schedule memory-*safe*; nothing proves it *fast*.  This module closes
that gap.  A prediction is one throwaway simulated replay iteration of
a :class:`~repro.core.engine.CompiledMode` — the same
:class:`~repro.core.runtime.Executor` mechanics a session replays —
with the executor's :class:`~repro.device.timeline.Timeline` op log
switched on.  The :class:`~repro.core.runtime.IterationResult` gives
the totals; the op log (every kernel, copy, compute stall and offload
release, with stream and start/end) gives the per-event records the
rules read.  Because the simulated executor is deterministic, the
prediction *is* the steady-state iteration a session would run, in
every regime the executor supports (capacity caps, external pools).

On top of that record it emits PERF-rule diagnostics through the
shared :class:`~repro.check.diagnostics.CheckReport` machinery:

* **PERF001 late-prefetch-stall** — a prefetch lands after its consumer
  starts, stalling compute past a threshold fraction of the iteration
  (the paper's overlap claim, quantified instead of PLAN002's binary
  "was one scheduled").
* **PERF002 offload-without-payback** — an offloaded tensor's GPU-absent
  window is shorter than its D2H+H2D round trip: the copy traffic never
  pays back the bytes it freed.
* **PERF003 uneconomic-recompute** — a recompute chain's rebuild time
  exceeds the PCIe round trip of the bytes it recovers: offloading the
  segment would have been cheaper (the paper's Alg. 2 cost comparison,
  applied post-hoc to the plan).
* **PERF004 missed-overlap-window** — a compute stall on a copy whose
  stream sat idle at least as long right before the copy started: the
  schedule could have issued it early enough to hide it entirely.
* **PERF005 over-memory-budget** — the predicted peak exceeds a
  caller-supplied ``--budget`` cap (error; the other rules warn).
* **PERF006 serving-padding-waste** — a compiled batch shape whose
  expected lone-request fill is below threshold: the serving path would
  pad most of every batch (see :func:`serving_fill_check`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.diagnostics import CheckReport, Diagnostic
from repro.check.replay import replay_executor
from repro.core.config import RuntimeConfig
from repro.device.dma import CopyDirection
from repro.device.timeline import (
    BW, FETCH, FW, OFFLOAD, PREFETCH, RECOMPUTE, RELEASE, STALL, Stream,
    split_label)

MiB = 1024 * 1024

#: StallEvent.op of the stalls the iteration barrier absorbs
BARRIER = "<barrier>"


# --------------------------------------------------------------------------- #
# thresholds + per-event records
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CostThresholds:
    """Tunable PERF-rule thresholds (defaults keep the clean zoo clean)."""

    #: PERF001: one prefetch's late-arrival stall, as a fraction of the
    #: predicted iteration time.  The default ablation ladder's naive
    #: rungs stall real prefetches up to ~6% of an iteration (the
    #: overhead the paper's tensor cache exists to remove); the default
    #: flags only the step-change beyond that.
    late_stall_frac: float = 0.10
    #: PERF002: required GPU-absent window, in round-trip multiples.
    payback_factor: float = 1.0
    #: PERF002: ignore offloads smaller than this fraction of the
    #: predicted peak — a 1 MiB tensor's wasted round trip is real but
    #: recovers nothing worth acting on.
    payback_min_frac: float = 0.01
    #: PERF003: rebuild time allowed per unit of swap round-trip time.
    recompute_factor: float = 1.0
    #: PERF004: minimum stall (fraction of iteration) worth flagging.
    overlap_stall_frac: float = 0.10
    #: PERF006: minimum expected lone-request batch fill.
    serve_fill_min: float = 0.5


@dataclass
class StepCost:
    """One kernel-submitting route step's predicted timing (seconds
    from iteration start)."""

    index: int
    op: str                        # "conv1:f"
    phase: str
    start: float                   # compute-stream kernel start
    end: float                     # kernel end
    duration: float                # kernel duration
    stall: float                   # compute stall absorbed before it


@dataclass
class StallEvent:
    """One compute stall on a copy, with the evidence PERF004 needs."""

    step: int
    op: str
    tensor: str
    kind: str                      # the awaited copy's label kind
    seconds: float
    #: how long the copy's stream sat idle immediately before the copy
    #: started — idle >= stall means an earlier issue would have hidden it
    copy_idle_gap: float


@dataclass
class PrefetchRecord:
    """One H2D prefetch (a late one also shows up as a StallEvent)."""

    tensor: str
    nbytes: int
    copy_start: float
    arrival: float


@dataclass
class OffloadRecord:
    """One eager D2H offload and (if any) its round trip back."""

    tensor: str
    nbytes: int
    copy_start: float
    copy_end: float
    round_trip_seconds: float      # D2H + H2D copy time for nbytes
    release_time: Optional[float] = None   # GPU bytes actually freed
    refetch_time: Optional[float] = None   # copy back to the GPU starts

    def absent_window(self, end_of_iteration: float) -> float:
        """Seconds the GPU bytes were actually free."""
        if self.release_time is None:
            return 0.0
        until = self.refetch_time if self.refetch_time is not None \
            else end_of_iteration
        return max(0.0, until - self.release_time)


@dataclass
class RecomputeRecord:
    """One segment rebuild: what it cost vs what swapping would have."""

    anchor: str
    strategy: str
    trigger_step: int
    trigger_op: str
    members: int = 0
    rebuild_seconds: float = 0.0
    recovered_bytes: int = 0
    #: D2H+H2D time to swap the same bytes instead (PERF003's rival)
    transfer_seconds: float = 0.0


@dataclass
class CostPrediction:
    """The full per-iteration prediction for one compiled mode."""

    target: str
    mode: str
    sim_time: float
    compute_seconds: float
    stall_seconds: float
    alloc_overhead_seconds: float
    alloc_calls: int
    d2h_bytes: int
    h2d_bytes: int
    d2h_busy_seconds: float
    h2d_busy_seconds: float
    peak_gpu_bytes: int
    activation_peak_bytes: int
    param_bytes: int
    peak_host_bytes: int
    extra_forwards: int
    recompute_seconds: float
    capacity: Optional[int]
    pressure_evictions: int
    workspace_fallbacks: int
    steps: List[StepCost] = field(default_factory=list)
    prefetches: List[PrefetchRecord] = field(default_factory=list)
    offloads: List[OffloadRecord] = field(default_factory=list)
    recomputes: List[RecomputeRecord] = field(default_factory=list)
    stalls: List[StallEvent] = field(default_factory=list)

    @property
    def dma_occupancy(self) -> float:
        """Fraction of the iteration either copy stream was busy."""
        if self.sim_time <= 0:
            return 0.0
        return (self.d2h_busy_seconds + self.h2d_busy_seconds) \
            / self.sim_time

    def to_dict(self, include_steps: bool = False) -> dict:
        out = {
            "target": self.target,
            "mode": self.mode,
            "sim_time_ms": self.sim_time * 1e3,
            "compute_ms": self.compute_seconds * 1e3,
            "stall_ms": self.stall_seconds * 1e3,
            "alloc_overhead_ms": self.alloc_overhead_seconds * 1e3,
            "alloc_calls": self.alloc_calls,
            "d2h_bytes": self.d2h_bytes,
            "h2d_bytes": self.h2d_bytes,
            "dma_occupancy": self.dma_occupancy,
            "peak_gpu_bytes": self.peak_gpu_bytes,
            "activation_peak_bytes": self.activation_peak_bytes,
            "param_bytes": self.param_bytes,
            "peak_host_bytes": self.peak_host_bytes,
            "extra_forwards": self.extra_forwards,
            "recompute_ms": self.recompute_seconds * 1e3,
            "pressure_evictions": self.pressure_evictions,
            "workspace_fallbacks": self.workspace_fallbacks,
            "prefetches": len(self.prefetches),
            "offloads": len(self.offloads),
            "recompute_segments": len(self.recomputes),
        }
        if include_steps:
            out["steps"] = [
                {"index": s.index, "op": s.op, "phase": s.phase,
                 "start_ms": s.start * 1e3, "end_ms": s.end * 1e3,
                 "stall_ms": s.stall * 1e3}
                for s in self.steps
            ]
        return out


# --------------------------------------------------------------------------- #
# the prediction: one replayed iteration, read back from its op log
# --------------------------------------------------------------------------- #

def predict_compiled_mode(net, compiled, config: RuntimeConfig,
                          target: Optional[str] = None) -> CostPrediction:
    """Predict one compiled mode from one throwaway simulated replay
    iteration of it.

    ``config`` must be the *effective* mode config
    (``RuntimeConfig.for_mode``) — the one whose policy stack produced
    ``compiled.gathered``, exactly as the plan verifier requires.
    """
    with replay_executor(net, compiled, config) as ex:
        timeline = ex.timeline
        timeline.record_ops = True
        t0 = timeline.elapsed   # after the parameter allocations
        res = ex.run_iteration(0)
        pred = CostPrediction(
            target=target or f"{net.name}/{compiled.mode}",
            mode=compiled.mode,
            sim_time=res.sim_time,
            compute_seconds=0.0,
            stall_seconds=res.stall_seconds,
            alloc_overhead_seconds=res.alloc_overhead,
            alloc_calls=res.alloc_calls,
            d2h_bytes=res.d2h_bytes,
            h2d_bytes=res.h2d_bytes,
            d2h_busy_seconds=timeline.busy_time(Stream.D2H),
            h2d_busy_seconds=timeline.busy_time(Stream.H2D),
            peak_gpu_bytes=res.peak_bytes,
            activation_peak_bytes=res.activation_peak_bytes,
            param_bytes=res.param_bytes,
            peak_host_bytes=ex.fabric.peak_bytes(),
            extra_forwards=res.extra_forwards,
            recompute_seconds=0.0,
            capacity=ex.config.capacity,
            pressure_evictions=res.cache_evictions,
            workspace_fallbacks=ex.selector.fallbacks,
        )
        _read_op_log(ex, t0, pred)
    return pred


def _read_op_log(ex, t0: float, pred: CostPrediction) -> None:
    """Derive ``pred``'s steps, records and compute totals from the
    replayed iteration's op log (times shifted to start at 0)."""
    layers = {l.name: l for l in ex.net.layers}
    outputs = {l.output.name: l.output.nbytes for l in ex.net.layers
               if l.output is not None}
    segment_of = ex.recompute_plan.segment_of
    pool = ex.fabric.pools[0]   # first-fit: where an offload lands

    def round_trip(nbytes: int) -> float:
        return (ex.dma.copy_time(nbytes, CopyDirection.D2H, pool.d2h_scale)
                + ex.dma.copy_time(nbytes, CopyDirection.H2D,
                                   pool.h2d_scale))

    # the route steps that submit a kernel, in op-log order (a data
    # layer's backward step has none)
    kernel_steps = iter([cs for cs in ex.iteration_plan.steps
                         if cs.is_forward or not cs.is_data])
    last_end = {s: t0 for s in Stream}    # per-stream end of the last op
    idle_before: Dict[Tuple[str, float], float] = {}
    offload_of: Dict[str, OffloadRecord] = {}
    stalls: List[Tuple[str, str, float, float]] = []   # awaiting a step
    chains: Dict[str, RecomputeRecord] = {}            # anchor -> chain

    def flush(index: int, op: str) -> float:
        stalled = 0.0
        for tensor, kind, seconds, gap in stalls:
            pred.stalls.append(StallEvent(index, op, tensor, kind, seconds,
                                          gap))
            stalled += seconds
        stalls.clear()
        for rc in chains.values():
            rc.trigger_step, rc.trigger_op = index, op
            pred.recomputes.append(rc)
        chains.clear()
        return stalled

    for rec in ex.timeline.ops():
        kind, name = split_label(rec.label)
        start, end = rec.start - t0, rec.end - t0
        if kind == STALL:
            copy_kind, tensor = split_label(name)
            stalls.append((tensor, copy_kind, end - start,
                           idle_before.get((name, rec.end), 0.0)))
        elif kind == RELEASE:
            off = offload_of.get(name)
            if off is not None and off.release_time is None:
                off.release_time = start
        elif kind == RECOMPUTE:
            layer = layers[name]
            seg = segment_of[layer.layer_id]
            rc = chains.get(seg.anchor.name)
            if rc is None:
                rc = chains[seg.anchor.name] = RecomputeRecord(
                    seg.anchor.name, seg.strategy.value, -1, "")
            nbytes = layer.output.nbytes
            rc.members += 1
            rc.rebuild_seconds += end - start
            rc.recovered_bytes += nbytes
            rc.transfer_seconds += round_trip(nbytes)
            pred.compute_seconds += end - start
            pred.recompute_seconds += end - start
        elif kind in (FW, BW):
            cs = next(kernel_steps)
            stalled = flush(cs.step.index, cs.trace_label)
            pred.steps.append(StepCost(cs.step.index, cs.trace_label,
                                       cs.phase_value, start, end,
                                       end - start, stalled))
            pred.compute_seconds += end - start
        else:   # a copy
            idle_before[(rec.label, rec.end)] = rec.start \
                - last_end[rec.stream]
            last_end[rec.stream] = rec.end
            nbytes = outputs[name]
            if kind == PREFETCH:
                pred.prefetches.append(
                    PrefetchRecord(name, nbytes, start, end))
            elif kind == OFFLOAD:
                offload_of[name] = OffloadRecord(
                    name, nbytes, start, end, round_trip(nbytes))
                pred.offloads.append(offload_of[name])
            if kind in (PREFETCH, FETCH):
                off = offload_of.get(name)
                if off is not None and off.refetch_time is None:
                    off.refetch_time = start
    # what is left stalled the iteration barrier's drain
    flush(ex.route.steps[-1].index, BARRIER)


# --------------------------------------------------------------------------- #
# rule analysis: CostPrediction -> diagnostics
# --------------------------------------------------------------------------- #

def analyze_prediction(pred: CostPrediction,
                       budget: Optional[int] = None,
                       thresholds: Optional[CostThresholds] = None
                       ) -> List[Diagnostic]:
    """Apply the PERF001-005 rules to one prediction."""
    th = thresholds or CostThresholds()
    target = pred.target
    diags: List[Diagnostic] = []
    iter_time = pred.sim_time if pred.sim_time > 0 else 1e-12

    for s in pred.stalls:
        if s.kind == PREFETCH and s.seconds > th.late_stall_frac * iter_time:
            diags.append(Diagnostic(
                rule="PERF001", severity="warning", target=target,
                step=s.step, op=s.op, tensor=s.tensor,
                message=f"prefetch of {s.tensor!r} lands "
                        f"{s.seconds * 1e3:.2f} ms after its consumer "
                        f"starts — compute stalls {s.seconds * 1e3:.2f} ms "
                        f"({s.seconds / iter_time:.0%} of the iteration)"))

    for off in pred.offloads:
        if off.nbytes < th.payback_min_frac * pred.peak_gpu_bytes:
            continue
        window = off.absent_window(pred.sim_time)
        if window < th.payback_factor * off.round_trip_seconds:
            diags.append(Diagnostic(
                rule="PERF002", severity="warning", target=target,
                tensor=off.tensor,
                message=f"offload of {off.tensor!r} "
                        f"({off.nbytes / MiB:.1f} MiB) frees its GPU "
                        f"bytes for only {window * 1e3:.2f} ms but the "
                        f"D2H+H2D round trip costs "
                        f"{off.round_trip_seconds * 1e3:.2f} ms — the "
                        f"copy never pays back"))

    for rc in pred.recomputes:
        if rc.rebuild_seconds > th.recompute_factor * rc.transfer_seconds:
            diags.append(Diagnostic(
                rule="PERF003", severity="warning", target=target,
                step=rc.trigger_step, op=rc.trigger_op, tensor=rc.anchor,
                message=f"recompute chain at anchor {rc.anchor!r} "
                        f"({rc.members} layers, {rc.strategy}) rebuilds "
                        f"{rc.recovered_bytes / MiB:.1f} MiB in "
                        f"{rc.rebuild_seconds * 1e3:.2f} ms; swapping "
                        f"the same bytes would cost "
                        f"{rc.transfer_seconds * 1e3:.2f} ms — cheaper "
                        f"to offload this segment"))

    for s in pred.stalls:
        if s.seconds > th.overlap_stall_frac * iter_time \
                and s.copy_idle_gap >= s.seconds:
            diags.append(Diagnostic(
                rule="PERF004", severity="warning", target=target,
                step=s.step, op=s.op, tensor=s.tensor,
                message=f"compute stalls {s.seconds * 1e3:.2f} ms on a "
                        f"{s.kind} copy of {s.tensor!r} although its "
                        f"stream sat idle {s.copy_idle_gap * 1e3:.2f} ms "
                        f"beforehand — issuing the copy earlier would "
                        f"hide the stall entirely"))

    if budget is not None and pred.peak_gpu_bytes > budget:
        diags.append(Diagnostic(
            rule="PERF005", severity="error", target=target,
            message=f"predicted peak {pred.peak_gpu_bytes / MiB:.1f} MiB "
                    f"exceeds the memory budget {budget / MiB:.1f} MiB "
                    f"(activations {pred.activation_peak_bytes / MiB:.1f} "
                    f"MiB + params {pred.param_bytes / MiB:.1f} MiB)"))
    return diags


def serving_fill_check(batch: int, max_request: int,
                       target: Optional[str] = None,
                       thresholds: Optional[CostThresholds] = None
                       ) -> List[Diagnostic]:
    """PERF006: padding waste of a compiled batch shape under serving.

    The dynamic batcher pads every assembled batch to the compiled
    ``batch`` rows.  Under the serving CLI's uniform request sizes in
    ``[1, max_request]``, a lone request (the ``max_wait`` timeout
    path) fills ``(1 + max_request) / 2`` rows on average — if that
    expected fill is below threshold, most of every sparse batch is
    padding the compute still pays for.
    """
    th = thresholds or CostThresholds()
    if batch < 1 or max_request < 1:
        raise ValueError("serving_fill_check needs batch >= 1 and "
                         "max_request >= 1")
    fill = min(1.0, (1 + max_request) / 2.0 / batch)
    if fill >= th.serve_fill_min:
        return []
    return [Diagnostic(
        rule="PERF006", severity="warning", target=target,
        message=f"compiled batch shape {batch} wastes "
                f"{1 - fill:.0%} of a lone-request batch as padding "
                f"(mean request size {(1 + max_request) / 2:.1f} of "
                f"sizes 1..{max_request}) — expected fill {fill:.0%} "
                f"is below the {th.serve_fill_min:.0%} threshold")]


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #

def cost_compiled_mode(net, compiled, config: RuntimeConfig,
                       target: Optional[str] = None,
                       budget: Optional[int] = None,
                       thresholds: Optional[CostThresholds] = None,
                       ) -> Tuple[CostPrediction, List[Diagnostic]]:
    """Predict + analyze one compiled mode."""
    pred = predict_compiled_mode(net, compiled, config, target=target)
    return pred, analyze_prediction(pred, budget=budget,
                                    thresholds=thresholds)


def cost_engine(engine, modes: Sequence[str] = ("train", "infer"),
                budget: Optional[int] = None,
                thresholds: Optional[CostThresholds] = None) -> CheckReport:
    """Cost-check every requested mode of an engine (compiling on
    demand); per-target prediction summaries land in the report's
    ``metrics`` so one JSON artifact carries numbers + findings."""
    report = CheckReport(tool="cost-model")
    for mode in modes:
        cm = engine.compiled(mode)
        eff = engine.config.for_mode(mode)
        target = f"{engine.net.name}/{mode}"
        report.checked.append(target)
        pred, diags = cost_compiled_mode(
            engine.net, cm, eff, target=target, budget=budget,
            thresholds=thresholds)
        report.extend(diags)
        report.metrics[target] = pred.to_dict()
    return report
