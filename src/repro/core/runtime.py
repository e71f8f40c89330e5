"""The SuperNeurons executor: one training iteration under a policy stack.

This is the runtime of paper §3 with the *mechanics* and the *policies*
separated.  The executor owns the substrate — device ledger, timeline,
DMA engine, allocator, tensor store — and a single step loop that walks
the execution route.  Everything the paper calls an optimization lives
in a :class:`~repro.core.policy.MemoryPolicy` dispatched through
lifecycle hooks:

* **liveness** (``LivenessPolicy``) — after every step, tensors past
  their last use are freed (plan precomputed by
  :class:`~repro.core.liveness.LivenessAnalysis`);
* **UTP offload/prefetch + tensor cache** (``OffloadCachePolicy``) —
  checkpoint outputs are copied to host on the D2H stream during the
  forward pass (eager mode) or evicted on pressure (cache mode);
  backward steps prefetch upcoming host-resident reads on H2D;
* **recomputation** (``RecomputePolicy``) — backward steps that need a
  freed recomputable tensor re-run the segment forward from its anchor;
* **dynamic workspaces** (``WorkspacePolicy``) — every conv execution
  picks the fastest algorithm whose workspace fits the bytes free.

The step loop itself contains no policy-specific branches; the stack is
resolved from the :class:`~repro.core.config.RuntimeConfig` (or passed
explicitly), so new policies are new classes, not new branches here.

The executor runs identically in concrete mode (NumPy payloads, used to
prove numerical equivalence) and simulated mode (byte/time ledger only,
used for 12 GB-scale capacity and speed benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.check import instrument
from repro.core.cache import TensorCache
from repro.core.config import RuntimeConfig
from repro.core.liveness import LivenessPlan, plan_mode
from repro.core.plan import (
    SCHEDULABLE_HOOKS,
    CompiledStep,
    GatheredPolicy,
    IterationPlan,
    StepConstants,
    gather_policy_plans,
    link_iteration_plan,
    step_constants,
)
from repro.core.policy import MemoryPolicy, StepContext, resolve_policies
from repro.core.tensor_state import SessionTensorState
from repro.core.workspace import WorkspaceChoice
from repro.device.dma import CopyDirection, DMAEngine
from repro.device.fabric import MemoryFabric
from repro.device.gpu import OutOfMemoryError, SimulatedGPU
from repro.device.model import DeviceModel
from repro.device.timeline import (
    EVICT, FETCH, OFFLOAD, PREFETCH, RELEASE, Event, Stream, Timeline)
from repro.graph.network import Net
from repro.layers.base import Layer, LayerContext
from repro.layers.data import DataLayer
from repro.mempool.allocator import Allocation, CudaAllocator, PoolAllocator
from repro.obs import trace as obs_trace
from repro.tensors.store import ArrayStore, NullStore
from repro.tensors.tensor import Placement, Tensor, TensorKind

#: per-stream device-timeline op records kept when span tracing arms a
#: :class:`~repro.device.timeline.Timeline` op log (the exporter merges
#: them; an unbounded serving run must not grow the log without limit)
TIMELINE_OPS_LIMIT = 200_000


@dataclass
class StepTrace:
    """Byte-accurate record of one step (drives Fig. 10)."""

    index: int
    label: str
    phase: str
    used_high: int        # allocator bytes at the step's high-water point
    used_settled: int     # after the step's frees
    activation_high: int  # same minus the persistent parameter footprint
    activation_settled: int
    live_tensors: int
    workspace: Optional[WorkspaceChoice] = None


@dataclass
class IterationResult:
    """Everything one iteration reports."""

    iteration: int
    loss: Optional[float]
    sim_time: float
    peak_bytes: int
    activation_peak_bytes: int
    param_bytes: int
    traces: List[StepTrace] = field(default_factory=list)
    d2h_bytes: int = 0
    h2d_bytes: int = 0
    alloc_calls: int = 0
    alloc_overhead: float = 0.0
    extra_forwards: int = 0
    stall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    workspace_choices: List[WorkspaceChoice] = field(default_factory=list)
    # terminal layer's concrete output, kept only when the iteration ran
    # with capture_output (the serving path); excluded from to_dict —
    # payloads are not JSON and the dict contract predates serving
    output: Optional[np.ndarray] = None

    @property
    def offload_traffic_bytes(self) -> int:
        return self.d2h_bytes + self.h2d_bytes

    def to_dict(self) -> dict:
        """JSON-serializable summary (traces flattened to plain dicts)."""
        ws = self.workspace_choices
        at_max = sum(1 for w in ws if w.got_max_speed)
        return {
            "iteration": self.iteration,
            "loss": self.loss,
            "sim_time": self.sim_time,
            "peak_bytes": self.peak_bytes,
            "activation_peak_bytes": self.activation_peak_bytes,
            "param_bytes": self.param_bytes,
            "d2h_bytes": self.d2h_bytes,
            "h2d_bytes": self.h2d_bytes,
            "alloc_calls": self.alloc_calls,
            "alloc_overhead": self.alloc_overhead,
            "extra_forwards": self.extra_forwards,
            "stall_seconds": self.stall_seconds,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses,
                      "evictions": self.cache_evictions},
            "workspaces": {
                "executions": len(ws),
                "at_max_speed": at_max,
                "fallbacks": len(ws) - at_max,
            },
            "traces": [
                {
                    "index": t.index,
                    "label": t.label,
                    "phase": t.phase,
                    "used_high": t.used_high,
                    "used_settled": t.used_settled,
                    "activation_high": t.activation_high,
                    "activation_settled": t.activation_settled,
                    "live_tensors": t.live_tensors,
                    "workspace": None if t.workspace is None else {
                        "layer": t.workspace.layer_name,
                        "phase": t.workspace.phase,
                        "algo": t.workspace.algo.name,
                        "assigned_ws": t.workspace.assigned_ws,
                        "max_speed_ws": t.workspace.max_speed_ws,
                    },
                }
                for t in self.traces
            ],
        }


@dataclass
class _PendingOffload:
    tensor: Tensor
    event: Event
    allocation: Allocation


class Executor:
    """Runs iterations of one network under one policy stack.

    ``Executor(net, config)`` resolves the stack from the config.
    ``policies`` replaces the stack explicitly: a standalone
    :class:`~repro.core.session.Session` passes the config-resolved
    stack plus its custom policy instances here.

    ``mode`` selects the execution mode: ``"train"`` runs the 2N-step
    forward+backward route; ``"infer"`` runs the forward-only N-step
    route with ``training=False`` kernels, no gradient allocation, and
    the backward-bridging policies (offload, recompute) disarmed — see
    :meth:`RuntimeConfig.for_mode`.

    ``compiled`` injects a :class:`~repro.core.engine.CompiledMode`
    (shared route/liveness/recompute artifacts plus gathered policy
    plans) from a compile-once :class:`~repro.core.engine.Engine`: the
    executor then skips its own planning entirely and replays the
    linked plan from iteration 0.  ``planning`` injects only the
    pre-scout artifacts (:class:`~repro.core.liveness.ModePlanning`) —
    the executor skips route/liveness/segmentation derivation but still
    records its own first iteration (the engine's scout path).  Without
    either, it derives them itself with
    :func:`~repro.core.liveness.plan_mode`.

    Recording and replayed iterations run one step loop: a recording
    iteration walks a dispatch plan in which every policy receives
    every step hook, a replayed one walks the compiled
    :class:`~repro.core.plan.IterationPlan`.

    Every piece of *mutable* per-tensor state — placement, cache locks,
    host residency, prefetch arrivals — lives in :attr:`state`, a
    :class:`~repro.core.tensor_state.SessionTensorState` owned by this
    executor alone.  Descriptors are immutable identity, so any number
    of executors can run the same net concurrently (thread-per-session;
    see :meth:`~repro.core.engine.Engine.parallel_run`).
    """

    def __init__(
        self,
        net: Net,
        config: Optional[RuntimeConfig] = None,
        policies: Optional[Sequence[MemoryPolicy]] = None,
        mode: str = "train",
        compiled=None,
        planning=None,
    ):
        self.net = net.build()
        base_config = config or RuntimeConfig()
        self.mode = mode
        self.config = base_config.for_mode(mode)  # validates the mode
        self.training = mode == "train"
        cfg = self.config
        self.concrete = cfg.concrete
        self.model: DeviceModel = cfg.device

        self.gpu = SimulatedGPU(self.model)
        if cfg.gpu_capacity is not None:
            self.gpu.capacity = cfg.gpu_capacity
        # observability: cfg.trace=False compiles this executor's span
        # hook out entirely (the hook-free control arm of the overhead
        # gate); otherwise the hook checks instrument.SPANS per
        # iteration at one global load.  With spans armed at build time
        # the timeline keeps a *bounded* op log so the exporter can draw
        # the stream overlap; otherwise no op records — the per-op log
        # would grow without bound across iterations (introspection
        # uses traces/stats).
        self._obs_enabled = cfg.trace
        record_ops = cfg.trace and instrument.SPANS is not None
        self.timeline = Timeline(
            record_ops=record_ops,
            max_ops=TIMELINE_OPS_LIMIT if record_ops else None)
        self.dma = DMAEngine(self.timeline, self.model, pinned=cfg.pinned_host)
        self.fabric = MemoryFabric(cfg.external_pools,
                                   pinned=cfg.pinned_host)
        if cfg.use_pool_allocator:
            self.allocator = PoolAllocator(
                self.gpu, self.timeline, slab_bytes=cfg.pool_slab_bytes
            )
        else:
            self.allocator = CudaAllocator(self.gpu, self.timeline)
        # the heap pool whose op tape replayed iterations record and
        # replay (module doc of repro.mempool.heap_pool); None for the
        # native allocator, which never touches a tape
        self._heap = self.allocator.pool \
            if isinstance(self.allocator, PoolAllocator) else None
        self.store = ArrayStore() if self.concrete else NullStore()

        if compiled is not None and planning is not None:
            raise TypeError("pass either compiled or planning, not both")
        artifacts = compiled if compiled is not None else planning
        if artifacts is None:
            artifacts = plan_mode(self.net, cfg, mode)
        elif artifacts.mode != mode:
            raise ValueError(
                f"compiled artifacts are for mode {artifacts.mode!r}, "
                f"executor runs {mode!r}"
            )
        # engine workers share the read-only planning artifacts
        self.route = artifacts.route
        self.recompute_plan = artifacts.recompute_plan
        self.liveness = artifacts.liveness
        self.plan: LivenessPlan = artifacts.liveness_plan
        self._precompiled = compiled
        # per-step constants: an engine's compiled mode carries them
        # (derived once by its scout); otherwise derived on first use
        self._step_constants = None
        if compiled is not None and compiled.device == self.model:
            self._step_constants = compiled.step_constants

        # ALL executor-mutated tensor state is session-local: this table
        # (placement, locks, host residency, arrivals, live set) is what
        # lets N executors share one net's descriptors concurrently.
        # validate=None defers to REPRO_VALIDATE_STATE, so test/CI
        # processes arm the placement state machine for every session.
        self.state = SessionTensorState(validate=cfg.validate_state)
        # the same arming audits the heap pool after each replayed
        # iteration (disarmed, one branch)
        self._audit_heap = self.state.validate and self._heap is not None

        # the policy stack (ordered; dispatch order is semantic)
        self.policies: List[MemoryPolicy] = (
            list(policies) if policies is not None else resolve_policies(cfg)
        )
        self._ctx = StepContext(self)
        self._offload_policy = self._find_policy("offload")
        self._recompute_policy = self._find_policy("recompute")
        self._workspace_policy = self._find_policy("workspace")
        self._fallback_cache: Optional[TensorCache] = None
        for p in self.policies:
            p.bind(self._ctx)

        # hook listener tables: per hook, the bound methods of the
        # policies that actually override it, in stack order — a hook
        # nobody implements costs one empty-tuple loop, not a full
        # stack walk
        self._listeners = self._build_listener_table()
        self._active_listeners = self._listeners
        self._replay_listeners: Optional[Dict[str, tuple]] = None
        self._recording_plan: Optional[IterationPlan] = None

        # steady-state replay state
        self._replay_enabled = cfg.steady_state_replay
        self._collect_traces = cfg.collect_traces
        self._iteration_plan: Optional[IterationPlan] = None
        self._fresh_iterations = 0
        self.replayed_iterations = 0

        # runtime state
        self._alloc_of: Dict[int, Allocation] = {}
        self._pending: List[_PendingOffload] = []
        self._stall = 0.0
        self.param_bytes = 0
        self._allocate_params()
        # static end-of-iteration sweep candidates (tensors are fixed
        # objects per net; membership in _alloc_of is what varies)
        self._cleanup_tensors = [
            t for l in self.net.layers
            for t in ([l.output, l.grad_output] + l.param_grads)
            if t is not None
        ]
        self._hosted_candidates = [
            l.output for l in self.net.layers if l.output is not None
        ]

    # -------------------------------------------------------------- policies
    def _find_policy(self, key: str) -> Optional[MemoryPolicy]:
        for p in self.policies:
            if p.key == key:
                return p
        return None

    _DISPATCH_HOOKS = SCHEDULABLE_HOOKS + (
        "on_iteration_start", "on_iteration_end", "on_backward_need",
    )

    @staticmethod
    def _overrides(p: MemoryPolicy, hook: str) -> bool:
        return getattr(type(p), hook) is not getattr(MemoryPolicy, hook)

    def _build_listener_table(
        self, skip_hooks: Optional[Dict[int, Set[str]]] = None
    ) -> Dict[str, tuple]:
        """Bound-method dispatch lists; ``skip_hooks`` maps a policy id
        to the schedulable hooks compiled away for it (demand hooks and
        iteration brackets always keep every overrider)."""
        table: Dict[str, tuple] = {}
        skip_hooks = skip_hooks or {}
        for hook in self._DISPATCH_HOOKS:
            fns = []
            for p in self.policies:
                if hook in skip_hooks.get(id(p), ()):
                    continue
                if self._overrides(p, hook):
                    fns.append(getattr(p, hook))
            table[hook] = tuple(fns)
        return table

    def _dispatch(self, hook: str, *args) -> None:
        ctx = self._ctx
        for fn in self._active_listeners[hook]:
            fn(ctx, *args)

    @property
    def cache(self) -> TensorCache:
        """The offload policy's tensor cache (dormant one otherwise)."""
        if self._offload_policy is not None:
            return self._offload_policy.cache
        if self._fallback_cache is None:
            # bound to this session's state so evict_for on the dormant
            # cache stays a harmless no-op instead of raising unbound
            self._fallback_cache = TensorCache(state=self.state)
        return self._fallback_cache

    @property
    def selector(self):
        """The workspace policy's per-execution choice recorder."""
        return self._workspace_policy.selector \
            if self._workspace_policy is not None else None

    def _cache_counters(self):
        if self._offload_policy is None:
            return 0, 0, 0
        c = self._offload_policy.cache
        return c.hits, c.misses, c.evictions

    def _extra_forwards(self) -> int:
        return self._recompute_policy.extra_forwards \
            if self._recompute_policy is not None else 0

    def _workspace_choices(self) -> List[WorkspaceChoice]:
        return self.selector.choices if self.selector is not None else []

    # -------------------------------------------------------- observability
    def register_metrics(self, registry, prefix: str) -> None:
        """Register this executor's counting surfaces as probes on a
        :class:`~repro.obs.metrics.MetricsRegistry` — the owning
        subsystems keep their own locks; the probes read lazily at
        ``collect()`` time, so registration adds no hot-path cost."""
        registry.probe(f"{prefix}.allocator", lambda: {
            "allocs": self.allocator.stats.allocs,
            "frees": self.allocator.stats.frees,
            "alloc_bytes": self.allocator.stats.alloc_bytes,
            "overhead_seconds": self.allocator.stats.overhead_seconds,
            "peak_bytes": self.allocator.peak_bytes,
        })
        registry.probe(f"{prefix}.cache", lambda: dict(zip(
            ("hits", "misses", "evictions"), self._cache_counters())))
        registry.probe(f"{prefix}.timeline", lambda: {
            "elapsed": self.timeline.elapsed,
            **{s.value: self.timeline.busy_time(s) for s in Stream},
        })
        registry.probe(f"{prefix}.dma", lambda: {
            "d2h_bytes": self.dma.stats.d2h_bytes,
            "h2d_bytes": self.dma.stats.h2d_bytes,
        })

    # ------------------------------------------------------------------ params
    def _allocate_params(self) -> None:
        state = self.state
        for layer in self.net.layers:
            for p in layer.params:
                a = self.allocator.alloc(p.nbytes, tag=p.name)
                self._alloc_of[p.tensor_id] = a
                state.set_placement(p, Placement.GPU)
                state.lock(p)  # params are never evictable
                self.param_bytes += p.nbytes

    def close(self) -> None:
        """Free everything (tests create many executors)."""
        for tid, a in list(self._alloc_of.items()):
            self.allocator.free(a)
        self._alloc_of.clear()
        if isinstance(self.allocator, PoolAllocator):
            self.allocator.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- allocation
    def _gpu_alloc_tensor(self, t: Tensor) -> Allocation:
        """Allocate GPU bytes for ``t``, reaping/evicting under pressure."""
        if t.tensor_id in self._alloc_of:
            return self._alloc_of[t.tensor_id]
        try:  # fast path first: pressure handling costs a call per alloc
            a = self.allocator.alloc(t.nbytes, t.name)
        except OutOfMemoryError:
            a = self._alloc_under_pressure(t.nbytes, t.name)
        self._alloc_of[t.tensor_id] = a
        self.state.set_placement(t, Placement.GPU)
        kind = t.kind
        if kind is TensorKind.DATA or kind is TensorKind.GRAD:
            self.state.add_live(t)
        if self._active_listeners["on_tensor_resident"]:
            self._dispatch("on_tensor_resident", t, "alloc")
        return a

    def _alloc_under_pressure(self, nbytes: int, tag: str) -> Allocation:
        """The slow path: each policy in stack order may free bytes."""
        def retry() -> Optional[Allocation]:
            try:
                return self.allocator.alloc(nbytes, tag)
            except OutOfMemoryError:
                return None

        for p in self.policies:
            a = p.on_memory_pressure(self._ctx, nbytes, tag, retry)
            if a is not None:
                return a
        raise OutOfMemoryError(nbytes, self.allocator.free_bytes,
                               self.gpu.capacity)

    def _free_gpu_only(self, t: Tensor) -> None:
        """Drop the GPU copy; host copy (if any) keeps the tensor live."""
        state = self.state
        a = self._alloc_of.pop(t.tensor_id, None)
        if a is not None:
            self.allocator.free(a)
        if self._active_listeners["on_tensor_released"]:
            self._dispatch("on_tensor_released", t)
        if state.host_resident(t):
            # keep the bytes: they may still be device-side if the D2H
            # copy that made the host reservation has not been reaped
            self.store.move_to_host(t)
            state.set_placement(t, Placement.HOST)
        else:
            self.store.drop_device(t)
            state.set_placement(t, Placement.FREED)
        if not state.is_live(t):
            state.discard_live(t)

    def _discard(self, t: Tensor) -> None:
        """Free a tensor everywhere (GPU, host, payloads)."""
        if t.kind is TensorKind.PARAM:
            return
        state = self.state
        a = self._alloc_of.pop(t.tensor_id, None)
        if a is not None:
            self.allocator.free(a)
        if self._active_listeners["on_tensor_dead"]:
            self._dispatch("on_tensor_dead", t)
        if state.host_resident(t):
            self.fabric.evict(t.tensor_id)
            state.set_host_resident(t, False)
        self.store.drop(t)
        if state.any_arrivals:
            state.pop_arrival(t)
        state.set_placement(t, Placement.FREED)
        state.discard_live(t)

    # ---------------------------------------------------------------- movement
    def _evict_to_host(self, t: Tensor) -> int:
        """Synchronous offload used by LRU eviction; returns bytes freed."""
        pool = self.fabric.stash(t.tensor_id, t.nbytes)
        ev = self.dma.copy_async(t.nbytes, CopyDirection.D2H,
                                 label=f"{EVICT}:{t.name}",
                                 rate_scale=pool.d2h_scale)
        self._stall += self.timeline.sync(Stream.COMPUTE, ev)
        self.state.set_host_resident(t, True)
        self.store.move_to_host(t)
        a = self._alloc_of.pop(t.tensor_id, None)
        freed = 0
        if a is not None:
            self.allocator.free(a)
            freed = a.nbytes
        self.state.set_placement(t, Placement.HOST)
        return freed

    def _offload_async(self, t: Tensor, after: Optional[List[Event]] = None) -> None:
        """Eager UTP offload: D2H overlaps following forward compute."""
        pool = self.fabric.stash(t.tensor_id, t.nbytes)
        ev = self.dma.copy_async(t.nbytes, CopyDirection.D2H,
                                 label=f"{OFFLOAD}:{t.name}", after=after,
                                 rate_scale=pool.d2h_scale)
        self.state.set_host_resident(t, True)
        a = self._alloc_of.get(t.tensor_id)
        if a is None:
            return
        self._pending.append(_PendingOffload(t, ev, a))

    def _reap_offloads(self) -> None:
        """Free GPU copies whose D2H transfer has completed by now."""
        if not self._pending:
            return
        now = self.timeline.now(Stream.COMPUTE)
        remaining: List[_PendingOffload] = []
        for p in self._pending:
            if p.event.time <= now:
                self._complete_offload(p)
            else:
                remaining.append(p)
        self._pending = remaining

    def _force_reap_one(self) -> None:
        p = self._pending.pop(0)
        self._stall += self.timeline.sync(Stream.COMPUTE, p.event)
        self._complete_offload(p)

    def _complete_offload(self, p: _PendingOffload) -> None:
        t = p.tensor
        # the GPU-absent window of an offload starts here
        self.timeline.mark(Stream.COMPUTE, f"{RELEASE}:{t.name}")
        a = self._alloc_of.pop(t.tensor_id, None)
        if a is not None:
            self.allocator.free(a)
        self.store.move_to_host(t)
        if self._active_listeners["on_tensor_released"]:
            self._dispatch("on_tensor_released", t)
        self.state.set_placement(t, Placement.HOST)

    def _prefetch_async(self, t: Tensor) -> bool:
        """Start bringing a host tensor back; returns False if no room."""
        state = self.state
        if not state.on_host(t) or state.arrival_pending(t):
            return state.arrival_pending(t)
        try:
            a = self.allocator.alloc(t.nbytes, tag=f"{PREFETCH}:{t.name}")
        except OutOfMemoryError:
            return False
        self._alloc_of[t.tensor_id] = a
        pool = self.fabric.pool_of(t.tensor_id)
        ev = self.dma.copy_async(t.nbytes, CopyDirection.H2D,
                                 label=f"{PREFETCH}:{t.name}",
                                 rate_scale=pool.h2d_scale if pool else 1.0)
        state.set_arrival(t, ev)
        state.set_placement(t, Placement.GPU)
        self.store.move_to_gpu(t)
        if self._active_listeners["on_tensor_resident"]:
            self._dispatch("on_tensor_resident", t, "prefetch")
        return True

    def _make_gpu_resident(self, t: Tensor) -> None:
        """Block until ``t`` is usable on the GPU."""
        state = self.state
        placement = state.placement(t)
        if placement is Placement.GPU:
            if state.any_arrivals:
                ev = state.pop_arrival(t)
                if ev is not None:
                    self._stall += self.timeline.sync(Stream.COMPUTE, ev)
            if self._active_listeners["on_tensor_access"]:
                self._dispatch("on_tensor_access", t)
            return
        if placement is Placement.HOST:
            a = self._gpu_alloc_tensor(t)  # may evict/reap
            pool = self.fabric.pool_of(t.tensor_id)
            ev = self.dma.copy_async(
                t.nbytes, CopyDirection.H2D, label=f"{FETCH}:{t.name}",
                rate_scale=pool.h2d_scale if pool else 1.0)
            self._stall += self.timeline.sync(Stream.COMPUTE, ev)
            self.store.move_to_gpu(t)
            state.set_placement(t, Placement.GPU)
            return
        raise RuntimeError(
            f"tensor {t.name} is {placement.value}; cannot make resident"
        )

    # ------------------------------------------------------------------- grads
    def _ensure_grad(self, t: Tensor) -> None:
        if t.tensor_id in self._alloc_of:
            return
        self._gpu_alloc_tensor(t)
        if self.concrete:
            self.store.put(t, np.zeros(t.shape, dtype=np.float32))

    # ------------------------------------------------- steady-state replay
    @property
    def iteration_plan(self) -> Optional[IterationPlan]:
        """The compiled replay plan (None until one steady-state
        iteration has been requested after a fresh recording one)."""
        return self._iteration_plan

    def step_constants(self) -> Tuple[StepConstants, ...]:
        """The route's per-step constants under this executor's device."""
        if self._step_constants is None:
            self._step_constants = step_constants(self.route, self.model)
        return self._step_constants

    def invalidate_plan(self) -> None:
        """Drop the compiled plan; the next iteration records afresh
        (a precompiled engine plan and the heap pool's op tape are
        dropped too)."""
        self._iteration_plan = None
        self._replay_listeners = None
        self._precompiled = None
        self._fresh_iterations = 0  # require a new recording iteration
        if self._heap is not None:
            self._heap.drop_tape()

    def _install_plan(self, gathered: Sequence[GatheredPolicy]) -> None:
        """Link gathered policy plans (own or engine-shared) and derive
        the replay dispatch tables."""
        self._iteration_plan = link_iteration_plan(self, gathered)
        schedulable = set(SCHEDULABLE_HOOKS)
        skip_hooks: Dict[int, Set[str]] = {}
        for p, g in zip(self.policies, gathered):
            if not g.stable:
                continue  # dynamic: keeps every hook
            keep = set(g.plan.keep_hooks) if g.plan is not None else set()
            skip_hooks[id(p)] = schedulable - keep
        self._replay_listeners = self._build_listener_table(skip_hooks)

    # ------------------------------------------------------------------ stepping
    def run_iteration(
        self,
        iteration: int = 0,
        optimizer=None,
        feed: Optional[np.ndarray] = None,
        capture_output: bool = False,
    ) -> IterationResult:
        """Run one iteration.

        ``feed`` replaces the data layer's provider batch with a
        caller-supplied one (must match the compiled input shape);
        ``capture_output`` keeps the terminal layer's concrete output on
        the returned :attr:`IterationResult.output`.  Both serve the
        :mod:`repro.serve` request path and ride the per-session
        :class:`~repro.layers.base.LayerContext`, so concurrent
        sessions feed independently.
        """
        if optimizer is not None and not self.training:
            raise TypeError(
                "infer mode runs no backward pass, so the optimizer "
                "would never step; drop it or use a train-mode session")
        # the per-iteration obs hook: disarmed (spans not armed) costs
        # one attribute load + one global load + `is None`; trace=False
        # short-circuits even that (the control arm the
        # bench_steady_state overhead gate compares against)
        spans = instrument.SPANS if self._obs_enabled else None
        wall0 = spans.clock() if spans is not None else 0.0
        ctx = self._ctx
        replaying = False
        if self._replay_enabled:
            if self._iteration_plan is None:
                if self._fresh_iterations:
                    self._install_plan(gather_policy_plans(self))
                elif self._precompiled is not None:
                    # engine worker: link the shared plan, replay from
                    # iteration 0 — no recording iteration needed
                    self._install_plan(self._precompiled.gathered)
            replaying = self._iteration_plan is not None
        # replayed iterations bracket the heap pool's op tape: the first
        # records it, later ones answer their allocs/frees from it
        heap = self._heap if replaying else None
        if heap is not None:
            heap.tape_begin()
        self._active_listeners = (
            self._replay_listeners if replaying else self._listeners
        )
        ctx._begin_iteration(iteration, LayerContext(
            iteration=iteration, training=self.training,
            feed=feed, capture_final=capture_output))
        self._dispatch("on_iteration_start")
        self.allocator.reset_peak()
        t0 = self.timeline.elapsed
        d2h0, h2d0 = self.dma.stats.d2h_bytes, self.dma.stats.h2d_bytes
        calls0 = self.allocator.stats.calls
        ovh0 = self.allocator.stats.overhead_seconds
        hits0, miss0, ev0 = self._cache_counters()
        extra0 = self._extra_forwards()
        stall0 = self._stall
        ws_start = len(self._workspace_choices())

        if replaying:
            traces = self._run_steps(self._iteration_plan, ctx, optimizer)
            self.replayed_iterations += 1
        else:
            traces = self._run_steps(self._dispatch_plan(), ctx, optimizer)
            self._fresh_iterations += 1

        # iteration barrier: drain copies, free whatever is left
        self._dispatch("on_iteration_end")
        while self._pending:
            self._force_reap_one()
        self.timeline.sync_all()
        self._end_of_iteration_cleanup()
        if heap is not None:
            if self._audit_heap:
                heap.audit_tape()
            heap.tape_end()

        # the loss travels through the per-session LayerContext (shared
        # SoftmaxLoss objects would race under concurrent sessions)
        loss = ctx.layer_ctx.last_loss
        hits1, miss1, ev1 = self._cache_counters()
        if spans is not None:
            obs_trace.emit(
                spans, "iteration", cat="engine", start=wall0,
                end=spans.clock(),
                attrs={"net": self.net.name, "mode": self.mode,
                       "iteration": iteration, "replayed": replaying,
                       "sim_time": round(self.timeline.elapsed - t0, 9),
                       "peak_bytes": self.allocator.peak_bytes})
        return IterationResult(
            iteration=iteration,
            loss=loss,
            sim_time=self.timeline.elapsed - t0,
            peak_bytes=self.allocator.peak_bytes,
            activation_peak_bytes=self.allocator.peak_bytes - self.param_bytes,
            param_bytes=self.param_bytes,
            traces=traces,
            d2h_bytes=self.dma.stats.d2h_bytes - d2h0,
            h2d_bytes=self.dma.stats.h2d_bytes - h2d0,
            alloc_calls=self.allocator.stats.calls - calls0,
            alloc_overhead=self.allocator.stats.overhead_seconds - ovh0,
            extra_forwards=self._extra_forwards() - extra0,
            stall_seconds=self._stall - stall0,
            cache_hits=hits1 - hits0,
            cache_misses=miss1 - miss0,
            cache_evictions=ev1 - ev0,
            workspace_choices=self._workspace_choices()[ws_start:],
            output=ctx.layer_ctx.final_output,
        )

    def _dispatch_plan(self) -> IterationPlan:
        """The recording iteration's plan: every stack position is
        dynamic, so each hook site holds that hook's full listener tuple
        and every policy observes (and records) every step.  Built on
        the first fresh iteration only; replay-only workers never do."""
        if self._recording_plan is None:
            ls = self._listeners
            steps: List[CompiledStep] = []
            for k in self.step_constants():
                cs = CompiledStep(k)
                cs.before_ops = ls["before_step"]
                cs.compute_ops = ls["before_compute"]
                cs.after_ops = ls["after_step"]
                cs.settled_ops = ls["on_step_settled"]
                steps.append(cs)
            self._recording_plan = IterationPlan(steps=steps, stable_keys=())
        return self._recording_plan

    def _run_steps(self, plan: IterationPlan, ctx: StepContext, optimizer
                   ) -> List[StepTrace]:
        """The one step loop: ``plan`` decides which hook sites run
        (the full listeners when recording, compiled actions when
        replaying); the mechanics are the same either way."""
        traces: List[StepTrace] = []
        collect = self._collect_traces
        allocator = self.allocator
        param_bytes = self.param_bytes
        for cs in plan.steps:
            step = cs.step
            ctx._begin_step(step)
            for fn in cs.before_ops:
                fn(ctx, step)
            if cs.is_forward:
                ws = self._run_forward(cs, ctx)
            else:
                ws = self._run_backward(cs, ctx, optimizer)
            high = allocator.used_bytes
            # reclamation (eager-offload registration, liveness frees,
            # recompute cleanup) in stack order, then the settled sites
            # (prefetch-ahead) once the frees have landed
            for fn in cs.after_ops:
                fn(ctx, step)
            for fn in cs.settled_ops:
                fn(ctx, step)
            if collect:
                settled = allocator.used_bytes
                traces.append(StepTrace(
                    index=step.index,
                    label=cs.trace_label,
                    phase=cs.phase_value,
                    used_high=high,
                    used_settled=settled,
                    activation_high=high - param_bytes,
                    activation_settled=settled - param_bytes,
                    live_tensors=self.state.live_count(),
                    workspace=ws,
                ))
        return traces

    def _run_forward(self, cs: CompiledStep, ctx: StepContext
                     ) -> Optional[WorkspaceChoice]:
        layer = cs.layer
        state = self.state
        for t in cs.reads:
            self._make_gpu_resident(t)
            state.lock(t)
        out = cs.output
        self._gpu_alloc_tensor(out)
        state.lock(out)

        for fn in cs.compute_ops:
            fn(ctx, cs.step)
        duration = ctx.step_duration if ctx.step_duration is not None \
            else cs.duration
        ev = self.timeline.submit(Stream.COMPUTE, duration, cs.submit_label)
        ctx.last_compute_event = ev

        if self.concrete:
            ins = [self.store.get_required(p.output) for p in layer.prev]
            val = layer.forward(ins, ctx.layer_ctx)
            self.store.put(out, val)
            if cs.has_running_stats and ctx.layer_ctx.training:
                layer.update_running_stats(ins[0])
            if ctx.layer_ctx.capture_final and not layer.next:
                ctx.layer_ctx.final_output = self.store.get_required(out)

        self._free_step_scratch(ctx)
        for t in cs.reads:
            state.unlock(t)
        state.unlock(out)
        return ctx.step_workspace

    def _run_backward(self, cs: CompiledStep, ctx: StepContext, optimizer
                      ) -> Optional[WorkspaceChoice]:
        if cs.is_data:
            return None
        layer = cs.layer
        state = self.state
        missing = [t for t in cs.reads if not state.is_live(t)]
        if missing:
            self._dispatch("on_backward_need", cs.step, missing)
            still = [t for t in missing if not state.is_live(t)]
            if still:
                raise RuntimeError(
                    f"backward of {layer.name} needs freed tensors "
                    f"{[t.name for t in still]} but recomputation is off"
                )
        for t in cs.reads:
            self._make_gpu_resident(t)
            state.lock(t)

        if cs.has_grad_in:
            self._ensure_grad(layer.grad_output)
            state.lock(layer.grad_output)
        for p in cs.grad_targets:
            self._ensure_grad(p.grad_output)
            state.lock(p.grad_output)
        for g in cs.param_grads:
            self._gpu_alloc_tensor(g)

        for fn in cs.compute_ops:
            fn(ctx, cs.step)
        duration = ctx.step_duration if ctx.step_duration is not None \
            else cs.duration
        ev = self.timeline.submit(Stream.COMPUTE, duration, cs.submit_label)
        ctx.last_compute_event = ev

        if self.concrete:
            self._backward_values(layer, ctx.layer_ctx, optimizer)

        self._free_step_scratch(ctx)
        for t in cs.reads:
            state.unlock(t)
        if cs.has_grad_in:
            state.unlock(layer.grad_output)
        for p in cs.grad_targets:
            state.unlock(p.grad_output)
        return ctx.step_workspace

    def _end_of_iteration_cleanup(self) -> None:
        state = self.state
        for t in self._cleanup_tensors:
            if t.tensor_id in self._alloc_of:
                self._discard(t)
        for t in self._hosted_candidates:
            if state.host_resident(t):
                self._discard(t)
        # prefetch arrival events are all complete after the barrier;
        # drop them so no stale entry can satisfy a later iteration's
        # in-flight check without a copy actually running
        state.clear_arrivals()
        residual = self.allocator.used_bytes - self.param_bytes
        if residual != 0:
            raise RuntimeError(
                f"iteration leaked {residual} bytes beyond parameters"
            )

    # -- step mechanics (policy-free) -----------------------------------------
    def _free_step_scratch(self, ctx: StepContext) -> None:
        for a in ctx._scratch:
            self.allocator.free(a)
        ctx._scratch.clear()

    def _backward_values(self, layer: Layer, ctx: LayerContext, optimizer) -> None:
        ins = [
            self.store.get_required(p.output)
            if layer.needs_inputs_in_backward else None
            for p in layer.prev
        ]
        outv = (
            self.store.get_required(layer.output)
            if layer.needs_output_in_backward else None
        )
        gov = (
            self.store.get_required(layer.grad_output)
            if layer.next else None
        )
        grads_in, grads_p = layer.backward(ins, outv, gov, ctx)
        for p, gi in zip(layer.prev, grads_in):
            if isinstance(p, DataLayer) or gi is None:
                continue
            acc = self.store.get(p.grad_output)
            self.store.put(p.grad_output, acc + gi if acc is not None else gi)
        for g_t, g_v in zip(layer.param_grads, grads_p):
            self.store.put(g_t, g_v)
        if optimizer is not None:
            for p_t, g_t in zip(layer.params, layer.param_grads):
                g_v = self.store.get_required(g_t)
                layer.param_values[p_t.tensor_id] = optimizer.step_param(
                    p_t.tensor_id, layer.param_values[p_t.tensor_id], g_v
                )
