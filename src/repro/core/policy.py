"""The pluggable memory-policy API: the runtime's step loop is policy-free.

The paper's four memory optimizations — liveness analysis (§3.2), UTP
offload/prefetch with the LRU tensor cache (§3.3), cost-aware
recomputation (§3.4), and dynamic conv workspaces (§3.5) — are
*orthogonal* techniques that compose (the ablation ladder baseline →
+liveness → +UTP → +recompute).  This module makes that orthogonality
structural: each technique is a :class:`MemoryPolicy` that observes the
executor's step loop through lifecycle hooks and acts only through the
sanctioned operations of a :class:`StepContext` facade.  The executor
itself (:mod:`repro.core.runtime`) contains no policy-specific branches;
adding a new eviction schedule or prefetch heuristic is a new policy
class plus a :func:`register_policy` line, never an edit to the loop.

Hook protocol (all optional; the base class no-ops everything):

========================  =====================================================
``on_iteration_start``    once per iteration, before the first step
``before_step``           before a step's kernels run (and before its reads
                          are made resident)
``before_compute``        after the step's operands are resident and locked,
                          before its kernel is submitted — the moment to
                          provision scratch (workspaces) and override the
                          simulated duration
``after_step``            right after the step's kernels, *before* dead-tensor
                          reclamation settles (dispatch in stack order is the
                          reclamation order: offload registration must precede
                          liveness frees, which precede recompute cleanup)
``on_step_settled``       after every policy's ``after_step`` — the step's
                          frees have landed; prefetch-ahead is issued here so
                          tensors arrive just-in-time and the measured peak
                          stays at the paper's l_peak
``on_tensor_dead``        a tensor was fully discarded (GPU + host + payload)
``on_tensor_released``    a tensor lost its GPU copy but survives in host RAM
``on_tensor_resident``    a tensor just gained a GPU allocation
                          (``source`` is ``"alloc"`` or ``"prefetch"``)
``on_tensor_access``      a GPU-resident tensor was read by a kernel
``on_memory_pressure``    an allocation failed; the policy may free bytes and
                          retry via the provided callback
``on_backward_need``      a backward step needs tensors that are no longer
                          live (the recomputation trigger)
``on_iteration_end``      after the last step, before the iteration barrier
========================  =====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Type

from repro.core import config as _config
from repro.core.cache import TensorCache
from repro.core.config import RecomputeStrategy, RuntimeConfig
from repro.core.workspace import WorkspaceChoice, WorkspaceSelector
from repro.device.timeline import RECOMPUTE, Stream
from repro.graph.route import Phase, Step
from repro.layers.base import Layer, LayerContext
from repro.layers.conv import Conv2D
from repro.mempool.allocator import Allocation
from repro.tensors.tensor import Tensor, TensorKind


class StepContext:
    """Facade through which policies observe and act on the executor.

    Policies never touch ``Executor`` internals; every state mutation
    goes through a sanctioned operation below, so the executor remains
    free to change its bookkeeping without breaking policy code.
    """

    def __init__(self, executor) -> None:
        self._ex = executor
        self.iteration: int = 0
        self.layer_ctx: Optional[LayerContext] = None
        self.step: Optional[Step] = None
        self.last_compute_event = None
        self.step_duration: Optional[float] = None
        self.step_workspace: Optional[WorkspaceChoice] = None
        self._scratch: List[Allocation] = []

    # -- iteration/step bookkeeping (driven by the executor) ----------------
    def _begin_iteration(self, iteration: int, layer_ctx: LayerContext) -> None:
        self.iteration = iteration
        self.layer_ctx = layer_ctx

    def _begin_step(self, step: Step) -> None:
        self.step = step
        self.last_compute_event = None
        self.step_duration = None
        self.step_workspace = None
        self._scratch.clear()

    # -- read-only views ----------------------------------------------------
    @property
    def state(self):
        """This session's :class:`~repro.core.tensor_state.SessionTensorState`.

        The ONE place policies read/write per-tensor scheduling state
        (placement, locks, host residency).  Descriptors are shared by
        every session of an engine; this table is not.
        """
        return self._ex.state

    @property
    def config(self) -> RuntimeConfig:
        return self._ex.config

    @property
    def net(self):
        return self._ex.net

    @property
    def route(self):
        return self._ex.route

    @property
    def model(self):
        return self._ex.model

    @property
    def timeline(self):
        return self._ex.timeline

    @property
    def store(self):
        return self._ex.store

    @property
    def concrete(self) -> bool:
        return self._ex.concrete

    @property
    def plan(self):
        """The compiled :class:`~repro.core.liveness.LivenessPlan`."""
        return self._ex.plan

    @property
    def recompute_plan(self):
        return self._ex.recompute_plan

    @property
    def free_bytes(self) -> int:
        return self._ex.allocator.free_bytes

    @property
    def pending_offloads(self) -> int:
        """Number of offload copies still in flight."""
        return len(self._ex._pending)

    def offload_in_flight(self, t: Tensor) -> bool:
        return any(p.tensor is t for p in self._ex._pending)

    def reads_at(self, step_index: int, include_synthetic: bool = True
                 ) -> List[Tensor]:
        return self._ex.liveness.reads_at(step_index, include_synthetic)

    # -- sanctioned operations ----------------------------------------------
    def alloc_tensor(self, t: Tensor) -> Allocation:
        """Give ``t`` a GPU allocation (reaping/evicting under pressure)."""
        return self._ex._gpu_alloc_tensor(t)

    def alloc_scratch(self, nbytes: int, tag: str = "") -> Optional[Allocation]:
        """Step-scoped scratch (freed by the executor after the kernel).

        Returns ``None`` when the bytes cannot be carved out — scratch
        is best-effort by design: it may shrink the speed, never break
        the training.
        """
        from repro.device.gpu import OutOfMemoryError
        try:
            a = self._ex.allocator.alloc(nbytes, tag)
        except OutOfMemoryError:
            return None
        self._scratch.append(a)
        return a

    def set_duration(self, seconds: float) -> None:
        """Override the simulated kernel duration of the current step."""
        self.step_duration = seconds

    def set_workspace(self, choice: WorkspaceChoice) -> None:
        """Record the workspace choice shown in the step trace."""
        self.step_workspace = choice

    def discard(self, t: Tensor) -> None:
        """Free ``t`` everywhere (GPU, host, payload)."""
        self._ex._discard(t)

    def release_gpu(self, t: Tensor) -> None:
        """Drop the GPU copy only; the host copy keeps ``t`` live."""
        self._ex._free_gpu_only(t)

    def make_resident(self, t: Tensor) -> None:
        """Block until ``t`` is usable on the GPU."""
        self._ex._make_gpu_resident(t)

    def offload(self, t: Tensor, after=None) -> None:
        """Start an async D2H copy of ``t`` (eager UTP offload)."""
        self._ex._offload_async(t, after=after)

    def prefetch(self, t: Tensor) -> bool:
        """Start bringing a host tensor back; False when no room."""
        return self._ex._prefetch_async(t)

    def evict_to_host(self, t: Tensor) -> int:
        """Synchronous offload (LRU.out victim path); returns bytes freed."""
        return self._ex._evict_to_host(t)

    def reap_offloads(self) -> None:
        """Free GPU copies whose D2H transfer has completed by now."""
        self._ex._reap_offloads()

    def force_reap_one(self) -> None:
        """Block on the oldest in-flight offload (stalls compute)."""
        self._ex._force_reap_one()

    def submit_compute(self, duration: float, label: str = ""):
        return self._ex.timeline.submit(Stream.COMPUTE, duration, label)


class MemoryPolicy:
    """Base class: a named bundle of lifecycle hooks (all no-ops).

    Subclasses override the hooks they care about and declare:

    * ``key`` — the registry name (``"liveness"``, ``"offload"``, ...);
    * ``from_config`` — build an instance from a :class:`RuntimeConfig`;
    * ``configure`` — map fluent ``Session.with_policy`` options onto
      the config, so the config object remains the single source of
      truth the stack is resolved from;
    * ``describe`` — one-line summary for the ``repro policies`` CLI.
    """

    key: str = ""

    #: True for policies that only bridge the forward->backward gap
    #: (offload, recompute): RuntimeConfig.for_mode("infer") disarms
    #: them and Session.with_policy rejects arming them on infer
    #: sessions — one flag, both surfaces.
    backward_only: bool = False

    # -- construction / config mapping --------------------------------------
    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "MemoryPolicy":
        return cls()

    @classmethod
    def configure(cls, config: RuntimeConfig, **options) -> RuntimeConfig:
        if options:
            raise TypeError(
                f"policy {cls.key!r} takes no options, got {sorted(options)}")
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        """Undo everything :meth:`configure` arms on the config.

        ``Session.without_policy`` dispatches here through the
        registry, so arming and disarming can never drift apart.
        Policies that only exist as explicit instances (nothing in the
        config denotes them) have nothing to disarm.
        """
        raise TypeError(
            f"policy {cls.key!r} is not config-armed; remove the "
            "instance from the stack instead of disarming it")

    def describe(self) -> str:
        return self.key

    def bind(self, ctx: StepContext) -> None:
        """Called once when the executor is built (plans exist)."""

    # -- steady-state plan compilation ---------------------------------------
    def is_plan_stable(self, ctx: StepContext) -> bool:
        """Are this policy's per-step decisions fixed by the topology?

        Returning True lets the executor compile the decisions once
        (via :meth:`compile_plan`) and *stop dispatching* this policy's
        per-step hooks on steady-state iterations — the compiled
        :class:`~repro.core.plan.IterationPlan` replays them instead.
        Demand hooks (``on_backward_need``, ``on_memory_pressure``) and
        the iteration brackets are always dispatched regardless.

        Default False: unknown policies keep full hook dispatch.
        """
        return False

    def compile_plan(self, ctx: StepContext):
        """Freeze this policy's per-step decisions for replay.

        Called after at least one fresh iteration has run (so observed
        schedules — workspace picks, recompute activity — exist).
        Returns a :class:`~repro.core.plan.PolicyPlan` or None (None
        asserts the policy does nothing per-step and is elided).
        """
        return None

    # -- lifecycle hooks ----------------------------------------------------
    def on_iteration_start(self, ctx: StepContext) -> None: ...
    def before_step(self, ctx: StepContext, step: Step) -> None: ...
    def before_compute(self, ctx: StepContext, step: Step) -> None: ...
    def after_step(self, ctx: StepContext, step: Step) -> None: ...
    def on_step_settled(self, ctx: StepContext, step: Step) -> None: ...
    def on_tensor_dead(self, ctx: StepContext, t: Tensor) -> None: ...
    def on_tensor_released(self, ctx: StepContext, t: Tensor) -> None: ...
    def on_tensor_resident(self, ctx: StepContext, t: Tensor,
                           source: str) -> None: ...
    def on_tensor_access(self, ctx: StepContext, t: Tensor) -> None: ...

    def on_memory_pressure(
        self, ctx: StepContext, nbytes: int, tag: str,
        retry: Callable[[], Optional[Allocation]],
    ) -> Optional[Allocation]:
        """Free bytes and ``retry()``; return the allocation or None."""
        return None

    def on_backward_need(self, ctx: StepContext, step: Step,
                         missing: List[Tensor]) -> None: ...
    def on_iteration_end(self, ctx: StepContext) -> None: ...


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

POLICY_REGISTRY: Dict[str, Type[MemoryPolicy]] = {}


def register_policy(cls: Type[MemoryPolicy]) -> Type[MemoryPolicy]:
    """Class decorator: add a policy to the string-keyed registry."""
    if not cls.key:
        raise ValueError(f"{cls.__name__} must define a registry key")
    POLICY_REGISTRY[cls.key] = cls
    return cls


def resolve_policies(config: RuntimeConfig) -> List[MemoryPolicy]:
    """The ordered policy stack a config denotes.

    Order is load-bearing: ``after_step`` dispatches in stack order, and
    eager-offload registration must precede liveness frees (so frees
    skip tensors with copies in flight), which precede recompute
    cleanup.  The workspace policy is always armed — even the "none"
    mode records a (zero-workspace) choice per conv execution, which the
    Fig. 12 traces rely on.
    """
    stack: List[MemoryPolicy] = []
    if config.use_offload:
        stack.append(OffloadCachePolicy.from_config(config))
    if config.use_liveness:
        stack.append(LivenessPolicy.from_config(config))
    if config.recompute is not RecomputeStrategy.NONE:
        stack.append(RecomputePolicy.from_config(config))
    stack.append(WorkspacePolicy.from_config(config))
    return stack


def describe_stack(config: RuntimeConfig) -> List[str]:
    """One summary string per policy in the resolved stack."""
    return [p.describe() for p in resolve_policies(config)]


# --------------------------------------------------------------------------- #
# the four built-in policies
# --------------------------------------------------------------------------- #

@register_policy
class LivenessPolicy(MemoryPolicy):
    """Free tensors the moment no later step reads them (paper §3.2).

    The per-step free lists come from the executor's compiled
    :class:`~repro.core.liveness.LivenessPlan`; this policy is the one
    place that executes them.  Tensors with an offload copy in flight
    are skipped — completing the copy retires the GPU bytes instead.
    """

    key = "liveness"

    def __init__(self, scope: str = "all") -> None:
        self.scope = scope

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "LivenessPolicy":
        return cls(scope=config.liveness_scope)

    @classmethod
    def configure(cls, config: RuntimeConfig, scope: str = "all"
                  ) -> RuntimeConfig:
        if scope not in ("all", "grads_only"):
            raise ValueError(f"unknown liveness scope {scope!r}")
        config.use_liveness = True
        config.liveness_scope = scope
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        config.use_liveness = False
        return config

    def describe(self) -> str:
        return f"liveness(scope={self.scope})"

    def after_step(self, ctx: StepContext, step: Step) -> None:
        for t in ctx.plan.frees(step.index):
            if ctx.offload_in_flight(t):
                continue  # eager offload in flight; reap handles it
            ctx.discard(t)

    # -- steady-state compilation --------------------------------------------
    def is_plan_stable(self, ctx: StepContext) -> bool:
        # The free lists come straight from the compiled LivenessPlan:
        # per-topology by construction (paper §3.2).
        return True

    def compile_plan(self, ctx: StepContext):
        from repro.core.plan import PolicyPlan
        return PolicyPlan(key=self.key, step_frees=ctx.plan.freeze())


@register_policy
class OffloadCachePolicy(MemoryPolicy):
    """The Unified Tensor Pool (paper §3.3): offload, prefetch, cache.

    Two modes, mirroring the paper's ablation:

    * **eager** (``cache=None``) — checkpoint outputs start a D2H copy
      right after their forward kernel; backward steps prefetch the next
      step's host-resident reads on the H2D stream.
    * **cache** (``cache="lru"|"fifo"|"lfu"``) — tensors stay on the GPU
      while room remains; Alg. 2's ``LRU.out`` evicts under pressure.
    """

    key = "offload"
    backward_only = True  # offload exists to cover backward reads

    def __init__(self, cache_policy: Optional[str] = "lru") -> None:
        self.cache_mode = cache_policy is not None
        self.cache = TensorCache(policy=cache_policy or "lru")

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "OffloadCachePolicy":
        return cls(cache_policy=config.cache_policy
                   if config.use_tensor_cache else None)

    @classmethod
    def configure(cls, config: RuntimeConfig,
                  cache: Optional[str] = "lru",
                  pinned: Optional[bool] = None,
                  pools: Optional[tuple] = None) -> RuntimeConfig:
        config.use_offload = True
        config.use_tensor_cache = cache is not None
        if cache is not None:
            config.cache_policy = cache
        if pinned is not None:
            config.pinned_host = pinned
        if pools is not None:
            config.external_pools = pools
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        # the tensor cache exists only as the UTP's lazy mode: disarm
        # it too, or a later re-arm would silently inherit stale state
        config.use_offload = False
        config.use_tensor_cache = False
        return config

    def describe(self) -> str:
        mode = f"cache={self.cache.policy}" if self.cache_mode else "eager"
        return f"offload({mode})"

    def bind(self, ctx: StepContext) -> None:
        # the cache's victim filter consults this session's lock bits
        self.cache.bind_state(ctx.state)

    # -- hooks ---------------------------------------------------------------
    def before_step(self, ctx: StepContext, step: Step) -> None:
        ctx.reap_offloads()

    def after_step(self, ctx: StepContext, step: Step) -> None:
        # Eager UTP offload: the D2H copy overlaps the following forward
        # compute (it is ordered after this step's kernel event, and
        # must register before liveness frees run so they skip it).
        if self.cache_mode or step.phase is not Phase.FORWARD:
            return
        layer = step.layer
        if layer.ltype in ctx.config.offload_types:
            after = [ctx.last_compute_event] if ctx.last_compute_event else None
            ctx.offload(layer.output, after=after)

    def on_step_settled(self, ctx: StepContext, step: Step) -> None:
        # Prefetch-ahead (paper §3.3.1): start the H2D fetch of the next
        # backward step's host-resident reads so it overlaps this step's
        # compute.  Issued after the step's frees: identical overlap on
        # the timeline, but tensors land just-in-time so the measured
        # peak stays at l_peak — which the paper's own Fig. 10c peak
        # (exactly max(l_i)) requires.
        if step.phase is Phase.BACKWARD:
            self._prefetch_ahead(ctx, step)

    def _prefetch_ahead(self, ctx: StepContext, step: Step) -> None:
        nxt = step.index + 1
        if nxt >= len(ctx.route.steps):
            return
        state = ctx.state
        for t in ctx.reads_at(nxt, include_synthetic=False):
            if state.on_host(t):
                ctx.prefetch(t)
            elif (not state.is_live(t)
                  and t.tensor_id in ctx.plan.recompute_covered):
                # the next step will trigger a segment recompute; start
                # fetching its anchor now so the chain doesn't stall
                producer = ctx.net.layers[t.producer]
                anchor = ctx.recompute_plan.anchor_output_of(
                    producer.layer_id)
                if anchor is not None and state.on_host(anchor):
                    ctx.prefetch(anchor)

    # -- cache membership ----------------------------------------------------
    # Every membership/counter hook is gated on cache_mode: in eager
    # mode the cache is dormant and must stay silent — previously
    # ``touch`` ticked a miss per tensor access, so eager runs reported
    # a meaningless, ever-growing miss count.
    def on_tensor_resident(self, ctx: StepContext, t: Tensor,
                           source: str) -> None:
        if self.cache_mode and t.kind is TensorKind.DATA:
            self.cache.insert(t)

    def on_tensor_access(self, ctx: StepContext, t: Tensor) -> None:
        if self.cache_mode:
            self.cache.touch(t)

    def on_tensor_dead(self, ctx: StepContext, t: Tensor) -> None:
        if self.cache_mode:
            self.cache.remove(t)

    def on_tensor_released(self, ctx: StepContext, t: Tensor) -> None:
        if self.cache_mode:
            self.cache.remove(t)

    # -- pressure cascade ----------------------------------------------------
    def on_memory_pressure(
        self, ctx: StepContext, nbytes: int, tag: str,
        retry: Callable[[], Optional[Allocation]],
    ) -> Optional[Allocation]:
        # 1) reap any completed eager offloads
        ctx.reap_offloads()
        a = retry()
        if a is not None:
            return a
        # 2) force-complete pending offloads (stalls compute)
        while ctx.pending_offloads:
            ctx.force_reap_one()
            a = retry()
            if a is not None:
                return a
        # 3) LRU eviction (Alg. 2 LRU.out) if the cache is armed.  The
        # loop handles fragmentation: freed bytes may not be contiguous,
        # so keep evicting (coalescing merges holes) until the request
        # fits or nothing evictable remains.
        if self.cache_mode:
            while True:
                freed = self.cache.evict_for(nbytes, ctx.evict_to_host)
                a = retry()
                if a is not None:
                    return a
                if freed == 0:
                    return None
        return None
    # (No on_iteration_end: the executor owns the iteration barrier and
    # drains in-flight copies itself, so a stack without this policy —
    # or a custom one that offloads directly — can never leak pendings.)

    # -- steady-state compilation --------------------------------------------
    def is_plan_stable(self, ctx: StepContext) -> bool:
        # Both modes have a static *step* schedule: eager offloads
        # checkpoint outputs after fixed kernels, and prefetch-ahead
        # candidates come from the static read sets (the host-residency
        # test stays a live guard in the compiled op).  Cache mode
        # additionally keeps its tensor hooks live (see compile_plan):
        # LRU order, hit/miss counters, and pressure-driven eviction
        # only exist by observing every residency event.
        return True

    def compile_plan(self, ctx: StepContext):
        from repro.core.plan import PolicyPlan
        steps = ctx.route.steps
        offload_types = ctx.config.offload_types
        offloads = {}
        prefetch = {}
        for step in steps:
            if step.phase is Phase.FORWARD:
                if not self.cache_mode \
                        and step.layer.ltype in offload_types:
                    offloads[step.index] = (step.layer.output,)
                continue
            nxt = step.index + 1
            if nxt >= len(steps):
                continue
            entries = []
            for t in ctx.reads_at(nxt, include_synthetic=False):
                anchor = None
                if ctx.recompute_plan is not None \
                        and t.tensor_id in ctx.plan.recompute_covered:
                    producer = ctx.net.layers[t.producer]
                    anchor = ctx.recompute_plan.anchor_output_of(
                        producer.layer_id)
                entries.append((t, anchor))
            if entries:
                prefetch[step.index] = tuple(entries)
        if self.cache_mode:
            # no eager copies ⇒ nothing to reap before steps, nothing
            # to register after them; membership/counter hooks stay
            return PolicyPlan(
                key=self.key, step_prefetch=prefetch,
                keep_hooks=("on_tensor_resident", "on_tensor_access",
                            "on_tensor_dead", "on_tensor_released"),
            )
        return PolicyPlan(key=self.key, reap_before_step=True,
                          step_offloads=offloads, step_prefetch=prefetch)


@register_policy
class RecomputePolicy(MemoryPolicy):
    """Demand-driven segment recomputation (paper §3.4 strategies).

    Absorbs the old ``RecomputeEngine``: when a backward step needs a
    freed recomputable tensor, the segment is re-run forward from its
    checkpoint anchor — once per segment keeping results
    (speed-centric), or chain-per-layer dropping intermediates
    (memory-centric); the cost-aware plan picks per segment.
    """

    key = "recompute"
    backward_only = True  # segments re-run only on backward demand

    def __init__(self, strategy: RecomputeStrategy =
                 RecomputeStrategy.COST_AWARE) -> None:
        self.strategy = strategy
        self.extra_forwards = 0
        # speed-centric persistents: tensor_id -> (tensor, free_after_step)
        self._kept: Dict[int, Tuple[Tensor, int]] = {}
        self._materialized: Set[int] = set()  # id(segment anchors) done
        self._transient: List[Tensor] = []
        # step index -> tensors the cleanup sweep discarded there (last
        # fresh iteration, in discard order) — the schedule replay runs
        # instead of dispatching after_step at all
        self._cleanup_by_step: Dict[int, List[Tensor]] = {}

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "RecomputePolicy":
        return cls(strategy=config.recompute)

    @classmethod
    def configure(cls, config: RuntimeConfig,
                  strategy: str = "cost_aware") -> RuntimeConfig:
        config.recompute = RecomputeStrategy(strategy)
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        config.recompute = RecomputeStrategy.NONE
        return config

    def describe(self) -> str:
        return f"recompute(strategy={self.strategy.value})"

    # -- hooks ---------------------------------------------------------------
    def on_iteration_start(self, ctx: StepContext) -> None:
        self._kept.clear()
        self._materialized.clear()
        self._transient.clear()
        # fresh dict, never mutate one a compiled plan may have frozen
        self._cleanup_by_step = {}

    def on_backward_need(self, ctx: StepContext, step: Step,
                         missing: List[Tensor]) -> None:
        self.ensure(ctx, missing)

    def after_step(self, ctx: StepContext, step: Step) -> None:
        """Free transients and expired speed-centric persistents."""
        if not self._transient and not self._kept:
            return
        state = ctx.state
        dropped: List[Tensor] = []
        for t in self._transient:
            if state.is_live(t):
                ctx.discard(t)
                dropped.append(t)
        self._transient.clear()
        expired = [tid for tid, (_t, fa) in self._kept.items()
                   if fa <= step.index]
        for tid in expired:
            t, _fa = self._kept.pop(tid)
            if state.is_live(t):
                ctx.discard(t)
                dropped.append(t)
        if dropped:
            self._cleanup_by_step[step.index] = dropped

    # -- steady-state compilation --------------------------------------------
    def is_plan_stable(self, ctx: StepContext) -> bool:
        # Segment re-execution is demand-driven mechanics (triggered by
        # ``on_backward_need``, which always dispatches); the only
        # per-step hook is the cleanup sweep, whose discard schedule is
        # fixed by the recompute plan.  Stable: replay runs the recorded
        # discards (still guarded by liveness) with no dispatch at all.
        return True

    def compile_plan(self, ctx: StepContext):
        from repro.core.plan import PolicyPlan
        return PolicyPlan(
            key=self.key,
            step_discards={i: tuple(ts)
                           for i, ts in self._cleanup_by_step.items()},
        )
    def ensure(self, ctx: StepContext, missing: List[Tensor]) -> None:
        """Make every tensor in ``missing`` resident by recomputation."""
        plan = ctx.recompute_plan
        for t in missing:
            if ctx.state.is_live(t):
                continue
            producer = ctx.net.layers[t.producer]
            if not producer.is_recomputable:
                raise RuntimeError(
                    f"tensor {t.name} was freed but its producer "
                    f"{producer.name} is not recomputable — scheduling bug"
                )
            seg = plan.segment_of.get(producer.layer_id)
            if seg is None:
                raise RuntimeError(f"{producer.name} not in any segment")
            if seg.strategy is RecomputeStrategy.SPEED_CENTRIC:
                self._materialize_segment(ctx, seg)
            else:
                self._chain_to(ctx, producer, targets={t.tensor_id})

    def _materialize_segment(self, ctx: StepContext, seg) -> None:
        """Speed-centric: re-run every member once, keep the results."""
        if id(seg) in self._materialized:
            # Already rebuilt this iteration; any member freed since then
            # had passed its backward use, so nothing more to do.
            return
        self._materialized.add(id(seg))
        for member in seg.members:
            if member.output is not None and ctx.state.is_live(member.output):
                continue
            self._run_forward(ctx, member)
            bstep = ctx.route.bstep_of[member.layer_id]
            self._kept[member.output.tensor_id] = (member.output, bstep)
        self._release_offloaded_anchor(ctx, seg)

    def _release_offloaded_anchor(self, ctx: StepContext, seg) -> None:
        """Drop the anchor's GPU copy once the chain has consumed it.

        The anchor stays in host RAM (it was offloaded); its own
        backward will prefetch it again.  Without this, the anchor
        inflates the segment-backward working set above l_peak —
        the paper's measured AlexNet peak (exactly 4 tensors at LRN1's
        backward) implies their runtime releases it too.
        """
        out = seg.anchor.output
        state = ctx.state
        if out is not None and state.on_gpu(out) \
                and state.host_resident(out) and not state.locked(out):
            ctx.release_gpu(out)

    def _chain_to(self, ctx: StepContext, target_layer: Layer,
                  targets: Set[int]) -> None:
        """Memory-centric: rebuild anchor→target, dropping intermediates
        as soon as their chain consumer has run."""
        chain = self._chain_layers(ctx, target_layer)
        state = ctx.state
        produced: List[Tensor] = []
        for i, member in enumerate(chain):
            if member.output is not None and state.is_live(member.output):
                continue
            self._run_forward(ctx, member)
            produced.append(member.output)
            # inputs that no later chain layer reads can go immediately
            still_needed = {
                inp.tensor_id
                for later in chain[i + 1:]
                for inp in (p.output for p in later.prev)
            }
            for t in list(produced):
                if t.tensor_id in targets or t.tensor_id in still_needed:
                    continue
                if t.tensor_id == member.output.tensor_id:
                    continue
                ctx.discard(t)
                produced.remove(t)
        # whatever remains (the targets) lives only through this step
        self._transient.extend(p for p in produced if state.is_live(p))
        self._release_offloaded_anchor(
            ctx, ctx.recompute_plan.segment_of[target_layer.layer_id])

    def _chain_layers(self, ctx: StepContext,
                      target_layer: Layer) -> List[Layer]:
        """Members between the segment anchor and ``target_layer``, in
        forward route order (the re-execution schedule)."""
        seg = ctx.recompute_plan.segment_of[target_layer.layer_id]
        out: List[Layer] = []
        for m in seg.members:
            out.append(m)
            if m.layer_id == target_layer.layer_id:
                break
        return out

    # -- the actual re-execution ---------------------------------------------
    def _run_forward(self, ctx: StepContext, layer: Layer) -> None:
        state = ctx.state
        for p in layer.prev:
            if not state.is_live(p.output):
                # nested dependency (e.g. a join reading another branch):
                # resolve recursively through the normal path
                self.ensure(ctx, [p.output])
            ctx.make_resident(p.output)
            state.lock(p.output)
        ctx.alloc_tensor(layer.output)
        state.lock(layer.output)
        ctx.submit_compute(
            layer.sim_time_forward(ctx.model),
            f"{RECOMPUTE}:{layer.name}",
        )
        if ctx.concrete:
            ins = [ctx.store.get_required(p.output) for p in layer.prev]
            out = layer.forward(ins, ctx.layer_ctx)
            ctx.store.put(layer.output, out)
        for p in layer.prev:
            state.unlock(p.output)
        state.unlock(layer.output)
        self.extra_forwards += 1


@register_policy
class WorkspacePolicy(MemoryPolicy):
    """Dynamic convolution-workspace provisioning (paper §3.5).

    Every conv execution picks the fastest algorithm whose workspace
    fits the bytes currently free, allocates the scratch for the
    kernel's duration, and falls back to the zero-workspace algorithm
    when fragmentation defeats the reservation.  (Not to be confused
    with the :class:`repro.core.config.WorkspacePolicy` *enum*, which
    names the selection mode this policy runs under.)
    """

    key = "workspace"

    def __init__(self, mode: Optional[_config.WorkspacePolicy] = None) -> None:
        self.mode = mode if mode is not None else _config.WorkspacePolicy.DYNAMIC
        self.selector: Optional[WorkspaceSelector] = None
        # step index -> the selection of the last fresh iteration
        # (pre-fallback), frozen into the IterationPlan on compile
        self._pick_by_step: Dict[int, WorkspaceChoice] = {}

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "WorkspacePolicy":
        return cls(mode=config.workspace_policy)

    @classmethod
    def configure(cls, config: RuntimeConfig,
                  mode: str = "dynamic") -> RuntimeConfig:
        config.workspace_policy = _config.WorkspacePolicy(mode)
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        config.workspace_policy = _config.WorkspacePolicy.NONE
        return config

    def describe(self) -> str:
        return f"workspace(mode={self.mode.value})"

    def bind(self, ctx: StepContext) -> None:
        self.selector = WorkspaceSelector(self.mode, ctx.model)

    def on_iteration_start(self, ctx: StepContext) -> None:
        # The choice log is per-iteration: without this reset it grew
        # without bound across run_iteration calls on one executor.
        self.selector.reset()

    def before_compute(self, ctx: StepContext, step: Step) -> None:
        layer = step.layer
        if not isinstance(layer, Conv2D):
            return
        phase = "forward" if step.phase is Phase.FORWARD else "backward"
        choice = self.selector.select(layer, ctx.free_bytes, phase)
        self._pick_by_step[step.index] = choice
        if choice.assigned_ws > 0:
            scratch = ctx.alloc_scratch(choice.assigned_ws,
                                        tag=f"ws:{layer.name}")
            if scratch is None:
                # fragmentation: fall back to the zero-workspace algo
                choice = WorkspaceChoice(
                    layer.name, phase,
                    layer.algorithms(ctx.model)[0],
                    ctx.free_bytes,
                    choice.max_speed_algo,
                )
                self.selector.replace_last(choice)
        if phase == "forward":
            ctx.set_duration(layer.sim_time_forward(ctx.model, choice.algo))
        else:
            ctx.set_duration(layer.sim_time_backward(ctx.model, choice.algo))
        ctx.set_workspace(choice)

    # -- steady-state compilation --------------------------------------------
    def is_plan_stable(self, ctx: StepContext) -> bool:
        # The free-byte landscape at each step is identical on every
        # iteration of a fixed topology (the allocator returns to
        # params-only at the barrier), so the per-step selection
        # repeats.  Replay reuses the recorded pick but re-runs the
        # scratch reservation and its fragmentation fallback live.
        return True

    def compile_plan(self, ctx: StepContext):
        from repro.core.plan import PolicyPlan
        return PolicyPlan(key=self.key,
                          workspace_picks=dict(self._pick_by_step))
