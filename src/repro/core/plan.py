"""The compiled iteration plan: steady-state replay of policy decisions.

The paper's central observation (§3) is that liveness, offload/prefetch,
recomputation, and workspace decisions are *deterministic per topology*:
once the route is fixed, the same tensors die at the same steps, the
same checkpoints offload after the same kernels, the same segments
recompute on the same backward demands, and the same conv algorithms fit
the same free-byte landscape — every iteration.  The hook-dispatch
runtime re-derives all of this on every step of every iteration, which
is pure planning overhead once the first iteration has shown the plan.

This module freezes those decisions after a recording (fresh) iteration:

* each plan-stable policy contributes a :class:`PolicyPlan` via its
  ``compile_plan`` hook — per-step free lists (liveness), the eager
  offload/prefetch schedule (UTP), the steps where recomputation
  bookkeeping is live, and the per-execution workspace algorithm picks;
* :func:`gather_policy_plans` collects the contributions
  (executor-independent, so a compile-once engine can share them) and
  :func:`link_iteration_plan` merges them, *in stack order*, into one
  :class:`IterationPlan` — an array of
  :class:`CompiledStep` records whose hook sites are prebound closure
  lists, so the executor's step loop runs the exact same mechanics
  with zero hook dispatch for stable policies and no dispatch at all
  where nothing would happen;
* policies that are **not** plan-stable (the LRU tensor cache, whose
  evictions are pressure-driven; any custom policy that does not opt
  in) keep receiving every hook through bound-method lists in their
  original stack positions, so a mixed stack replays correctly.

A recording iteration and a replayed one run the same step loop
(``Executor._run_steps``) over the same :class:`CompiledStep` records;
the recording one walks a dispatch plan whose every stack position is
dynamic.  So the mechanics are shared, and only the decisions differ:
every replay closure reproduces the corresponding policy-hook body,
including its dynamic guards (offload-in-flight checks, host-residency
checks before prefetch, the workspace fragmentation fallback), which is
what makes replay bit-identical to recording.  Demand-driven hooks
(``on_backward_need``, ``on_memory_pressure``) and the iteration
brackets are never compiled away — they are mechanics, not planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.workspace import WorkspaceChoice
from repro.device.timeline import BW, FW
from repro.graph.route import Phase, Step
from repro.layers.data import DataLayer
from repro.tensors.tensor import Tensor

#: A hook-site closure: ``op(ctx, step)``, prebound to executor internals.
StepOp = Callable[[object, Step], None]

#: The per-step hooks replay can compile away.  Demand hooks
#: (``on_backward_need``, ``on_memory_pressure``) and the iteration
#: brackets (``on_iteration_start``/``end``) are deliberately absent:
#: they always dispatch, in both modes.
SCHEDULABLE_HOOKS = (
    "before_step",
    "before_compute",
    "after_step",
    "on_step_settled",
    "on_tensor_dead",
    "on_tensor_released",
    "on_tensor_resident",
    "on_tensor_access",
)


@dataclass(frozen=True)
class PolicyPlan:
    """One plan-stable policy's frozen per-step decisions.

    Returned by :meth:`~repro.core.policy.MemoryPolicy.compile_plan`.
    Every field is optional; a policy fills only the schedules it owns.
    A stable policy that returns ``None`` (or an empty ``PolicyPlan``)
    asserts it does nothing per-step, and is elided entirely.

    Attributes
    ----------
    reap_before_step:
        Reap completed eager offloads before every step (the eager
        UTP's ``before_step`` body).
    step_frees:
        step index -> tensors to discard after the step (skipping any
        with an offload copy in flight) — the liveness free lists.
    step_discards:
        step index -> tensors to discard after the step *if still
        live* — the recomputation cleanup schedule (transients and
        expired speed-centric persistents, in recorded discard order).
    step_offloads:
        step index -> checkpoint outputs whose eager D2H copy starts
        right after the step's kernel.
    step_prefetch:
        step index -> ordered ``(tensor, anchor_output | None)`` pairs
        considered by prefetch-ahead once the step's frees settle.  A
        non-None anchor marks a recompute-covered read: the *anchor* is
        fetched (if host-resident) so the segment re-run doesn't stall.
    workspace_picks:
        step index -> the recorded :class:`WorkspaceChoice` (pre
        -fallback); replay re-runs the scratch allocation and its
        fragmentation fallback, skipping only the algorithm selection.
    active_after_steps:
        steps at which the policy's ``after_step`` must still be
        dispatched during replay (used by recomputation, whose cleanup
        only has work where transients/persistents exist).  ``None``
        means never.
    keep_hooks:
        schedulable hooks this policy must KEEP receiving during replay
        even though it is plan-stable — the cache-mode UTP compiles its
        step schedule but its tensor hooks maintain the LRU order and
        hit/miss counters, which only exist by observing every event.
    """

    key: str = ""
    reap_before_step: bool = False
    step_frees: Mapping[int, Tuple[Tensor, ...]] = field(default_factory=dict)
    step_discards: Mapping[int, Tuple[Tensor, ...]] = field(default_factory=dict)
    step_offloads: Mapping[int, Tuple[Tensor, ...]] = field(default_factory=dict)
    step_prefetch: Mapping[int, Tuple[Tuple[Tensor, Optional[Tensor]], ...]] = \
        field(default_factory=dict)
    workspace_picks: Mapping[int, WorkspaceChoice] = field(default_factory=dict)
    active_after_steps: Optional[FrozenSet[int]] = None
    keep_hooks: Tuple[str, ...] = ()


class StepConstants:
    """The executor-independent part of one step: what it reads and
    writes, its labels and modeled duration, its phase.  Derived once
    per compiled mode (:func:`step_constants`) and shared by every
    executor that links the mode's plan."""

    __slots__ = (
        "step", "layer", "is_forward", "is_data", "trace_label",
        "phase_value", "submit_label", "duration", "reads", "output",
        "has_running_stats", "has_grad_in", "grad_targets", "param_grads",
    )

    def __init__(self, step: Step, model, route) -> None:
        layer = step.layer
        self.step = step
        self.layer = layer
        self.is_forward = step.phase is Phase.FORWARD
        self.is_data = isinstance(layer, DataLayer)
        self.phase_value = step.phase.value
        self.trace_label = f"{layer.name}:{step.phase.value[0]}"
        if self.is_forward:
            self.submit_label = f"{FW}:{layer.name}"
            self.duration = layer.sim_time_forward(model)
            self.reads = tuple(route.forward_reads(layer))
            self.output = layer.output
            self.has_running_stats = hasattr(layer, "update_running_stats")
            self.has_grad_in = False
            self.grad_targets = ()
            self.param_grads = ()
        else:
            self.submit_label = f"{BW}:{layer.name}"
            self.duration = 0.0 if self.is_data \
                else layer.sim_time_backward(model)
            self.reads = tuple(route.backward_reads(layer))
            self.output = layer.output
            self.has_running_stats = False
            self.has_grad_in = bool(layer.next)
            self.grad_targets = tuple(
                p for p in layer.prev if not isinstance(p, DataLayer))
            self.param_grads = tuple(layer.param_grads)


def step_constants(route, model) -> Tuple[StepConstants, ...]:
    """Every route step's constants under one device model."""
    return tuple(StepConstants(step, model, route) for step in route.steps)


class CompiledStep(StepConstants):
    """Everything the step loop needs for one step: the shared
    constants, copied flat (the loop reads them per step), plus this
    executor's hook-site closures."""

    __slots__ = ("before_ops", "compute_ops", "after_ops", "settled_ops")

    def __init__(self, k: StepConstants) -> None:
        # spelled out: a getattr/setattr loop over the slots costs 3x
        self.step = k.step
        self.layer = k.layer
        self.is_forward = k.is_forward
        self.is_data = k.is_data
        self.trace_label = k.trace_label
        self.phase_value = k.phase_value
        self.submit_label = k.submit_label
        self.duration = k.duration
        self.reads = k.reads
        self.output = k.output
        self.has_running_stats = k.has_running_stats
        self.has_grad_in = k.has_grad_in
        self.grad_targets = k.grad_targets
        self.param_grads = k.param_grads
        self.before_ops: Tuple[StepOp, ...] = ()
        self.compute_ops: Tuple[StepOp, ...] = ()
        self.after_ops: Tuple[StepOp, ...] = ()
        self.settled_ops: Tuple[StepOp, ...] = ()


@dataclass
class IterationPlan:
    """The merged, executor-ready schedule for one full iteration."""

    steps: List[CompiledStep]
    stable_keys: Tuple[str, ...]
    # id(policy) -> its contribution, for every plan-stable policy
    # (None = stable with nothing per-step).  The executor derives the
    # replay dispatch tables from this.
    policy_plans: Dict[int, Optional[PolicyPlan]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        elided = sum(
            1 for cs in self.steps
            for ops in (cs.before_ops, cs.compute_ops,
                        cs.after_ops, cs.settled_ops)
            if not ops
        )
        return (f"IterationPlan({len(self.steps)} steps, "
                f"stable={list(self.stable_keys)}, "
                f"{elided} empty hook sites elided)")


# --------------------------------------------------------------------------- #
# closure builders (each reproduces one policy-hook body, prebound)
# --------------------------------------------------------------------------- #

def _make_reap_op(ex) -> StepOp:
    reap = ex._reap_offloads

    def op(ctx, step):
        reap()
    return op


def _make_frees_op(ex, frees: Tuple[Tensor, ...]) -> StepOp:
    discard = ex._discard

    def op(ctx, step):
        for t in frees:
            pending = ex._pending
            if pending and any(p.tensor is t for p in pending):
                continue  # eager offload in flight; reap handles it
            discard(t)
    return op


def _make_discards_op(ex, tensors: Tuple[Tensor, ...]) -> StepOp:
    discard = ex._discard
    state = ex.state

    def op(ctx, step):
        for t in tensors:
            if state.is_live(t):
                discard(t)
    return op


def _make_offload_op(ex, outputs: Tuple[Tensor, ...]) -> StepOp:
    offload = ex._offload_async

    def op(ctx, step):
        after = [ctx.last_compute_event] if ctx.last_compute_event else None
        for t in outputs:
            offload(t, after=after)
    return op


def _make_prefetch_op(
    ex, entries: Tuple[Tuple[Tensor, Optional[Tensor]], ...]
) -> StepOp:
    prefetch = ex._prefetch_async
    state = ex.state  # session-local: the guards read THIS session's view

    def op(ctx, step):
        for t, anchor in entries:
            if state.on_host(t):
                prefetch(t)
            elif anchor is not None and not state.is_live(t) \
                    and state.on_host(anchor):
                prefetch(anchor)
    return op


def _make_workspace_op(ex, policy, step: Step, pick: WorkspaceChoice) -> StepOp:
    """Replay one conv execution's recorded algorithm pick.

    Selection is skipped; the scratch reservation and its fragmentation
    fallback re-run live, exactly as the fresh hook body does."""
    layer = step.layer
    model = ex.model
    phase = pick.phase
    algo, best = pick.algo, pick.max_speed_algo
    zero_algo = layer.algorithms(model)[0]
    if phase == "forward":
        dur_pick = layer.sim_time_forward(model, algo)
        dur_zero = layer.sim_time_forward(model, zero_algo)
    else:
        dur_pick = layer.sim_time_backward(model, algo)
        dur_zero = layer.sim_time_backward(model, zero_algo)
    tag = f"ws:{layer.name}"
    name = layer.name
    ws_bytes = algo.workspace_bytes

    def op(ctx, step):
        selector = policy.selector
        choice = WorkspaceChoice(name, phase, algo, ctx.free_bytes, best)
        selector.record(choice)
        duration = dur_pick
        if ws_bytes > 0 and ctx.alloc_scratch(ws_bytes, tag=tag) is None:
            # fragmentation: fall back to the zero-workspace algo
            choice = WorkspaceChoice(name, phase, zero_algo,
                                     ctx.free_bytes, best)
            selector.replace_last(choice)
            duration = dur_zero
        ctx.set_duration(duration)
        ctx.set_workspace(choice)
    return op


# --------------------------------------------------------------------------- #
# plan compilation: gather (shareable) + link (per-executor closures)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class GatheredPolicy:
    """One stack position's compilation outcome, executor-independent.

    The tuple of these — aligned with the resolved policy stack — is
    what a compile-once :class:`~repro.core.engine.Engine` shares across
    sessions: it references tensors of the shared net and frozen
    decisions, never a particular executor's substrate.  Linking it
    against another executor (same config → same stack keys) rebuilds
    the closure-bound :class:`IterationPlan` without re-planning.
    """

    key: str
    stable: bool
    plan: Optional[PolicyPlan]


def gather_policy_plans(ex) -> Tuple["GatheredPolicy", ...]:
    """Freeze every stack position's decisions after a fresh iteration.

    Must run after at least one fresh (recording) iteration, so that
    policies whose plans are observed rather than derived (workspace
    picks, recompute activity) have something to freeze.
    """
    ctx = ex._ctx
    out: List[GatheredPolicy] = []
    for p in ex.policies:
        if p.is_plan_stable(ctx):
            out.append(GatheredPolicy(p.key, True, p.compile_plan(ctx)))
        else:
            out.append(GatheredPolicy(p.key, False, None))
    return tuple(out)


def link_iteration_plan(ex, gathered: Tuple["GatheredPolicy", ...]
                        ) -> IterationPlan:
    """Bind gathered policy plans to ``ex``'s substrate as closures.

    ``gathered`` may come from this executor's own recording iteration
    or from an engine's scout executor — the stacks must resolve to the
    same keys in the same order (guaranteed when both come from the
    same config), and dynamic policies dispatch to *this* executor's
    instances.
    """
    keys = [p.key for p in ex.policies]
    if keys != [g.key for g in gathered]:
        raise ValueError(
            f"policy stack {keys} does not match the compiled plan's "
            f"stack {[g.key for g in gathered]}"
        )
    overrides = ex._overrides  # one override-detection rule, one place
    pairs = list(zip(ex.policies, gathered))
    contributions: Dict[int, Optional[PolicyPlan]] = {
        id(p): g.plan for p, g in pairs if g.stable
    }
    stable_keys = [g.key for g in gathered if g.stable]
    reap_op = _make_reap_op(ex)

    steps: List[CompiledStep] = []
    for k in ex.step_constants():
        cs = CompiledStep(k)
        step = k.step
        i = step.index
        before: List[StepOp] = []
        compute: List[StepOp] = []
        after: List[StepOp] = []
        settled: List[StepOp] = []
        for p, g in pairs:
            if not g.stable:
                # dynamic policy: bound methods, original stack position
                if overrides(p, "before_step"):
                    before.append(p.before_step)
                if overrides(p, "before_compute"):
                    compute.append(p.before_compute)
                if overrides(p, "after_step"):
                    after.append(p.after_step)
                if overrides(p, "on_step_settled"):
                    settled.append(p.on_step_settled)
                continue
            pp = g.plan
            if pp is None:
                continue  # stable, nothing per-step: elided entirely
            if pp.reap_before_step:
                before.append(reap_op)
            offloads = pp.step_offloads.get(i)
            if offloads:
                after.append(_make_offload_op(ex, offloads))
            frees = pp.step_frees.get(i)
            if frees:
                after.append(_make_frees_op(ex, frees))
            discards = pp.step_discards.get(i)
            if discards:
                after.append(_make_discards_op(ex, discards))
            if pp.active_after_steps is not None \
                    and i in pp.active_after_steps:
                after.append(p.after_step)
            prefetch = pp.step_prefetch.get(i)
            if prefetch:
                settled.append(_make_prefetch_op(ex, prefetch))
            pick = pp.workspace_picks.get(i)
            if pick is not None:
                compute.append(_make_workspace_op(ex, p, step, pick))
            # step hooks the stable policy explicitly kept live ride in
            # their stack position, after its compiled actions
            for hook, bucket in (("before_step", before),
                                 ("before_compute", compute),
                                 ("after_step", after),
                                 ("on_step_settled", settled)):
                if hook in pp.keep_hooks and overrides(p, hook):
                    bucket.append(getattr(p, hook))
        cs.before_ops = tuple(before)
        cs.compute_ops = tuple(compute)
        cs.after_ops = tuple(after)
        cs.settled_ops = tuple(settled)
        steps.append(cs)
    return IterationPlan(steps=steps, stable_keys=tuple(stable_keys),
                         policy_plans=contributions)
