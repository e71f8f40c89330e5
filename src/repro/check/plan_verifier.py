"""Plan verifier: prove a compiled schedule memory-safe *before* a
session runs it.

A compiled :class:`~repro.core.engine.CompiledMode` is a promise: the
executor will replay the frozen liveness frees, eager offload/prefetch
schedule, recompute discards, and workspace picks identically on every
steady-state iteration.  A buggy policy therefore cannot crash
"sometimes" — it emits a plan that is *deterministically* wrong, so one
run of the plan shows every defect it has.  This module runs it: one
simulated iteration of the compiled mode in the real executor
(:func:`~repro.check.replay.replay_executor`), with the placement state
machine armed and a read-only probe riding the policy stack as one more
dynamic position.  The probe reads signals the executor already has
and proves:

* **PLAN001 use-after-free** — every tensor a kernel reads is live
  (GPU- or host-resident, or re-derivable by a backward recompute) when
  its step begins; a liveness free list or recompute discard that
  retires a tensor before its last consumer is caught here, not by a
  crash.
* **PLAN002 missing-prefetch** — no read finds its tensor host-resident
  with no H2D arrival in flight.  The runtime survives with a
  synchronous fetch, but the stall breaks the paper's overlap claim —
  the verifier treats it as a plan bug.  Under a capacity tight enough
  that the tensor cache evicts, a prefetch that finds no room shows up
  here too: the stall is just as real.
* **PLAN003 lock-imbalance** — no tensor but a parameter is still
  locked (Alg. 2 ``T.Lock``) at the iteration barrier, where a leaked
  lock would make it forever unevictable.
* **PLAN004 unrecoverable-recompute** — every discarded recompute-
  covered tensor a backward step demands can be rebuilt: its segment's
  anchor checkpoint is still live.
* **PLAN005 capacity-overflow** — the replay fits the configured DRAM
  capacity: an ``OutOfMemoryError`` it raises is the finding.  The
  tensor cache's pressure eviction runs for real, so a cache-mode plan
  fails only when eviction cannot make room either.
* **PLAN006 double-free** — no schedule frees a tensor twice or offloads
  one that has no GPU copy (freeing a never-materialized tensor is the
  documented no-op edge and stays legal, as in ``ALLOWED_TRANSITIONS``).

PLAN001 and PLAN004 stop the replay — the executor cannot run a kernel
whose operand is gone.  Any other exception the replay raises is a bug
in the runtime or the checker, never a finding, and propagates.
Verification touches no payload or parameter value: the replay is
simulated whatever the engine's config says.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.check.diagnostics import CheckReport, Diagnostic
from repro.check.replay import replay_executor
from repro.core.config import RuntimeConfig
from repro.core.policy import MemoryPolicy, StepContext
from repro.device.gpu import OutOfMemoryError
from repro.graph.route import Phase, Step
from repro.layers.data import DataLayer
from repro.tensors.tensor import Placement, Tensor, TensorKind

MiB = 1024 * 1024


class PlanVerificationError(RuntimeError):
    """A compiled plan failed verification (``Engine`` with
    ``verify_plans`` armed raises this instead of caching the mode)."""

    def __init__(self, report: CheckReport):
        self.report = report
        errs = report.errors
        head = "; ".join(d.render() for d in errs[:3])
        more = f" (+{len(errs) - 3} more)" if len(errs) > 3 else ""
        super().__init__(f"compiled plan failed verification: {head}{more}")


class _Halt(Exception):
    """The replay cannot run past a finding (an operand is gone)."""


class _PlanProbe(MemoryPolicy):
    """Read-only observer of one replay; records PLAN diagnostics.

    Keyless: it is no registry strategy, so no config can arm it and
    LINT002 does not apply.
    """

    def __init__(self, target: str) -> None:
        self.target = target
        self.diags: List[Diagnostic] = []
        self._ctx: Optional[StepContext] = None
        self._at_barrier = False

    def bind(self, ctx: StepContext) -> None:
        self._ctx = ctx

    def emit(self, rule: str, message: str,
             t: Optional[Tensor] = None) -> None:
        step = None if self._at_barrier else self._ctx.step
        self.diags.append(Diagnostic(
            rule=rule, message=message, target=self.target,
            step=step.index if step is not None else None,
            op=f"{step.layer.name}:{step.phase.value[0]}"
            if step is not None else None,
            tensor=t.name if t is not None else None,
        ))

    # -- PLAN001/002/004: the step's reads, before they are made resident
    def before_step(self, ctx: StepContext, step: Step) -> None:
        layer = step.layer
        if step.phase is Phase.FORWARD:
            reads = ctx.route.forward_reads(layer)
        elif isinstance(layer, DataLayer):
            return  # the executor skips the data layer's backward
        else:
            reads = ctx.route.backward_reads(layer)
        state = ctx.state
        halt = False
        for t in reads:
            p = state.placement(t)
            if p is Placement.GPU or t.kind is TensorKind.PARAM:
                continue
            if p is Placement.HOST:
                self.emit("PLAN002",
                          f"tensor {t.name!r} is host-resident at its "
                          f"consumer with no prefetch in flight; step "
                          f"{step.index}'s kernel stalls on a "
                          f"synchronous fetch", t)
                continue
            anchor = self._anchor(ctx, step, t)
            if anchor is None:
                self.emit("PLAN001",
                          f"tensor {t.name!r} is {p.value} when step "
                          f"{step.index} reads it — freed before its "
                          f"last consumer", t)
                halt = True
            elif not state.is_live(anchor):
                self.emit("PLAN004",
                          f"tensor {t.name!r} was discarded for "
                          f"recomputation but its segment anchor "
                          f"{anchor.name!r} is "
                          f"{state.placement(anchor).value} at the "
                          f"demanding step — the segment cannot be "
                          f"re-run", t)
                halt = True
        if halt:
            raise _Halt

    @staticmethod
    def _anchor(ctx: StepContext, step: Step, t: Tensor
                ) -> Optional[Tensor]:
        """The checkpoint a backward recompute rebuilds ``t`` from."""
        if step.phase is not Phase.BACKWARD \
                or t.tensor_id not in ctx.plan.recompute_covered:
            return None
        producer = ctx.net.layers[t.producer]
        return ctx.recompute_plan.anchor_output_of(producer.layer_id)

    # -- PLAN006: the placement a discard finds
    def on_tensor_dead(self, ctx: StepContext, t: Tensor) -> None:
        state = ctx.state
        p = state.placement(t)
        if state.host_resident(t) and not state.is_live(t):
            self.emit("PLAN006",
                      f"tensor {t.name!r} has a host copy but is "
                      f"{p.value}: an offload was scheduled for it "
                      f"while it had no GPU copy", t)
        elif p is Placement.FREED:
            self.emit("PLAN006",
                      f"tensor {t.name!r} freed twice (already freed "
                      f"when this free runs)", t)

    # -- PLAN003: locks left at the barrier
    def on_iteration_end(self, ctx: StepContext) -> None:
        self._at_barrier = True
        layers = ctx.net.layers
        params = {p.tensor_id for l in layers for p in l.params}
        leaked = ctx.state.locked_ids() - params
        if not leaked:
            return
        for t in (t for l in layers
                  for t in (l.output, l.grad_output, *l.param_grads)):
            if t is not None and t.tensor_id in leaked:
                self.emit("PLAN003",
                          f"tensor {t.name!r} still holds its lock at "
                          f"the iteration barrier — it could never be "
                          f"evicted again", t)


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #

def verify_compiled_mode(net, compiled, config: RuntimeConfig,
                         target: Optional[str] = None) -> List[Diagnostic]:
    """Replay one compiled mode once; returns its diagnostics.

    ``config`` must be the *effective* mode config
    (``RuntimeConfig.for_mode``), the one whose policy stack produced
    ``compiled.gathered``.
    """
    probe = _PlanProbe(target or f"{net.name}/{compiled.mode}")
    try:
        with replay_executor(net, compiled, config, probe=probe) as ex:
            ex.run_iteration(0)
    except _Halt:
        pass
    except OutOfMemoryError as exc:
        probe.emit("PLAN005",
                   f"a {exc.requested / MiB:.1f} MiB allocation finds "
                   f"{exc.free / MiB:.1f} MiB free of the configured "
                   f"DRAM capacity {exc.capacity / MiB:.1f} MiB and no "
                   f"policy can make room — the plan does not fit")
    return probe.diags


def verify_engine(engine, modes: Sequence[str] = ("train", "infer"),
                  ) -> CheckReport:
    """Verify every requested mode of an engine (compiling on demand).

    The report's ``checked`` list records each ``net/mode`` pair so an
    empty diagnostics list still proves coverage.
    """
    report = CheckReport(tool="plan-verifier")
    for mode in modes:
        cm = engine.compiled(mode)
        eff = engine.config.for_mode(mode)
        target = f"{engine.net.name}/{mode}"
        report.checked.append(target)
        report.extend(verify_compiled_mode(engine.net, cm, eff,
                                           target=target))
    return report
