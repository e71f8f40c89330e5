"""Compile-once Engine: one planning pass, many lightweight sessions.

The paper's central observation — memory-management decisions are
deterministic per topology (§3) — already powers the steady-state
replay of :mod:`repro.core.plan`.  This module lifts the same idea to
the top-level API: *compiling* a network (route construction, liveness
analysis, recompute segmentation, policy-plan recording) and *running*
it are different lifecycles with different sharing.

:func:`compile` (also ``Engine(net, config)``) produces an immutable
compiled artifact.  Per execution mode it owns:

* the :class:`~repro.graph.route.ExecutionRoute` (2N steps for train,
  N forward-only steps for infer);
* the compiled :class:`~repro.core.liveness.LivenessPlan` and
  :class:`~repro.core.recompute.RecomputePlan`;
* the gathered per-policy :class:`~repro.core.plan.PolicyPlan`
  decisions, recorded by running one *scout* iteration in simulated
  mode (descriptor-only, so compiling a concrete engine never touches
  payloads, parameter values, or BN running statistics).

``engine.session(mode=...)`` then spawns cheap workers: each gets its
own device substrate — GPU ledger, timeline/clock, DMA engine,
allocator, tensor store — but links the shared plans into its executor
and replays them from iteration 0.  N serving sessions pay the
planning cost exactly once (``engine.compile_count`` proves it), and
the mode-independent groundwork — the Alg. 1 topological order, the
expensive graph walk of route construction — is shared even *across*
modes: compiling ``train`` and ``infer`` runs one base planning pass
plus one cheap per-mode scout each (``mode_compile_count``).

What is shared vs per-session
-----------------------------
Shared (read-only after compile): the built net topology, its tensor
*descriptors* (immutable identity: shape, bytes, name), parameter
*values* (serving replicas share weights), routes, liveness/recompute
plans, gathered policy decisions.  Per-session: the entire device
substrate, every piece of mutable tensor state — placement, locks,
host residency, prefetch arrivals — which lives in the executor's
:class:`~repro.core.tensor_state.SessionTensorState` table, policy
instances (LRU cache state, workspace selectors), iteration results,
activation payloads, and the per-iteration label/loss flow (threaded
through each session's own ``LayerContext``).

Because no executor ever mutates a descriptor, sessions are free to
run **concurrently at op granularity**: :meth:`Engine.parallel_run`
drives one thread per session and produces results bit-identical to
running the same sessions sequentially (``tests/test_parallel_sessions.py``
proves both the isolation and the equivalence).  The remaining
shared-mutable surfaces are the parameter values themselves and any
*stateful* data provider: concurrent *training* sessions with
optimizers would race on the shared weights (and concrete train
sessions on BN running statistics) — use separate engines for that;
``parallel_run`` rejects the concrete-train case.  The bundled
``synthetic_provider`` is a pure function of the iteration number and
therefore parallel-safe; custom providers must be too.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_EXCEPTION,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait as futures_wait,
)
from dataclasses import dataclass, replace
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check import instrument
from repro.check.instrument import (
    TracedLock,
    channel_recv,
    channel_send,
    trace_read,
    trace_write,
)
from repro.core.config import RuntimeConfig
from repro.core.liveness import (
    LivenessAnalysis, LivenessPlan, ModePlanning, plan_mode)
from repro.core.plan import (
    GatheredPolicy, StepConstants, gather_policy_plans)
from repro.core.recompute import RecomputePlan
from repro.core.runtime import Executor, IterationResult
from repro.device.model import DeviceModel
from repro.graph.network import Net
from repro.graph.route import ExecutionRoute, forward_order
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace

#: The execution modes an engine can compile.
MODES = ("train", "infer")


@dataclass(frozen=True)
class PlanningBase:
    """The mode-independent planning groundwork, derived once per engine.

    Both execution modes walk the same forward topology, so the Alg. 1
    DFS order — the expensive, graph-walking part of route
    construction — runs in ONE shared pass and feeds both mode
    compiles (the ROADMAP's "batched compile" item).  Per-step
    dependency lists stay derived per route from this order, so there
    is exactly one derivation path for them.
    """

    forward_layers: List  # read-only; shared by both routes


@dataclass(frozen=True)
class CompiledMode:
    """One mode's immutable planning artifacts, shared by all sessions:
    the pre-scout :class:`ModePlanning` plus the scout-gathered policy
    plans.  The delegating properties keep one artifact list — adding a
    planning field touches ``ModePlanning`` alone."""

    planning: ModePlanning
    gathered: Tuple[GatheredPolicy, ...]
    #: per-step constants (reads, labels, durations, phase) under
    #: ``device``; executors on the same device model link from these
    step_constants: Tuple[StepConstants, ...]
    device: DeviceModel

    @property
    def mode(self) -> str:
        return self.planning.mode

    @property
    def route(self) -> ExecutionRoute:
        return self.planning.route

    @property
    def recompute_plan(self) -> RecomputePlan:
        return self.planning.recompute_plan

    @property
    def liveness(self) -> LivenessAnalysis:
        return self.planning.liveness

    @property
    def liveness_plan(self) -> LivenessPlan:
        return self.planning.liveness_plan


class Engine:
    """The compiled artifact: net + resolved config + per-mode plans.

    Construction builds the net and freezes the config; the per-mode
    plans are compiled lazily on first use (or eagerly via
    :func:`compile`'s ``modes`` argument) and cached —
    :attr:`compile_count` counts the planning passes actually run.
    """

    def __init__(self, net: Net, config: Optional[RuntimeConfig] = None):
        self.net = net.build()
        # private copy: compiled plans are derived from the config, so
        # later caller-side mutation must not desync them from workers
        self.config = replace(config) if config is not None \
            else RuntimeConfig()
        #: shared base planning passes (the Alg. 1 topological order).
        #: At most 1, however many modes compile — the tests assert
        #: train+infer share one planning pass.
        self.compile_count = 0
        #: per-mode scout compiles (≤ 1 per entry of :data:`MODES`).
        self.mode_compile_count = 0
        self._base: Optional[PlanningBase] = None
        self._compiled: Dict[str, CompiledMode] = {}
        # sessions may be driven from user threads that trigger the
        # lazy compile concurrently; the lock keeps "one planning pass"
        # true under races instead of letting two threads plan twice
        self._compile_lock = TracedLock("engine.compile")
        #: bumped by :meth:`install_params`; serving metrics report it
        self.weights_version = 0

    # ------------------------------------------------------------- compiling
    def compiled(self, mode: str = "train") -> CompiledMode:
        """The (cached) compiled artifacts for one execution mode."""
        if mode not in MODES:
            raise ValueError(f"unknown execution mode {mode!r}; "
                             f"expected one of {MODES}")
        trace_read(self, f"engine.compiled[{mode}]")
        cm = self._compiled.get(mode)
        if cm is not None:  # fast path: no lock once compiled
            return cm
        with self._compile_lock:
            cm = self._compiled.get(mode)
            if cm is None:
                cm = self._compile_mode(mode)
                if self.config.verify_plans:
                    self._verify_mode(mode, cm)
                trace_write(self, f"engine.compiled[{mode}]")
                self._compiled[mode] = cm
                self.mode_compile_count += 1
        return cm

    def _verify_mode(self, mode: str, cm: CompiledMode) -> None:
        """Verify one compiled mode by replaying it once (before it is
        cached).

        Raises :class:`~repro.check.plan_verifier.PlanVerificationError`
        on any error-severity finding, so a memory-unsafe plan can never
        be replayed by a session.  The check replay is simulated, so a
        concrete engine's parameter values are never touched.  Lazy
        import: engines that never arm verification never load the
        checker.
        """
        from repro.check.diagnostics import CheckReport
        from repro.check.plan_verifier import (
            PlanVerificationError, verify_compiled_mode)
        target = f"{self.net.name}/{mode}"
        report = CheckReport(tool="plan-verifier", checked=[target])
        report.extend(verify_compiled_mode(
            self.net, cm, self.config.for_mode(mode), target=target))
        if not report.ok:
            raise PlanVerificationError(report)

    def _assert_compile_locked(self) -> None:
        """Planning-state mutation guard: helpers that write the
        engine-shared compile caches must run under ``_compile_lock``
        (the LINT003 rule accepts this assertion as proof)."""
        if not self._compile_lock.locked():
            raise RuntimeError(
                "engine planning state mutated outside _compile_lock")

    def _planning_base(self) -> PlanningBase:
        """The ONE shared planning pass (lazy; counted)."""
        self._assert_compile_locked()
        if self._base is None:
            self._base = PlanningBase(forward_layers=forward_order(self.net))
            self.compile_count += 1
        return self._base

    def _compile_mode(self, mode: str) -> CompiledMode:
        # The scout records one fresh iteration in simulated mode: the
        # allocator landscape (hence workspace picks), liveness frees,
        # offload/prefetch schedules, and recompute cleanup are
        # identical to a concrete run's, but no payload is ever touched.
        # It reuses the shared base planning (route order + forward
        # dependency scan) instead of re-deriving it per mode.
        eff = self.config.for_mode(mode)
        base = self._planning_base()
        planning = plan_mode(self.net, eff, mode,
                             forward_layers=base.forward_layers)
        scout_cfg = replace(eff, concrete=False, collect_traces=False,
                            steady_state_replay=True)
        with Executor(self.net, scout_cfg, mode=mode,
                      planning=planning) as scout:
            scout.run_iteration(0)
            return CompiledMode(planning=planning,
                                gathered=gather_policy_plans(scout),
                                step_constants=scout.step_constants(),
                                device=scout.model)

    # -------------------------------------------------------------- spawning
    def executor(self, mode: str = "train") -> Executor:
        """A fresh executor over this engine's net.

        When replay is enabled the worker links the shared compiled
        plan and replays from iteration 0; otherwise it records every
        iteration, exactly like a standalone ``Executor``.
        """
        eff = self.config.for_mode(mode)
        compiled = self.compiled(mode) if eff.steady_state_replay else None
        return Executor(self.net, self.config, mode=mode, compiled=compiled)

    def session(self, mode: str = "train"):
        """Spawn a lightweight session sharing this engine's plans."""
        from repro.core.session import Session  # lazy: avoid cycle
        return Session(engine=self, mode=mode)

    # ----------------------------------------------------------- concurrency
    def parallel_run(self, sessions: Sequence, iters: int,
                     start_iteration: int = 0,
                     timeout: Optional[float] = None
                     ) -> List[List[IterationResult]]:
        """Drive N sessions concurrently, one thread per session.

        Threads interleave at *op* granularity (wherever the
        interpreter switches them): safe because every piece of mutable
        tensor state is session-local (``SessionTensorState``), so the
        per-session result lists returned here are **bit-identical** to
        running the same sessions one after another.  That guarantee
        assumes the data layer's ``provider`` is a pure function of the
        iteration number (the default ``synthetic_provider`` is); a
        stateful provider — a dataset cursor, an impure rng — lives on
        the shared layer and would hand interleaved batches to
        concurrent sessions.

        ``sessions`` must come from this engine's :meth:`session`.
        Sim-mode train sessions may run in parallel (they never touch
        parameter values); *concrete* train sessions are rejected —
        they would race on the shared weights and BN running
        statistics.  ``timeout`` (seconds, one shared deadline covering
        every session) turns a hung session into a loud
        ``TimeoutError`` instead of a silent stall.  The hung worker
        threads are abandoned, not joined — note they are non-daemon,
        so a truly wedged session still blocks *interpreter exit*;
        pair the timeout with a process-level kill (CI
        ``timeout-minutes``, or ``os._exit`` as the stress gate does)
        when a hang must not outlive the error.

        With spans armed (:data:`repro.check.instrument.SPANS`) each
        session gets a ``session.run`` span over its per-iteration
        spans — the ``repro.cli infer --trace-out`` path.
        """
        sessions = list(sessions)
        if not sessions:
            return []
        if len({id(s) for s in sessions}) != len(sessions):
            raise ValueError(
                "parallel_run needs distinct sessions: driving one "
                "session from two threads would share its executor's "
                "session-local state")
        for s in sessions:
            if s.engine is not self:
                raise ValueError(
                    "parallel_run drives sessions of THIS engine; spawn "
                    "them with engine.session(...)")
            if s.mode == "train" and self.config.concrete:
                raise TypeError(
                    "concrete train-mode sessions share parameter values "
                    "and BN running statistics; drive them sequentially "
                    "or give each its own engine")
        # Compile + substrate construction happen serially up front:
        # the lazy compile cache is engine state, and building here
        # keeps the worker threads pure run loops over session-local
        # state (the one remaining shared write, lazy parameter-value
        # materialization, is value-deterministic either way).
        for s in sessions:
            s.executor

        # No context manager here: its shutdown(wait=True) would block
        # on a hung worker thread and swallow the very TimeoutError the
        # timeout promises.  One shared deadline covers all sessions;
        # FIRST_EXCEPTION surfaces a crashed session immediately
        # instead of hiding it behind slow (or hung) siblings; on
        # timeout the pool is abandoned (wait=False) so the error
        # propagates immediately (the CI job timeout reaps the rest).
        pool = ThreadPoolExecutor(max_workers=len(sessions),
                                  thread_name_prefix="repro-session")
        deadline = None if timeout is None else monotonic() + timeout

        # pool threads are not TracedThreads, so the submit/collect
        # hand-off records explicit channel edges: everything done here
        # (compile cache, substrate construction) happens-before the
        # worker's first step, and each worker's last step
        # happens-before the result collection below
        def _run_traced(s, token, index):
            channel_recv(token, "parallel_run.submit")
            log = instrument.SPANS
            span = None if log is None else obs_trace.root(
                log, "session.run", cat="engine",
                attrs={"session": index, "net": self.net.name,
                       "mode": s.mode, "iters": iters})
            try:
                out = s.run(iters, start_iteration=start_iteration)
            except BaseException as exc:
                if span is not None:
                    span.finish(status="error",
                                error=type(exc).__name__)
                raise
            else:
                if span is not None:
                    span.finish()
                return out
            finally:
                channel_send(f"done:{token}", "parallel_run.done")

        tokens = [f"parallel:{id(self)}:{i}" for i in range(len(sessions))]
        futures = []
        for i, (s, token) in enumerate(zip(sessions, tokens)):
            channel_send(token, "parallel_run.submit")
            futures.append(pool.submit(_run_traced, s, token, i))
        try:
            done, not_done = futures_wait(futures, timeout=timeout,
                                          return_when=FIRST_EXCEPTION)
            failed = next((f for f in done
                           if f.exception() is not None), None)
            if failed is not None and not_done:
                # a session crashed while siblings still run: let the
                # healthy ones finish so the caller's session.close()
                # cannot race their in-flight iterations — but bound
                # the drain (grace period when no deadline exists), or
                # a hung sibling would suppress the captured error
                # forever
                remaining = 60.0 if deadline is None \
                    else max(0.0, deadline - monotonic())
                futures_wait(not_done, timeout=remaining)
            if failed is not None:
                failed.result()  # re-raise the session's real error
            if not_done:
                # flight-record the hang before raising: the dump holds
                # the recent event ring + the last spans, the forensics
                # a post-mortem of a wedged session starts from
                obs_recorder.RECORDER.note(
                    "parallel_run.timeout",
                    f"{len(not_done)}/{len(futures)} sessions hung",
                    net=self.net.name, iters=iters, timeout=timeout)
                obs_recorder.RECORDER.dump("parallel-run-timeout")
                raise FuturesTimeoutError(
                    f"{len(not_done)}/{len(futures)} sessions still "
                    f"running after {timeout}s")
            for token in tokens:
                channel_recv(f"done:{token}", "parallel_run.done")
            return [f.result() for f in futures]
        finally:
            hung = any(not f.done() for f in futures)
            pool.shutdown(wait=not hung, cancel_futures=True)

    # --------------------------------------------------------------- weights
    def snapshot_params(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter value, keyed by tensor name.

        Materializes lazy initial values (a descriptor-only engine that
        never ran concrete has not paid the RNG cost yet).  The
        returned arrays are copies — mutating them cannot reach the
        live weights, so a snapshot is a safe swap payload.
        """
        out: Dict[str, np.ndarray] = {}
        for layer, p in self._params_by_name().values():
            out[p.name] = np.copy(layer.param_values[p.tensor_id])
        return out

    def _params_by_name(self) -> Dict[str, tuple]:
        """name -> (layer, param tensor), refusing ambiguous names.

        Nothing enforces unique layer names at build time, and a
        colliding name would make a full-snapshot swap silently skip
        one layer's weights — fail loudly instead.
        """
        by_name: Dict[str, tuple] = {}
        for layer in self.net.layers:
            for p in layer.params:
                if p.name in by_name:
                    raise ValueError(
                        f"parameter tensor name {p.name!r} is ambiguous "
                        "(two layers share a name); weight swap needs "
                        "unique layer names")
                by_name[p.name] = (layer, p)
        return by_name

    def install_params(self, params: Dict[str, np.ndarray]) -> int:
        """Install updated weight values into the shared parameter store.

        ``params`` maps tensor names (as :meth:`snapshot_params`
        returns them) to arrays; a partial mapping updates only the
        named tensors.  Shapes are validated against the descriptors
        before anything is written, so a bad payload cannot leave the
        net half-swapped.  Returns the number of tensors installed and
        bumps :attr:`weights_version`.

        This is the ROADMAP's hot-swap *hook*: the parameter values are
        the one store every session of this engine shares, so the
        caller must quiesce concurrent sessions first —
        :meth:`repro.serve.InferenceServer.swap_weights` wraps this in
        a step barrier so in-flight batches finish on the old weights.
        """
        by_name = self._params_by_name()
        unknown = sorted(set(params) - set(by_name))
        if unknown:
            raise KeyError(
                f"unknown parameter tensors {unknown}; known names come "
                "from engine.snapshot_params()")
        staged = []
        for name, value in params.items():
            layer, p = by_name[name]
            arr = np.ascontiguousarray(value, dtype=np.float32)
            if arr.shape != p.shape:
                raise ValueError(
                    f"parameter {name!r} expects shape {p.shape}, "
                    f"got {arr.shape}")
            staged.append((layer, p, arr))
        trace_write(self, "engine.params")
        for layer, p, arr in staged:
            layer.param_values[p.tensor_id] = arr
        # the caller quiesces sessions around the swap (see docstring);
        # the version bump is that documented barrier, not compile state
        trace_write(self, "engine.weights_version")
        self.weights_version += 1  # repro-lint: allow LINT003 swap barrier
        return len(staged)

    # ------------------------------------------------------------ inspection
    @property
    def compiled_modes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._compiled))

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """The compiled input shape (every mode shares the net's data
        layer, so the frozen batch shape is mode-independent)."""
        return self.net.data_layer.shape

    @property
    def batch_size(self) -> int:
        """Rows per compiled batch — the shape serving must pad/split
        variable-sized requests into."""
        return self.input_shape[0]

    def supports_parallel(self, mode: str = "infer") -> bool:
        """Whether :meth:`parallel_run` accepts sessions of ``mode``:
        infer sessions always (they never write shared state); train
        sessions only in simulated mode (concrete train would race on
        the shared weights and BN running statistics)."""
        if mode not in MODES:
            raise ValueError(f"unknown execution mode {mode!r}; "
                             f"expected one of {MODES}")
        return mode == "infer" or not self.config.concrete

    def describe(self) -> str:
        modes = ", ".join(
            f"{m} [{'x'.join(str(d) for d in self.input_shape)}]"
            for m in self.compiled_modes) or "none yet"
        parallel = ", ".join(m for m in MODES if self.supports_parallel(m))
        return (f"Engine({self.net.name}, {len(self.net)} layers, "
                f"batch {self.batch_size}, compiled modes: {modes}; "
                f"parallel drive: {parallel or 'none'}; "
                f"weights v{self.weights_version})")


def compile(net: Net, config: Optional[RuntimeConfig] = None,
            modes: Tuple[str, ...] = ()) -> Engine:
    """Compile a network into an :class:`Engine`.

    ``modes`` eagerly compiles the named execution modes; by default
    compilation happens lazily when the first session of a mode runs.
    ``config.verify_plans`` runs the plan verifier on every compiled
    mode and refuses to cache one that fails (see :mod:`repro.check`).
    """
    engine = Engine(net, config)
    for mode in modes:
        engine.compiled(mode)
    return engine
