"""Fluent top-level API: build a policy stack, run iterations.

A :class:`Session` is the recommended entry point for new code::

    from repro import Session

    results = (Session(net)
               .with_policy("offload", cache="lru")
               .with_policy("recompute", strategy="cost_aware")
               .run(iters=3))

``with_policy`` maps options onto the underlying
:class:`~repro.core.config.RuntimeConfig` through the registered
policy's ``configure`` classmethod, so the config object stays the
single source of truth and ``Session`` is provably equivalent to the
legacy ``Executor(net, config)`` constructor — the equivalence tests
assert identical ``IterationResult.to_dict()`` output for both paths.

Custom :class:`~repro.core.policy.MemoryPolicy` *instances* can be
appended with ``with_policy(my_policy)``; they ride at the end of the
resolved stack, observing every hook without any executor edits.

A standalone session builds its :class:`~repro.core.runtime.Executor`
directly over a private copy of its config: the executor records its
first iteration and replays from the second.
``engine.session(mode=...)`` workers share one compile-once
:class:`~repro.core.engine.Engine`'s plans and replay them from
iteration 0; ``Session.compile()`` freezes a standalone session's
net+config into such an engine.  ``mode="infer"`` selects the
forward-only serving loop on either path.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

from repro.core.config import RuntimeConfig
from repro.core.policy import (
    POLICY_REGISTRY,
    MemoryPolicy,
    resolve_policies,
)
from repro.core.runtime import Executor, IterationResult
from repro.graph.network import Net


class Session:
    """Fluent builder + context manager around the policy-driven runtime.

    The builder is lazy: the :class:`~repro.core.runtime.Executor` (and
    its device substrate) is constructed on first use, so every
    ``with_*`` call before that is free.  After the first ``run`` the
    stack is frozen — configuring a built session raises.  A standalone
    session's executor is ``Executor(net, copy_of_config,
    policies=resolved_stack + custom_instances, mode=mode)``.  Sessions
    spawned from an :class:`~repro.core.engine.Engine` are frozen from
    birth: their config belongs to the engine and is shared by every
    sibling session.
    """

    def __init__(self, net: Optional[Net] = None,
                 config: Optional[RuntimeConfig] = None,
                 *, mode: str = "train", engine=None):
        if engine is not None:
            if net is not None or config is not None:
                raise TypeError(
                    "an engine-bound session takes its net and config "
                    "from the engine; pass only mode")
            self._net = engine.net
            self._config = engine.config
        else:
            if net is None:
                raise TypeError("Session needs a net (or an engine)")
            self._net = net
            self._config = config if config is not None else RuntimeConfig()
        self._config.for_mode(mode)  # validate early
        self._mode = mode
        self._engine = engine
        # engine-bound workers share a compiled engine's frozen config;
        # standalone sessions get a private engine only from compile()
        self._engine_bound = engine is not None
        self._extra_policies: List[MemoryPolicy] = []
        self._executor: Optional[Executor] = None
        self._max_history: Optional[int] = None
        self.results: List[IterationResult] = []

    # ------------------------------------------------------------- building
    @classmethod
    def from_framework(cls, net: Net, name: str, **overrides) -> "Session":
        """Start from one of the framework policy models (``"caffe"``,
        ``"torch"``, ``"mxnet"``, ``"tensorflow"``, ``"superneurons"``)."""
        from repro.frameworks.models import framework_config
        return cls(net, framework_config(name, **overrides))

    def _require_unbuilt(self, what: str) -> None:
        if self._engine_bound:
            raise RuntimeError(
                f"cannot {what}: this session shares a compiled engine's "
                "config; configure the config before compiling the engine"
            )
        if self._executor is not None:
            raise RuntimeError(
                f"cannot {what}: the session is already built; "
                "configure before the first run"
            )
        if self._engine is not None:
            raise RuntimeError(
                f"cannot {what}: compile() froze this session's config "
                "into an engine; configure before compiling"
            )

    def with_policy(self, policy: Union[str, MemoryPolicy],
                    **options) -> "Session":
        """Arm a registered policy by name (options map onto the config),
        or append a custom :class:`MemoryPolicy` instance to the stack."""
        self._require_unbuilt("add a policy")
        if isinstance(policy, MemoryPolicy):
            key, backward_only = policy.key, policy.backward_only
        else:
            key = policy
            cls = POLICY_REGISTRY.get(policy)
            backward_only = cls is not None and cls.backward_only
        if self._mode == "infer" and backward_only:
            # for_mode("infer") disarms the config-armed form, and an
            # instance would schedule offloads/recomputes for backward
            # reads that never come — fail loudly either way
            raise TypeError(
                f"policy {key!r} bridges the forward->backward gap "
                "and is disarmed in infer mode; arm it on a train-mode "
                "session")
        if isinstance(policy, MemoryPolicy):
            if options:
                raise TypeError(
                    "options are only valid with a registry name")
            self._extra_policies.append(policy)
            return self
        try:
            cls = POLICY_REGISTRY[policy]
        except KeyError:
            raise KeyError(
                f"unknown policy {policy!r}; registered: "
                f"{sorted(POLICY_REGISTRY)}"
            ) from None
        cls.configure(self._config, **options)
        return self

    def without_policy(self, name: str) -> "Session":
        """Disarm a registered policy by name.

        Driven by the same :data:`POLICY_REGISTRY` as ``with_policy``,
        so the accepted names (and the error message's listing) can
        never drift from the armable set; each policy's ``disarm``
        classmethod undoes everything its ``configure`` arms — e.g.
        disarming ``"offload"`` also disarms its tensor cache.
        """
        self._require_unbuilt("remove a policy")
        try:
            cls = POLICY_REGISTRY[name]
        except KeyError:
            raise KeyError(
                f"unknown policy {name!r}; registered: "
                f"{sorted(POLICY_REGISTRY)}"
            ) from None
        cls.disarm(self._config)
        return self

    def with_config(self, **fields) -> "Session":
        """Set substrate knobs (``concrete``, ``gpu_capacity``, ...)."""
        self._require_unbuilt("change the config")
        valid = {f.name for f in dataclasses.fields(self._config)}
        for k, v in fields.items():
            if k not in valid:
                raise TypeError(f"RuntimeConfig has no field {k!r}")
            setattr(self._config, k, v)
        return self

    def with_replay(self, enabled: bool = True) -> "Session":
        """Opt in/out of steady-state iteration replay.

        Replay is on by default: after the first iteration the compiled
        :class:`~repro.core.plan.IterationPlan` is replayed with no
        hook dispatch for plan-stable policies (bit-identical results).
        ``with_replay(False)`` forces every iteration down the fresh
        planning path — useful for A/B benchmarks and for custom
        policies whose behavior must be observed every step.
        """
        self._require_unbuilt("change replay mode")
        self._config.steady_state_replay = enabled
        return self

    def with_history(self, max_results: Optional[int]) -> "Session":
        """Cap ``self.results`` to the most recent ``max_results``
        entries (None = unbounded).  Million-iteration runs keep steady
        memory: each IterationResult holds per-step traces."""
        if max_results is not None and max_results < 0:
            raise ValueError("max_results must be >= 0 or None")
        self._max_history = max_results
        return self

    # ---------------------------------------------------------- engine facade
    def compile(self, *modes: str):
        """Freeze this session's net+config into a compiled
        :class:`~repro.core.engine.Engine`.

        Compiles the given modes eagerly (default: this session's
        mode); spawn sharing sessions with ``engine.session(mode=...)``.
        Custom policy *instances* are per-session state and cannot be
        compiled into a shared engine.
        """
        if self._extra_policies:
            raise TypeError(
                "custom policy instances are per-session and cannot be "
                "compiled into a shared engine; use registry names")
        if self._engine is None:
            from repro.core.engine import Engine  # lazy: avoid cycle
            self._engine = Engine(self._net, self._config)
        for mode in (modes or (self._mode,)):
            self._engine.compiled(mode)
        return self._engine

    # ------------------------------------------------------------ inspection
    @property
    def config(self) -> RuntimeConfig:
        return self._config

    @property
    def mode(self) -> str:
        """The execution mode this session runs (``train`` / ``infer``)."""
        return self._mode

    @property
    def engine(self):
        """The engine this session runs over: the shared one when
        spawned from ``engine.session(...)``; for a standalone session,
        the private engine :meth:`compile` returns (None until
        ``compile()``)."""
        return self._engine

    @property
    def executor(self) -> Executor:
        """The lazily built executor (building it freezes the config).

        Engine-bound workers link the shared compiled plan and replay
        from iteration 0; standalone sessions build a recording
        executor over a private copy of the config.
        """
        if self._executor is None:
            if self._engine_bound:
                self._executor = self._engine.executor(self._mode)
            else:
                # private copy: caller-side edits of the config after
                # the build must not reach the executor
                self._executor = Executor(
                    self._net, dataclasses.replace(self._config),
                    policies=self._resolved_stack(), mode=self._mode)
        return self._executor

    def _resolved_stack(self) -> List[MemoryPolicy]:
        if self._executor is not None:
            return list(self._executor.policies)
        return resolve_policies(self._config.for_mode(self._mode)) + \
            self._extra_policies

    def policy_names(self) -> List[str]:
        """Registry keys of the stack this session resolves to."""
        return [p.key for p in self._resolved_stack()]

    def describe(self) -> str:
        """Human-readable summary of the resolved policy stack."""
        return " -> ".join(p.describe() for p in self._resolved_stack())

    # -------------------------------------------------------------- running
    def run_iteration(self, iteration: int = 0, optimizer=None,
                      feed=None, capture_output: bool = False
                      ) -> IterationResult:
        res = self.executor.run_iteration(iteration, optimizer=optimizer,
                                          feed=feed,
                                          capture_output=capture_output)
        self.results.append(res)
        if self._max_history is not None \
                and len(self.results) > self._max_history:
            del self.results[:len(self.results) - self._max_history]
        return res

    def infer_batch(self, data, iteration: int = 0):
        """Run one iteration over a caller-assembled input batch and
        return the terminal layer's output (None in simulated mode —
        descriptor-only runs hold no payloads).  ``data`` must match
        the compiled input shape; :mod:`repro.serve` pads/coalesces
        variable-sized requests into exactly this shape."""
        return self.run_iteration(iteration, feed=data,
                                  capture_output=True).output

    def run(self, iters: int = 1, optimizer=None,
            start_iteration: int = 0) -> List[IterationResult]:
        """Run ``iters`` iterations; returns their results."""
        return [
            self.run_iteration(i, optimizer=optimizer)
            for i in range(start_iteration, start_iteration + iters)
        ]

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
