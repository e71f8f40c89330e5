"""The check replay: one throwaway simulated iteration of a compiled mode.

The plan verifier and the cost model both check a
:class:`~repro.core.engine.CompiledMode` by running it — in the same
:class:`~repro.core.runtime.Executor` a session replays it in, linked
from iteration 0, with no payload ever touched.  Because the simulated
executor is deterministic, that one iteration *is* the steady-state
iteration every session of the compiled mode would run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.config import RuntimeConfig
from repro.core.plan import GatheredPolicy
from repro.core.policy import MemoryPolicy, resolve_policies
from repro.core.runtime import Executor


def replay_executor(net, compiled, config: RuntimeConfig,
                    probe: Optional[MemoryPolicy] = None) -> Executor:
    """A simulated executor that replays ``compiled`` from iteration 0.

    ``config`` must be the *effective* mode config
    (``RuntimeConfig.for_mode``), the one whose policy stack produced
    ``compiled.gathered``.  The placement state machine is armed: a
    check must never run past an illegal transition.  ``probe`` rides
    as one more dynamic stack position after the compiled ones, so it
    receives every hook.
    """
    cfg = replace(config, concrete=False, trace=False,
                  collect_traces=False, steady_state_replay=True,
                  validate_state=True)
    policies = None
    if probe is not None:
        policies = resolve_policies(cfg.for_mode(compiled.mode)) + [probe]
        compiled = replace(compiled, gathered=compiled.gathered
                           + (GatheredPolicy(probe.key, False, None),))
    return Executor(net, cfg, policies=policies, mode=compiled.mode,
                    compiled=compiled)
