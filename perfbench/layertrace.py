"""Per-layer host-cost tracing from outside the program.

:class:`LayerTracer` replaces public methods of the runtime's layer
classes with thin wrappers that time each call.  Every thread keeps its
own stack of open calls, so a wrapped call's *self* time (its duration
minus the wrapped calls it made) is exact on the serving worker threads
too.  Nothing under ``src/`` is edited: the wrappers are class
attributes, installed before any engine is built (so code that binds a
method at build time binds the wrapper) and removed by
:meth:`LayerTracer.uninstall`.

A layer key accumulates ``[calls, self_seconds]``.  Counted-only keys
(``SessionTensorState.locked``, called hundreds of thousands of times
per iteration) record calls and leave their time to the caller.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Tuple

#: (module, class, method, layer key, timed?)
TARGETS: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.mempool.allocator", "Allocator", "alloc", "mempool.alloc", True),
    ("repro.mempool.allocator", "Allocator", "free", "mempool.free", True),
    ("repro.mempool.heap_pool", "HeapPool", "alloc", "mempool.heap_alloc",
     True),
    ("repro.mempool.heap_pool", "HeapPool", "free", "mempool.heap_free",
     True),
    ("repro.device.timeline", "Timeline", "submit",
     "device.timeline.submit", True),
    ("repro.device.timeline", "Timeline", "tick_compute",
     "device.timeline.tick_compute", True),
    ("repro.device.dma", "DMAEngine", "copy_async", "device.dma.copy", True),
    ("repro.core.cache", "TensorCache", "evict_for", "core.cache.evict_for",
     True),
    ("repro.core.tensor_state", "SessionTensorState", "locked",
     "core.tensor_state.locked", False),
    ("repro.core.tensor_state", "SessionTensorState", "set_placement",
     "core.tensor_state.transition", True),
    ("repro.core.tensor_state", "SessionTensorState", "set_host_resident",
     "core.tensor_state.transition", True),
    ("repro.core.tensor_state", "SessionTensorState", "lock",
     "core.tensor_state.transition", True),
    ("repro.core.tensor_state", "SessionTensorState", "unlock",
     "core.tensor_state.transition", True),
    ("repro.core.runtime", "Executor", "run_iteration",
     "core.runtime.run_iteration", True),
    ("repro.serve.fleet", "ServingFleet", "submit", "serve.fleet.submit",
     True),
    ("repro.serve.server", "InferenceServer", "try_submit",
     "serve.server.try_submit", True),
    ("repro.serve.router", "Router", "route", "serve.router.route", True),
    ("repro.serve.queue", "RequestQueue", "submit", "serve.queue.submit",
     True),
    ("repro.serve.batcher", "DynamicBatcher", "next_batch",
     "serve.batcher.next_batch", True),
)

#: keys whose self time belongs to the training-side iteration (the
#: attribution sum of a train/infer loop adds these up)
ITERATION_KEYS = tuple(sorted({t[3] for t in TARGETS
                               if t[3].split(".")[0] in
                               ("mempool", "device", "core")}))


class _ThreadState:
    __slots__ = ("stack", "acc")

    def __init__(self, keys) -> None:
        self.stack: List[float] = []
        self.acc: Dict[str, List[float]] = {k: [0, 0.0] for k in keys}


class LayerTracer:
    """Install/uninstall the wrappers; snapshot per-layer totals."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._threads: List[_ThreadState] = []
        self._register = threading.Lock()
        self._saved: List[Tuple[type, str, object]] = []
        self.keys = tuple(dict.fromkeys(t[3] for t in TARGETS))

    def _state(self) -> _ThreadState:
        st = _ThreadState(self.keys)
        self._tls.state = st
        with self._register:
            self._threads.append(st)
        return st

    def _timed(self, fn, key: str):
        tls, new_state, perf = self._tls, self._state, time.perf_counter

        def wrapper(*args, **kwargs):
            try:
                st = tls.state
            except AttributeError:
                st = new_state()
            stack = st.stack
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                rec = st.acc[key]
                rec[0] += 1
                rec[1] += dur - child
        return wrapper

    def _counted(self, fn, key: str):
        tls, new_state = self._tls, self._state

        def wrapper(*args):
            try:
                st = tls.state
            except AttributeError:
                st = new_state()
            st.acc[key][0] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        import importlib
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, cls_name, meth, key, timed in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            wrap = self._timed if timed else self._counted
            setattr(cls, meth, wrap(fn, key))

    def uninstall(self) -> None:
        for cls, meth, fn in reversed(self._saved):
            setattr(cls, meth, fn)
        self._saved.clear()

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """``key -> (calls, self_seconds)`` summed over every thread.

        Read at phase boundaries, when the threads that write a key are
        idle, so the per-thread sums are settled."""
        with self._register:
            states = list(self._threads)
        out = {k: [0, 0.0] for k in self.keys}
        for st in states:
            for k, (calls, secs) in st.acc.items():
                out[k][0] += calls
                out[k][1] += secs
        return {k: (int(c), s) for k, (c, s) in out.items()}


def delta(after: Dict[str, Tuple[int, float]],
          before: Dict[str, Tuple[int, float]]
          ) -> Dict[str, Tuple[int, float]]:
    """Per-key difference of two snapshots (one phase's share)."""
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
            for k in after}
