"""The calibration loop every ``*_cal`` metric is divided by.

Wall time on a shared host drifts between processes: the same pure
Python work took 60% longer in one process than in the next on a
2-core x86 box.  So every ``*_cal`` metric divides a timed unit of work
by a fixed pure-Python loop timed right before it in the same thread.

The loop mimics what the runtime's host code does: a walk over a graph
of small ``__slots__`` objects in an order that defeats the caches,
with attribute reads and writes, a method call and int-keyed dict
traffic, followed by a tight loop over a small dict.  Measured against
resnet152 iterations across processes, each half alone tracked the
runtime better in some machine states and worse in others (ratio
spreads 1.3%-8%), so the loop runs both.  Its own duration is reported
as ``calib.loop_ms``, so a change in machine speed stays visible
instead of being silently divided out.
"""

from __future__ import annotations

import random
import time

#: objects in the calibration graph, and iterations of the dict loop
#: (together 7-12 ms on the box above, depending on its load)
CALIB_NODES = 12_288
CALIB_DICT_ITERS = 20_000

#: calibrated samples (rounds, flood windows) a phase takes however
#: slow the host, so a median always exists
MIN_SAMPLES = 5

#: the calibration loop's duration on the reference host (2-core x86
#: VM, CPython 3.11): ``setup_s`` is reported in seconds on that host
REFERENCE_CALIB_S = 0.010


class _Node:
    __slots__ = ("nid", "size", "peer", "state")

    def __init__(self, nid: int, size: int) -> None:
        self.nid = nid
        self.size = size
        self.peer = None
        self.state = 0

    def touch(self, v: int) -> int:
        self.state = (self.state + v) & 0xFFFF
        return self.state


class Calibration:
    """The calibration loop over a fixed object graph built once;
    calling the instance runs the loop and returns its seconds."""

    def __init__(self) -> None:
        rnd = random.Random(0)
        graph = [_Node(i, rnd.randint(1, 1 << 20))
                 for i in range(CALIB_NODES)]
        order = list(range(CALIB_NODES))
        rnd.shuffle(order)
        for node, j in zip(graph, order):
            node.peer = graph[j]
        self._walk = [graph[j] for j in order]

    def run(self) -> int:
        """The loop itself; returns a checksum so no work is skipped."""
        table: dict = {}
        odd = 0
        for n in self._walk:
            key = n.nid & 2047
            v = n.touch(table.get(key, 0) + n.peer.size)
            table[key] = v
            odd += v & 1
        small: dict = {}
        acc = 0
        for i in range(CALIB_DICT_ITERS):
            key = i & 511
            acc = (acc * 31 + small.get(key, i)) & 0xFFFFFF
            small[key] = acc
        return odd + acc

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

