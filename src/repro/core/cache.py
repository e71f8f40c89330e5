"""LRU Tensor Cache (paper §3.3.2, Algorithm 2).

Keeps data tensors resident on the GPU while room remains, so that
offload traffic only happens under genuine memory pressure.  The
back-propagation's head-to-tail / tail-to-head pattern makes the most
recently produced tensors the first ones the backward pass wants —
which is exactly the access pattern LRU serves best (the paper's
justification for the policy choice).

Operations mirror Alg. 2:

* ``insert`` = ``LRU.in``  — place an (unlocked) tensor at the MRU front;
* ``evict_for`` = ``LRU.out`` — offload least-recently-used *unlocked*
  tensors until enough bytes are freed;
* ``touch`` = the hit path of ``Check`` — move to the MRU front.

Eviction itself (the D2H copy + allocator free) is the executor's job;
the cache only decides *which* tensors go, through the callback.

The paper notes "there are other sophisticated cache replacement
policies [that] might better fit the scenario" and leaves them out of
scope; we implement two alternatives (FIFO and LFU) behind the same
interface so the ablation bench can quantify the choice.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional

from repro.tensors.tensor import Tensor


class TensorCache:
    """Ordered map of GPU-resident data tensors; front = MRU.

    ``policy`` selects the victim order:

    * ``"lru"``  — least recently used first (the paper's choice);
    * ``"fifo"`` — insertion order, ignoring touches;
    * ``"lfu"``  — least frequently used first (touch counts).
    """

    def __init__(self, policy: str = "lru", state=None) -> None:
        if policy not in ("lru", "fifo", "lfu"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.policy = policy
        self._entries: "OrderedDict[int, Tensor]" = OrderedDict()
        self._freq: Dict[int, int] = {}
        self._arrival: Dict[int, int] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # lock bits are session state, not descriptor state: the victim
        # filter consults the owning session's SessionTensorState
        self._state = state

    def bind_state(self, state) -> None:
        """Attach the session's tensor-state table (lock-bit source)."""
        self._state = state

    # -- membership ------------------------------------------------------
    def insert(self, t: Tensor) -> None:
        """LRU.in: register a tensor that just landed on the GPU."""
        self._entries[t.tensor_id] = t
        self._entries.move_to_end(t.tensor_id, last=False)
        self._freq.setdefault(t.tensor_id, 0)
        self._tick += 1
        self._arrival.setdefault(t.tensor_id, self._tick)

    def touch(self, t: Tensor) -> bool:
        """Check-hit: move to MRU.  Returns True when present."""
        if t.tensor_id in self._entries:
            self._entries.move_to_end(t.tensor_id, last=False)
            self._freq[t.tensor_id] = self._freq.get(t.tensor_id, 0) + 1
            self.hits += 1
            return True
        self.misses += 1
        return False

    def remove(self, t: Tensor) -> None:
        self._entries.pop(t.tensor_id, None)
        self._freq.pop(t.tensor_id, None)
        self._arrival.pop(t.tensor_id, None)

    def __contains__(self, t: Tensor) -> bool:
        return t.tensor_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- eviction --------------------------------------------------------
    def evict_for(
        self,
        nbytes: int,
        offload_cb: Callable[[Tensor], int],
    ) -> int:
        """LRU.out: offload unlocked LRU tensors until >= nbytes freed.

        ``offload_cb`` performs the actual movement and returns the GPU
        bytes it released.  Returns total bytes freed (may fall short if
        everything left is locked — caller decides whether that is OOM).
        """
        if self._state is None:
            # Alg. 2's lock check is load-bearing: evicting a tensor a
            # kernel has pinned corrupts the run.  An unbound cache
            # cannot consult the lock bits, so fail loud here rather
            # than silently treating everything as evictable.
            raise RuntimeError(
                "TensorCache has no SessionTensorState bound; pass "
                "state= at construction or call bind_state() before "
                "evict_for()")
        freed = 0
        locked = self._state.locked
        # walk a snapshot of the order (offload_cb mutates the map) and
        # consult the lock bits only until enough bytes are freed: the
        # callback moves bytes, never lock bits, so the victims are the
        # ones a full pre-filter would pick
        for t in self._victim_order():
            if freed >= nbytes:
                break
            if locked(t):
                continue
            self.remove(t)
            freed += offload_cb(t)
            self.evictions += 1
        return freed

    def _victim_order(self) -> List[Tensor]:
        """Eviction order (first = first out) under the active policy."""
        if self.policy == "lru":
            return list(reversed(self._entries.values()))
        if self.policy == "fifo":
            order = sorted(self._entries, key=lambda tid: self._arrival[tid])
            return [self._entries[tid] for tid in order]
        # lfu: fewest touches first; arrival breaks ties (older first)
        order = sorted(
            self._entries,
            key=lambda tid: (self._freq.get(tid, 0), self._arrival[tid]),
        )
        return [self._entries[tid] for tid in order]

    def lru_order(self) -> List[Tensor]:
        """MRU-first snapshot (for tests)."""
        return list(self._entries.values())
