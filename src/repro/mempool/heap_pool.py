"""Heap-based GPU memory pool (paper §3.2.1).

The pool pre-allocates one big slab and serves requests from it, so the
per-request cost is a free-list walk instead of a device-synchronizing
cudaMalloc.  Structure follows the paper:

* the slab is divided into **1 KB blocks**, the basic storage unit;
* a **free list** of nodes (address, block count) ordered by address;
* an **allocated list** of nodes, indexed by an **id→node hash table**
  so deallocation is O(1) lookup;
* allocation is **first fit**: take the first free node with enough
  blocks, split off the remainder.

We additionally coalesce adjacent free nodes on deallocation.  The paper
does not spell this out, but without it any long-running training loop
fragments the slab and first-fit starts failing on requests that should
fit; coalescing preserves the paper's observable behaviour (the pool
never runs out before the device itself would).

Op tape (steady-state replay)
-----------------------------
A replayed training iteration issues the same alloc/free calls in the
same order every time, so the pool can answer them from a recording
instead of walking the free list.  :meth:`HeapPool.tape_begin` /
:meth:`HeapPool.tape_end` bracket one iteration:

* **record** — the first bracketed iteration runs live and logs every
  op with its outcome: an alloc's block count with the granted
  ``(node id, addr, blocks)`` or an OOM, a free's handle.  The tape
  closes only if the iteration ends holding exactly the allocation set
  it started with (the parameters); otherwise it is dropped.
* **verify and replay** — each later bracketed iteration that starts
  from that same allocation set checks every op against the tape: the
  same block count gets the recorded node (or the recorded OOM), the
  same handle is released.  Only ``_allocated`` and the free-block count
  move, so an op costs O(1); the free list is left as it was.
* **deopt** — the first op that differs from the tape (or an iteration
  that ends before the tape does) drops the tape and rebuilds the free
  list as the complement of the allocated runs, then carries on live.

The fall-back is exact: after k matching ops the allocated set equals
the recorded one, and a fully coalesced first-fit free list is uniquely
determined by the allocated set, so every recorded outcome — offsets and
OOM points alike — is the one the live walk would have produced.
Tape entries are immutable: a tuple per op, and an alloc's entry holds
the allocated ``_Node``, which nothing mutates (``free`` grows a
neighbouring free node or inserts a new one, never the freed node).
The read-only views (:attr:`largest_free_bytes`, :attr:`fragmentation`,
:meth:`check_invariants`) derive the free runs from ``_allocated`` while
a replay is in flight.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

BLOCK = 1024  # 1 KB basic storage unit


class PoolExhaustedError(MemoryError):
    """No free node can satisfy the request (pool-level OOM)."""

    def __init__(self, requested_blocks: int, free_blocks: int):
        self.requested_blocks = requested_blocks
        self.free_blocks = free_blocks
        super().__init__(
            f"heap pool exhausted: need {requested_blocks} blocks, "
            f"{free_blocks} free (possibly fragmented)"
        )


class _Node:
    """One contiguous run of blocks (slots: one node is created per
    allocation, and attribute traffic dominates the free-list walk)."""

    __slots__ = ("node_id", "addr", "blocks")

    def __init__(self, node_id: int, addr: int, blocks: int) -> None:
        self.node_id = node_id
        self.addr = addr
        self.blocks = blocks

    @property
    def end(self) -> int:
        return self.addr + self.blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Node(id={self.node_id}, addr={self.addr}, blocks={self.blocks})"


#: the tape's end marker: matches no alloc (need >= 1) and no free (0)
_TAPE_END = (-1, None)


class HeapPool:
    """First-fit block allocator over a pre-reserved slab.

    Addresses returned by :meth:`alloc` are *byte* offsets into the
    slab; they are stable for the lifetime of the allocation, which the
    tensor cache relies on to identify resident tensors.

    :meth:`tape_begin`/:meth:`tape_end` bracket one iteration for the
    op tape described in the module docstring; outside a bracket (and
    after a deopt) every op runs the live first-fit walk.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < BLOCK:
            raise ValueError(f"pool must be at least one block ({BLOCK} B)")
        self.capacity_bytes = capacity_bytes
        self.total_blocks = capacity_bytes // BLOCK
        self._ids = itertools.count(0)
        first = _Node(next(self._ids), 0, self.total_blocks)
        self._free: List[_Node] = [first]          # sorted by addr
        self._allocated: Dict[int, _Node] = {}     # id -> node (the hash table)
        self._free_blocks = self.total_blocks
        # op tape: the allocation set it starts (and ends) from, the
        # entries being recorded, the closed tape, and — only while a
        # bracketed iteration replays it — the tape plus its cursor
        self._tape_start: Optional[FrozenSet[int]] = None
        self._recording: Optional[list] = None
        self._tape: Optional[Tuple[tuple, ...]] = None
        self._replay: Optional[Tuple[tuple, ...]] = None
        self._cursor = 0
        #: bracketed iterations answered from the tape to its end
        self.tape_replays = 0
        #: replays abandoned for the live walk (first op off the tape)
        self.deopts = 0

    # -- allocation -----------------------------------------------------------
    @staticmethod
    def blocks_for(nbytes: int) -> int:
        """Blocks needed for an nbytes request (round up, min 1)."""
        return max(1, -(-nbytes // BLOCK))

    def alloc(self, nbytes: int) -> int:
        """Allocate; returns a node id (the handle used to free).

        First-fit: scan the address-ordered free list, split the first
        node large enough (or answer from the op tape, see module doc).
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        need = self.blocks_for(nbytes)
        tape = self._replay
        if tape is not None:
            entry = tape[self._cursor]
            if entry[0] == need:
                self._cursor += 1
                node = entry[1]
                if node is None:
                    raise PoolExhaustedError(need, self._free_blocks)
                self._allocated[node.node_id] = node
                self._free_blocks -= need
                return node.node_id
            self._deopt()
        free = self._free
        for i, node in enumerate(free):
            if node.blocks >= need:
                node_id = next(self._ids)
                addr = node.addr
                if node.blocks == need:
                    free.pop(i)
                else:
                    node.addr += need
                    node.blocks -= need
                alloc_node = _Node(node_id, addr, need)
                self._allocated[node_id] = alloc_node
                self._free_blocks -= need
                if self._recording is not None:
                    self._recording.append((need, alloc_node))
                return node_id
        if self._recording is not None:
            self._recording.append((need, None))
        raise PoolExhaustedError(need, self._free_blocks)

    def addr_of(self, node_id: int) -> int:
        """Byte offset of an allocation within the slab."""
        return self._allocated[node_id].addr * BLOCK

    def size_of(self, node_id: int) -> int:
        """Byte size (block-rounded) of an allocation."""
        return self._allocated[node_id].blocks * BLOCK

    # -- deallocation ----------------------------------------------------------
    def free(self, node_id: int) -> None:
        """Return a node to the free list, coalescing neighbours."""
        tape = self._replay
        if tape is not None:
            entry = tape[self._cursor]
            if entry[0] == 0 and entry[1] == node_id:
                self._cursor += 1
                self._free_blocks += self._allocated.pop(node_id).blocks
                return
            self._deopt()
        node = self._allocated.pop(node_id, None)
        if node is None:
            raise KeyError(f"unknown or double-freed node id {node_id}")
        if self._recording is not None:
            self._recording.append((0, node_id))
        blocks = node.blocks
        self._free_blocks += blocks
        # Find the address slot, then grow a neighbour over the freed
        # run (coalescing) or insert a new free node.  The allocated
        # node itself is never mutated, so the op tape may hold it.
        free = self._free
        addr = node.addr
        end = addr + blocks
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid].addr < addr:
                lo = mid + 1
            else:
                hi = mid
        right = free[lo] if lo < len(free) and free[lo].addr == end else None
        left = free[lo - 1] if lo > 0 else None
        if left is not None and left.addr + left.blocks == addr:
            left.blocks += blocks
            if right is not None:
                left.blocks += right.blocks
                free.pop(lo)
        elif right is not None:
            right.addr = addr
            right.blocks += blocks
        else:
            free.insert(lo, _Node(node_id, addr, blocks))

    # -- op tape ------------------------------------------------------------------
    def tape_begin(self) -> None:
        """Open an iteration bracket: replay the closed tape if the pool
        holds the allocation set it was recorded from, else record."""
        if self._replay is not None:
            self._deopt()  # the previous bracket never closed
        if self._tape is not None \
                and self._allocated.keys() == self._tape_start:
            self._replay = self._tape
            self._cursor = 0
            return
        self._tape = None
        self._tape_start = frozenset(self._allocated)
        self._recording = []

    def tape_end(self) -> None:
        """Close an iteration bracket.  A recording becomes the tape only
        if the iteration gave back everything it took; a replay that
        stopped short of the tape's end deopts."""
        recording = self._recording
        if recording is not None:
            self._recording = None
            if self._allocated.keys() == self._tape_start:
                self._tape = tuple(recording) + (_TAPE_END,)
            return
        if self._replay is not None:
            if self._replay[self._cursor] is _TAPE_END:
                self._replay = None
                self.tape_replays += 1
            else:
                self._deopt()

    def drop_tape(self) -> None:
        """Forget the tape (and any recording); the pool stays exact."""
        if self._replay is not None:
            self._deopt()
        self._tape = self._tape_start = self._recording = None

    @property
    def tape_ops(self) -> int:
        """Ops on the closed tape (0 when none is closed)."""
        return len(self._tape) - 1 if self._tape is not None else 0

    def audit_tape(self) -> None:
        """End-of-iteration audit for validation builds: a replay in
        flight must have reached the tape's end, and the pool's
        structure must hold."""
        if self._replay is not None and self._replay[self._cursor] \
                is not _TAPE_END:
            raise AssertionError(
                f"op tape replay stopped at op {self._cursor} of "
                f"{len(self._replay) - 1}")
        self.check_invariants()

    def _deopt(self) -> None:
        """Leave the tape for the live walk: drop it and rebuild the
        free list as the complement of the allocated runs."""
        self._replay = self._tape = self._tape_start = None
        self.deopts += 1
        self._free = self._complement()

    def _complement(self) -> List[_Node]:
        """The fully coalesced free runs implied by ``_allocated``."""
        free: List[_Node] = []
        cursor = 0
        for node in sorted(self._allocated.values(), key=lambda n: n.addr):
            if node.addr > cursor:
                free.append(_Node(-1, cursor, node.addr - cursor))
            cursor = node.addr + node.blocks
        if cursor < self.total_blocks:
            free.append(_Node(-1, cursor, self.total_blocks - cursor))
        return free

    def _free_runs(self) -> List[_Node]:
        """The free list, derived while a replay leaves it stale."""
        return self._free if self._replay is None else self._complement()

    # -- introspection ------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self._free_blocks * BLOCK

    @property
    def used_bytes(self) -> int:
        return (self.total_blocks - self._free_blocks) * BLOCK

    @property
    def largest_free_bytes(self) -> int:
        """Largest single allocation currently satisfiable."""
        return max((n.blocks for n in self._free_runs()), default=0) * BLOCK

    @property
    def allocation_count(self) -> int:
        return len(self._allocated)

    @property
    def fragmentation(self) -> float:
        """1 - largest_free/total_free; 0 when free space is contiguous."""
        if self._free_blocks == 0:
            return 0.0
        largest = max((n.blocks for n in self._free_runs()), default=0)
        return 1.0 - largest / self._free_blocks

    def check_invariants(self) -> None:
        """Structural audit used by property tests."""
        free = self._free_runs()
        runs = sorted(
            [(n.addr, n.blocks, "free") for n in free]
            + [(n.addr, n.blocks, "used") for n in self._allocated.values()]
        )
        cursor = 0
        for addr, blocks, _tag in runs:
            if addr < cursor:
                raise AssertionError(f"overlapping runs at block {addr}")
            cursor = addr + blocks
        if cursor > self.total_blocks:
            raise AssertionError("runs extend past the slab")
        covered = sum(b for _, b, _ in runs)
        if covered != self.total_blocks:
            raise AssertionError(
                f"leaked blocks: covered {covered} of {self.total_blocks}"
            )
        if sum(n.blocks for n in free) != self._free_blocks:
            raise AssertionError(
                f"free-block count {self._free_blocks} disagrees with the "
                f"free runs")
        # adjacent free runs must have been coalesced
        prev_end = None
        for n in free:
            if prev_end is not None and n.addr == prev_end:
                raise AssertionError("uncoalesced adjacent free nodes")
            prev_end = n.end
