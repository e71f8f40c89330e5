"""Unit + property tests for the heap pool and allocators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import DeviceModel, SimulatedGPU, Timeline, OutOfMemoryError
from repro.device.timeline import Stream
from repro.mempool import CudaAllocator, HeapPool, PoolAllocator, PoolExhaustedError
from repro.mempool.heap_pool import BLOCK

KB = 1024
MB = 1024 * 1024


class TestHeapPool:
    def test_alloc_free_roundtrip(self):
        pool = HeapPool(64 * KB)
        h = pool.alloc(10 * KB)
        assert pool.used_bytes == 10 * KB
        pool.free(h)
        assert pool.used_bytes == 0
        assert pool.free_bytes == 64 * KB

    def test_block_rounding(self):
        pool = HeapPool(64 * KB)
        h = pool.alloc(1)  # rounds up to one block
        assert pool.size_of(h) == BLOCK
        pool.free(h)

    def test_zero_byte_alloc_takes_one_block(self):
        pool = HeapPool(4 * KB)
        h = pool.alloc(0)
        assert pool.size_of(h) == BLOCK

    def test_first_fit_addresses_ascend(self):
        pool = HeapPool(64 * KB)
        h1 = pool.alloc(8 * KB)
        h2 = pool.alloc(8 * KB)
        assert pool.addr_of(h2) == pool.addr_of(h1) + 8 * KB

    def test_free_reuses_hole(self):
        pool = HeapPool(64 * KB)
        h1 = pool.alloc(8 * KB)
        _h2 = pool.alloc(8 * KB)
        a1 = pool.addr_of(h1)
        pool.free(h1)
        h3 = pool.alloc(4 * KB)  # fits in the hole -> first fit reuses it
        assert pool.addr_of(h3) == a1

    def test_exhaustion_raises(self):
        pool = HeapPool(16 * KB)
        pool.alloc(16 * KB)
        with pytest.raises(PoolExhaustedError):
            pool.alloc(1 * KB)

    def test_double_free_raises(self):
        pool = HeapPool(16 * KB)
        h = pool.alloc(KB)
        pool.free(h)
        with pytest.raises(KeyError):
            pool.free(h)

    def test_coalescing_restores_full_block(self):
        pool = HeapPool(64 * KB)
        handles = [pool.alloc(8 * KB) for _ in range(8)]
        for h in handles:
            pool.free(h)
        pool.check_invariants()
        # after freeing everything, one max-size alloc must succeed
        big = pool.alloc(64 * KB)
        pool.free(big)

    def test_fragmentation_metric(self):
        pool = HeapPool(64 * KB)
        hs = [pool.alloc(8 * KB) for _ in range(8)]
        for h in hs[::2]:
            pool.free(h)
        assert pool.fragmentation > 0.0
        pool.check_invariants()

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 64)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_workload_invariants(self, ops):
        """Property: arbitrary interleavings never corrupt the pool."""
        pool = HeapPool(256 * KB)
        live = []
        for is_alloc, size_kb in ops:
            if is_alloc or not live:
                try:
                    live.append(pool.alloc(size_kb * KB))
                except PoolExhaustedError:
                    pass
            else:
                pool.free(live.pop(0))
            pool.check_invariants()
        used = sum(pool.size_of(h) for h in live)
        assert pool.used_bytes == used


#: one op of a generated iteration: (is_alloc, blocks, free-slot pick)
_OP = st.tuples(st.booleans(), st.integers(1, 64), st.integers(0, 63))
_BASE = [3, 17, 5, 40]  # canonical "params" (blocks), allocated first


def _base_pool() -> HeapPool:
    pool = HeapPool(256 * KB)
    for blocks in _BASE:
        pool.alloc(blocks * KB)
    return pool


def _iteration(pool, ops, audit=False):
    """One iteration of ``ops`` that gives back everything it took.

    Returns ``(outcomes, calls)``: per op the ``(handle, byte offset,
    bytes)`` granted, ``"oom"`` or ``"free"``; and the calls as issued
    (``("a", blocks)`` or ``("f", handle)``)."""
    live, outcomes, calls = [], [], []

    def free(i):
        h = live.pop(i)
        calls.append(("f", h))
        pool.free(h)
        outcomes.append("free")

    for is_alloc, blocks, pick in ops:
        if is_alloc or not live:
            calls.append(("a", blocks))
            try:
                h = pool.alloc(blocks * KB)
            except PoolExhaustedError:
                outcomes.append("oom")
            else:
                live.append(h)
                outcomes.append((h, pool.addr_of(h), pool.size_of(h)))
        else:
            free(pick % len(live))
        if audit:
            pool.check_invariants()
    while live:
        free(0)
    return outcomes, calls


def _runs(pool):
    return [(n.addr, n.blocks) for n in pool._free]


def _perturb(ops, k, bump):
    """``ops`` with op ``k`` changed: another size, or another free pick."""
    is_alloc, blocks, pick = ops[k]
    ops = list(ops)
    ops[k] = (is_alloc, blocks % 64 + bump, pick + bump)
    return ops


class TestOpTape:
    """The heap pool's op tape replays a recorded iteration in O(1) per
    op and falls back to first-fit exactly at the first difference."""

    @given(st.lists(_OP, min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_replay_matches_live_pool(self, ops):
        ref = _base_pool()
        want, _ = _iteration(ref, ops)
        pool = _base_pool()
        for _ in range(3):  # record, then replay twice
            pool.tape_begin()
            got, _ = _iteration(pool, ops, audit=True)
            pool.audit_tape()
            pool.tape_end()
            assert got == want  # handles, byte offsets and OOM points
        assert (pool.tape_replays, pool.deopts) == (2, 0)
        assert _runs(pool) == _runs(ref)
        pool.check_invariants()

    @given(st.lists(_OP, min_size=1, max_size=50), st.data())
    @settings(max_examples=80, deadline=None)
    def test_perturbed_replay_deopts_to_live_pool(self, ops, data):
        k = data.draw(st.integers(0, len(ops) - 1), label="k")
        bump = data.draw(st.integers(1, 3), label="bump")
        changed = _perturb(ops, k, bump)
        ref = _base_pool()
        want, _ = _iteration(ref, changed)
        pool = _base_pool()
        pool.tape_begin()
        _, recorded = _iteration(pool, ops)
        pool.tape_end()
        pool.tape_begin()
        got, issued = _iteration(pool, changed, audit=True)
        pool.audit_tape()
        pool.tape_end()
        # handles differ after a deopt (fresh ids); offsets and OOMs not
        strip = lambda out: [o if isinstance(o, str) else o[1:] for o in out]
        assert strip(got) == strip(want)
        assert pool.deopts == (issued != recorded)
        assert pool.tape_replays == (issued == recorded)
        assert _runs(pool) == _runs(ref)
        pool.check_invariants()

    def test_queries_mid_replay_read_the_allocated_set(self):
        ops = [(True, 8, 0), (True, 16, 0), (True, 8, 0), (False, 0, 1)]
        ref = _base_pool()
        pool = _base_pool()
        pool.tape_begin()
        _iteration(pool, ops)
        pool.tape_end()
        pool.tape_begin()
        for p in (ref, pool):
            hs = [p.alloc(b * KB) for b in (8, 16, 8)]
            p.free(hs[1])
        assert pool.largest_free_bytes == ref.largest_free_bytes
        assert pool.fragmentation == ref.fragmentation > 0.0
        pool.check_invariants()
        assert pool.deopts == 0  # reads never leave the tape

    def test_bracket_that_keeps_an_allocation_records_no_tape(self):
        pool = _base_pool()
        pool.tape_begin()
        kept = pool.alloc(4 * KB)
        pool.tape_end()
        assert pool.tape_ops == 0
        pool.free(kept)
        pool.tape_begin()
        _iteration(pool, [(True, 4, 0)])
        pool.tape_end()
        assert pool.tape_ops == 2

    def test_replay_that_stops_short_deopts(self):
        pool = _base_pool()
        pool.tape_begin()
        _iteration(pool, [(True, 8, 0), (True, 4, 0)])
        pool.tape_end()
        pool.tape_begin()
        h = pool.alloc(8 * KB)  # then the bracket closes early
        with pytest.raises(AssertionError, match="stopped at op 1 of 4"):
            pool.audit_tape()
        pool.tape_end()
        assert (pool.tape_replays, pool.deopts, pool.tape_ops) == (0, 1, 0)
        ref = _base_pool()
        ref.alloc(8 * KB)
        assert _runs(pool) == _runs(ref)
        pool.free(h)
        pool.check_invariants()

    def test_drop_tape_mid_replay_stays_exact(self):
        ops = [(True, 8, 0), (True, 16, 0), (False, 0, 0), (True, 4, 0)]
        pool = _base_pool()
        pool.tape_begin()
        _iteration(pool, ops)
        pool.tape_end()
        pool.tape_begin()
        h = pool.alloc(8 * KB)
        pool.drop_tape()
        assert pool.deopts == 1
        pool.free(h)
        pool.check_invariants()
        assert _runs(pool) == _runs(_base_pool())
        pool.tape_begin()  # no tape: records afresh
        pool.tape_end()
        assert pool.tape_replays == 0


class TestAllocators:
    def _mk(self, capacity=64 * MB):
        gpu = SimulatedGPU(DeviceModel(dram_bytes=capacity))
        tl = Timeline()
        return gpu, tl

    def test_cuda_allocator_charges_latency(self):
        gpu, tl = self._mk()
        alloc = CudaAllocator(gpu, tl)
        a = alloc.alloc(MB)
        alloc.free(a)
        assert tl.now(Stream.COMPUTE) == pytest.approx(
            gpu.model.cuda_malloc_latency + gpu.model.cuda_free_latency
        )
        assert alloc.stats.calls == 2

    def test_pool_allocator_much_cheaper(self):
        gpu, tl = self._mk()
        alloc = PoolAllocator(gpu, tl, slab_bytes=32 * MB)
        a = alloc.alloc(MB)
        alloc.free(a)
        assert tl.now(Stream.COMPUTE) < gpu.model.cuda_malloc_latency

    def test_capacity_enforced_cuda(self):
        gpu, tl = self._mk(capacity=4 * MB)
        alloc = CudaAllocator(gpu, tl)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(8 * MB)

    def test_capacity_enforced_pool(self):
        gpu, tl = self._mk(capacity=4 * MB)
        alloc = PoolAllocator(gpu, tl)  # slab = all free DRAM
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(8 * MB)

    def test_peak_tracking(self):
        gpu, tl = self._mk()
        alloc = PoolAllocator(gpu, tl, slab_bytes=32 * MB)
        a = alloc.alloc(4 * MB)
        b = alloc.alloc(4 * MB)
        alloc.free(a)
        alloc.free(b)
        assert alloc.peak_bytes == 8 * MB
        assert alloc.used_bytes == 0

    def test_pool_free_bytes_reflects_slab(self):
        gpu, tl = self._mk()
        alloc = PoolAllocator(gpu, tl, slab_bytes=16 * MB)
        assert alloc.free_bytes == 16 * MB
        alloc.alloc(MB)
        assert alloc.free_bytes == 15 * MB


class TestSimulatedGPU:
    def test_reserve_release_ledger(self):
        gpu = SimulatedGPU(DeviceModel(dram_bytes=10 * MB))
        s = gpu.reserve(4 * MB)
        assert gpu.used_bytes == 4 * MB
        gpu.release(s)
        assert gpu.used_bytes == 0
        assert gpu.peak_bytes == 4 * MB

    def test_oom_reports_sizes(self):
        gpu = SimulatedGPU(DeviceModel(dram_bytes=MB))
        with pytest.raises(OutOfMemoryError) as ei:
            gpu.reserve(2 * MB)
        assert ei.value.requested == 2 * MB
        assert ei.value.capacity == MB

    def test_release_unknown_raises(self):
        gpu = SimulatedGPU()
        with pytest.raises(KeyError):
            gpu.release(123)

    def test_samples(self):
        gpu = SimulatedGPU()
        gpu.reserve(1024)
        gpu.sample("step0")
        assert gpu.samples == [("step0", 1024)]
