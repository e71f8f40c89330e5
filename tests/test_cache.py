"""Unit tests for the LRU tensor cache (paper Alg. 2)."""

import pytest

from repro.core.cache import TensorCache
from repro.core.tensor_state import SessionTensorState
from repro.tensors.tensor import Tensor, TensorKind


def _t(kb: int, name: str = "") -> Tensor:
    return Tensor((1, 1, 1, 256 * kb), name=name)  # kb KiB tensors


def _locked_cache() -> "tuple[TensorCache, SessionTensorState]":
    """A cache bound to a session state (the lock-bit source)."""
    state = SessionTensorState()
    return TensorCache(state=state), state


class TestLRUOrder:
    def test_insert_puts_at_mru(self):
        c = TensorCache()
        a, b = _t(1, "a"), _t(1, "b")
        c.insert(a)
        c.insert(b)
        assert [t.name for t in c.lru_order()] == ["b", "a"]

    def test_touch_moves_to_front(self):
        c = TensorCache()
        a, b, d = _t(1, "a"), _t(1, "b"), _t(1, "d")
        for t in (a, b, d):
            c.insert(t)
        assert c.touch(a)
        assert [t.name for t in c.lru_order()] == ["a", "d", "b"]

    def test_touch_miss_counts(self):
        c = TensorCache()
        t = _t(1)
        assert not c.touch(t)
        assert c.misses == 1
        c.insert(t)
        assert c.touch(t)
        assert c.hits == 1

    def test_remove_is_idempotent(self):
        c = TensorCache()
        t = _t(1)
        c.insert(t)
        c.remove(t)
        c.remove(t)
        assert t not in c
        assert len(c) == 0


class TestEviction:
    def test_evicts_lru_first(self):
        c, _ = _locked_cache()
        a, b, d = _t(4, "a"), _t(4, "b"), _t(4, "d")
        for t in (a, b, d):
            c.insert(t)
        evicted = []

        def cb(t):
            evicted.append(t.name)
            return t.nbytes

        freed = c.evict_for(4 * 1024, cb)
        assert evicted == ["a"]          # oldest goes first
        assert freed == a.nbytes

    def test_evicts_until_enough(self):
        c, _ = _locked_cache()
        ts = [_t(4, f"t{i}") for i in range(4)]
        for t in ts:
            c.insert(t)
        freed = c.evict_for(10 * 1024, lambda t: t.nbytes)
        assert freed >= 10 * 1024
        assert len(c) == 1  # three evicted (4K each)

    def test_locked_tensors_survive(self):
        c, state = _locked_cache()
        a, b = _t(4, "a"), _t(4, "b")
        c.insert(a)
        c.insert(b)
        state.lock(a)
        evicted = []
        c.evict_for(4 * 1024, lambda t: evicted.append(t.name) or t.nbytes)
        assert evicted == ["b"]
        assert a in c

    def test_all_locked_frees_nothing(self):
        c, state = _locked_cache()
        ts = [_t(2, f"t{i}") for i in range(3)]
        for t in ts:
            c.insert(t)
            state.lock(t)
        assert c.evict_for(1024, lambda t: t.nbytes) == 0
        assert len(c) == 3

    def test_lock_bits_are_per_session(self):
        """Two sessions' caches over the SAME descriptors must not see
        each other's locks — the pre-refactor shared ``t.locked`` bit
        made this impossible."""
        a, b = _t(4, "a"), _t(4, "b")
        c1, s1 = _locked_cache()
        c2, s2 = _locked_cache()
        for c in (c1, c2):
            c.insert(a)
            c.insert(b)
        s1.lock(a)  # session 1 pins a; session 2 did not
        ev1, ev2 = [], []
        c1.evict_for(8 * 1024, lambda t: ev1.append(t.name) or t.nbytes)
        c2.evict_for(8 * 1024, lambda t: ev2.append(t.name) or t.nbytes)
        assert ev1 == ["b"]          # a survives only where it is locked
        assert ev2 == ["a", "b"]

    def test_unbound_cache_refuses_to_evict(self):
        """Without a SessionTensorState the lock check cannot run —
        eviction must fail loud, never treat pinned tensors as free."""
        c = TensorCache()
        c.insert(_t(4, "a"))
        with pytest.raises(RuntimeError, match="SessionTensorState"):
            c.evict_for(1, lambda t: t.nbytes)

    def test_eviction_counter(self):
        c, _ = _locked_cache()
        for i in range(3):
            c.insert(_t(2, f"t{i}"))
        c.evict_for(6 * 1024, lambda t: t.nbytes)
        assert c.evictions == 3


class TestLazyVictimWalk:
    """``evict_for`` consults lock bits only until enough bytes are
    freed, and still picks the victims a full pre-filter would."""

    class _CountingState(SessionTensorState):
        """Logs every lock-bit query and whether it was held."""

        def __init__(self):
            super().__init__()
            self.queries = []

        def locked(self, t):
            held = super().locked(t)
            self.queries.append(held)
            return held

    @classmethod
    def _filled(cls, policy: str):
        c = TensorCache(policy=policy, state=cls._CountingState())
        ts = [_t(4, f"t{i}") for i in range(12)]
        for t in ts:
            c.insert(t)
        for t in ts[7:2:-1]:
            c.touch(t)  # reorder lru/lfu away from insertion order
        for t in ts[1::3]:
            c._state.lock(t)
        return c, ts

    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_victims_match_full_prefilter(self, policy):
        c, _ = self._filled(policy)
        want = [t.name for t in c._victim_order()
                if not c._state.locked(t)][:3]
        c._state.queries.clear()
        got = []
        c.evict_for(10 * 1024, lambda t: got.append(t.name) or t.nbytes)
        assert got == want

    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_locked_checks_bounded_by_walk(self, policy):
        c, _ = self._filled(policy)
        queries = c._state.queries
        size = len(c)
        victims = []
        c.evict_for(10 * 1024, lambda t: victims.append(t) or t.nbytes)
        assert len(victims) == 3
        assert len(queries) == len(victims) + sum(queries)  # taken + skipped
        assert len(queries) < size  # the walk stopped short of the map


class TestBackwardFriendlyOrder:
    def test_backward_pattern_hits(self):
        """The paper's rationale: backward wants the most recently
        produced tensors first, which LRU keeps at the front."""
        c = TensorCache()
        produced = [_t(1, f"l{i}") for i in range(10)]
        for t in produced:
            c.insert(t)
        # backward touches in reverse production order: all hits, and
        # eviction pressure would always hit the oldest (least useful)
        for t in reversed(produced):
            assert c.touch(t)
        assert c.hits == 10
