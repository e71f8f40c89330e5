"""Steady-state iteration replay: equivalence, determinism, and the
per-run accumulator regressions (ISSUE 2).

The contract under test: after the first iteration of a fixed topology
the executor replays a compiled :class:`~repro.core.plan.IterationPlan`
instead of dispatching policy hooks — and the replayed iterations are
**bit-identical** to the fresh planning path in every observable
(losses, peaks, traces, DMA bytes, counters) across the ablation
ladder.  Plus the state-hygiene fixes that only matter in exactly this
long-running regime: per-iteration accumulators must not grow without
bound across ``run_iteration`` calls on one executor.
"""

import pytest

from repro import Executor, RuntimeConfig, SGD, Session, Trainer
from repro.core.policy import MemoryPolicy
from repro.mempool import HeapPool
from repro.zoo import alexnet, lenet
from repro.zoo.resnet import resnet_from_units

ITERS = 5

# the PR-1 ablation ladder plus the eager-offload full stack
ABLATION = {
    "baseline": RuntimeConfig.baseline,
    "liveness": RuntimeConfig.liveness_only,
    "liveness+utp": RuntimeConfig.liveness_offload,
    "superneurons": RuntimeConfig.superneurons,
    "superneurons-eager":
        lambda **kw: RuntimeConfig.superneurons(use_tensor_cache=False, **kw),
}


def run_dicts(mk_net, config, iters=ITERS, lr=0.05, mode="train"):
    with Executor(mk_net(), config, mode=mode) as ex:
        opt = SGD(lr=lr) if mode == "train" else None
        out = [ex.run_iteration(i, optimizer=opt).to_dict()
               for i in range(iters)]
        replayed = ex.replayed_iterations
    return out, replayed


class TestReplayEquivalence:
    """Replay must be bit-identical to the fresh-plan path."""

    @pytest.mark.parametrize("name", list(ABLATION))
    def test_concrete_lenet_bit_identical(self, name):
        mk = lambda: lenet(batch=4, image=12)
        fresh, r0 = run_dicts(mk, ABLATION[name](steady_state_replay=False))
        replay, r1 = run_dicts(mk, ABLATION[name]())
        assert r0 == 0 and r1 == ITERS - 1  # the fast path actually ran
        assert replay == fresh  # losses, peaks, traces, DMA, counters

    @pytest.mark.parametrize("name,mode", [
        pytest.param(n, m, id=n if m == "train" else f"{n}-{m}")
        for m in ("train", "infer") for n in ABLATION])
    def test_simulated_alexnet_bit_identical(self, name, mode):
        mk = lambda: alexnet(batch=4, image=67, num_classes=10)
        fresh, _ = run_dicts(
            mk, ABLATION[name](concrete=False, steady_state_replay=False),
            iters=3, mode=mode)
        replay, r = run_dicts(mk, ABLATION[name](concrete=False), iters=3,
                              mode=mode)
        assert r == 2
        assert replay == fresh

    def test_custom_dynamic_policy_keeps_full_dispatch(self):
        """A policy that does not opt into plan stability must observe
        the identical hook stream on fresh and replayed iterations."""

        class Probe(MemoryPolicy):
            key = "probe"

            def __init__(self):
                self.per_iteration = []
                self._log = None

            def on_iteration_start(self, ctx):
                self._log = []

            def before_step(self, ctx, step):
                self._log.append(("b", step.index))

            def before_compute(self, ctx, step):
                self._log.append(("c", step.index))

            def after_step(self, ctx, step):
                self._log.append(("a", step.index))

            def on_step_settled(self, ctx, step):
                self._log.append(("s", step.index))

            def on_tensor_dead(self, ctx, t):
                self._log.append(("dead", t.name))

            def on_iteration_end(self, ctx):
                self.per_iteration.append(self._log)

        probe = Probe()
        with Session(lenet(batch=2, image=12),
                     RuntimeConfig.superneurons()) \
                .with_policy(probe) as sess:
            for i in range(3):
                sess.run_iteration(i, optimizer=SGD(0.05))
            assert sess.executor.replayed_iterations == 2
        # replayed iterations show the probe the same stream the
        # recording iteration did
        assert probe.per_iteration[1] == probe.per_iteration[0]
        assert probe.per_iteration[2] == probe.per_iteration[0]

    def test_plan_reports_stable_policies(self):
        with Executor(lenet(batch=2, image=12),
                      RuntimeConfig.superneurons()) as ex:
            assert ex.iteration_plan is None
            ex.run_iteration(0)
            ex.run_iteration(1)
            plan = ex.iteration_plan
            assert plan is not None
            assert set(plan.stable_keys) == \
                {"offload", "liveness", "recompute", "workspace"}
            assert len(plan.steps) == len(ex.route.steps)

    def test_invalidate_plan_forces_recording(self):
        with Executor(lenet(batch=2, image=12),
                      RuntimeConfig.superneurons()) as ex:
            ex.run_iteration(0)
            ex.run_iteration(1)
            assert ex.replayed_iterations == 1
            ex.invalidate_plan()
            assert ex.iteration_plan is None
            ex.run_iteration(2)  # records afresh
            assert ex.replayed_iterations == 1
            ex.run_iteration(3)  # replays the recompiled plan
            assert ex.replayed_iterations == 2


class TestHeapPoolTape:
    """Replayed iterations answer the heap pool from the op tape the
    first replayed iteration recorded; executors that never replay
    never touch it."""

    @staticmethod
    def _tight():
        """A small resnet at 60% of its roomy activation peak: the cache
        evicts, and first-fit OOMs drive the pressure cascade."""
        mk = lambda: resnet_from_units((1, 1, 1, 1), batch=4, image=64,
                                       num_classes=10)
        with Executor(mk(), RuntimeConfig.superneurons(concrete=False)) as p:
            roomy = p.run_iteration(0)
            cap = p.param_bytes + int(roomy.activation_peak_bytes * 0.6)
        return mk, cap

    def test_tape_under_pressure_replays_bit_identically(self):
        mk, cap = self._tight()
        fresh, _ = run_dicts(mk, RuntimeConfig.superneurons(
            gpu_capacity=cap, steady_state_replay=False), iters=4)
        with Executor(mk(), RuntimeConfig.superneurons(gpu_capacity=cap)) \
                as ex:
            opt = SGD(lr=0.05)
            replay = [ex.run_iteration(i, optimizer=opt).to_dict()
                      for i in range(4)]
            heap = ex._heap
            tape = heap._tape
        assert replay == fresh
        assert all(r["cache"]["evictions"] > 0 for r in replay)
        # iteration 0 records the plan, 1 records the tape, 2-3 replay it
        assert (heap.tape_replays, heap.deopts) == (2, 0)
        assert any(need and got is None for need, got in tape)  # OOMs

    def test_replay_off_never_records(self):
        mk, cap = self._tight()
        cfg = RuntimeConfig.superneurons(concrete=False, gpu_capacity=cap,
                                         steady_state_replay=False)
        with Executor(mk(), cfg) as ex:
            for i in range(3):
                ex.run_iteration(i)
            heap = ex._heap
            assert heap._recording is None and heap.tape_ops == 0
            assert (heap.tape_replays, heap.deopts) == (0, 0)

    def test_invalidate_plan_drops_the_tape(self):
        with Executor(lenet(batch=2, image=12),
                      RuntimeConfig.superneurons()) as ex:
            heap = ex._heap
            for i in range(3):
                ex.run_iteration(i)
            assert heap.tape_ops > 0 and heap.tape_replays == 1
            ex.invalidate_plan()
            assert heap.tape_ops == 0
            for i in range(3, 6):  # fresh, record, replay
                ex.run_iteration(i)
            assert (heap.tape_replays, heap.deopts) == (2, 0)

    @pytest.mark.parametrize("validate", [True, False])
    def test_validation_arms_the_end_of_iteration_audit(
            self, validate, monkeypatch):
        audits = []
        real = HeapPool.audit_tape
        monkeypatch.setattr(HeapPool, "audit_tape",
                            lambda pool: audits.append(1) or real(pool))
        cfg = RuntimeConfig.superneurons(validate_state=validate)
        with Executor(lenet(batch=2, image=12), cfg) as ex:
            for i in range(3):
                ex.run_iteration(i)
        assert len(audits) == (2 if validate else 0)  # replayed only


class TestReplayOptOut:
    def test_session_with_replay_false(self):
        with Session(lenet(batch=2, image=12)).with_replay(False) as sess:
            for i in range(3):
                sess.run_iteration(i)
            assert sess.executor.replayed_iterations == 0
            assert sess.executor.iteration_plan is None

    def test_replay_is_the_default(self):
        with Session(lenet(batch=2, image=12)) as sess:
            for i in range(3):
                sess.run_iteration(i)
            assert sess.executor.replayed_iterations == 2

    def test_knob_rejected_after_build(self):
        sess = Session(lenet(batch=2, image=12))
        sess.run_iteration(0)
        with pytest.raises(RuntimeError, match="already built"):
            sess.with_replay(False)
        sess.close()


class TestFiveIterationDeterminism:
    """Same seed ⇒ identical loss sequence; allocator back at
    params-only after every iteration; replay ≡ fresh byte-for-byte."""

    def test_loss_sequence_and_ledger(self):
        def losses(replay):
            cfg = RuntimeConfig.superneurons(steady_state_replay=replay)
            out = []
            with Executor(lenet(batch=4, image=12), cfg) as ex:
                opt = SGD(0.05)
                for i in range(ITERS):
                    out.append(ex.run_iteration(i, optimizer=opt).loss)
                    assert ex.allocator.used_bytes == ex.param_bytes
            return out

        a, b, c = losses(True), losses(True), losses(False)
        assert a == b  # same seed, same sequence — run to run
        assert a == c  # replay path ≡ fresh path
        assert len(set(a)) > 1  # training actually moves

    def test_dropout_net_replays_fresh_rng_per_iteration(self):
        """Seeded per-(iteration, layer) RNG means dropout masks and
        data batches vary per iteration yet replay stays exact."""
        from repro.graph import Net
        from repro.layers import (DataLayer, Dropout, FullyConnected,
                                  SoftmaxLoss)

        def build():
            net = Net("drop")
            x = net.add(DataLayer("data", (4, 3, 8, 8), num_classes=4))
            x = net.add(Dropout("drop1", 0.4), [x])
            x = net.add(FullyConnected("fc", 4), [x])
            net.add(SoftmaxLoss("softmax"), [x])
            return net.build()

        fresh, _ = run_dicts(
            build, RuntimeConfig.superneurons(steady_state_replay=False))
        replay, r = run_dicts(build, RuntimeConfig.superneurons())
        assert r == ITERS - 1
        assert replay == fresh
        losses = [d["loss"] for d in replay]
        assert len(set(losses)) > 1  # per-iteration masks/batches differ


class TestAccumulatorHygiene:
    """Counters and logs are per-iteration deltas, not lifetime piles."""

    def test_workspace_choice_log_is_per_iteration(self):
        with Executor(lenet(batch=4, image=12),
                      RuntimeConfig.superneurons()) as ex:
            r1 = ex.run_iteration(0)
            n1 = len(ex.selector.choices)
            r2 = ex.run_iteration(1)
            n2 = len(ex.selector.choices)
        assert n1 == n2  # reset each iteration, no unbounded growth
        assert len(r1.workspace_choices) == len(r2.workspace_choices) == n1

    def test_timeline_op_log_does_not_grow(self):
        with Executor(lenet(batch=4, image=12),
                      RuntimeConfig.superneurons()) as ex:
            ex.run_iteration(0)
            ex.run_iteration(1)
            assert ex.timeline.ops() == []  # executor records no op log

    def test_executor_state_drained_between_iterations(self):
        with Executor(alexnet(batch=2, image=67, num_classes=10),
                      RuntimeConfig.liveness_offload(concrete=False)) as ex:
            for i in range(3):
                ex.run_iteration(i)
                assert ex._pending == []
                assert not ex.state.any_arrivals
                assert ex.state.live_count() == 0

    def test_eager_mode_cache_counters_stay_silent(self):
        """Eager offload has no cache; its counters must not tick (they
        previously counted a miss per tensor access, forever)."""
        with Executor(alexnet(batch=2, image=67, num_classes=10),
                      RuntimeConfig.liveness_offload(concrete=False)) as ex:
            r1 = ex.run_iteration(0)
            r2 = ex.run_iteration(1)
        for r in (r1, r2):
            assert (r.cache_hits, r.cache_misses, r.cache_evictions) \
                == (0, 0, 0)

    def test_per_iteration_deltas_are_stable(self):
        """Back-to-back iterations report identical deltas — nothing
        double-counts across the iteration boundary."""
        with Executor(alexnet(batch=2, image=67, num_classes=10),
                      RuntimeConfig.superneurons(concrete=False)) as ex:
            r1 = ex.run_iteration(0)
            r2 = ex.run_iteration(1)
        for field in ("d2h_bytes", "h2d_bytes", "alloc_calls",
                      "extra_forwards", "cache_hits", "cache_misses",
                      "cache_evictions"):
            assert getattr(r1, field) == getattr(r2, field), field

    def test_session_history_cap(self):
        with Session(lenet(batch=2, image=12)).with_history(2) as sess:
            for i in range(5):
                sess.run_iteration(i)
            assert len(sess.results) == 2
            assert [r.iteration for r in sess.results] == [3, 4]

    def test_trainer_can_drop_results(self):
        sess = Session(lenet(batch=4, image=12),
                       RuntimeConfig.superneurons())
        with Trainer(session=sess, optimizer=SGD(0.1)) as tr:
            stats = tr.train(4, keep_results=False)
        assert len(stats.losses) == 4
        assert stats.results == []

    def test_traces_can_be_disabled(self):
        cfg = RuntimeConfig.superneurons(collect_traces=False)
        with Executor(lenet(batch=4, image=12), cfg) as ex:
            r = ex.run_iteration(0)
        assert r.traces == []
        assert r.loss is not None
