"""The compile-once Engine API and the inference execution mode (ISSUE 3).

Contracts under test:

* the old ``Session(net).with_policy(...).run(...)`` path and an
  ``engine.session(mode="train")`` worker return bit-identical
  ``IterationResult.to_dict()`` output (the facade round-trip);
* infer-mode forward losses are bit-identical to train-mode's forward
  half, and infer peak memory is strictly lower on every zoo net;
* N sessions sharing one engine compile the plan exactly once and
  produce results identical to N sequential fresh sessions, even when
  their iterations interleave (determinism under sharing);
* ``Session.without_policy`` is driven by the policy registry: its
  accepted names and error listing match ``with_policy``, and
  disarming offload disarms the tensor cache with it.
"""

import pytest

import repro
from repro import Engine, RuntimeConfig, SGD, Session, Trainer
from repro.core.policy import POLICY_REGISTRY, MemoryPolicy
from repro.zoo import NETWORK_BUILDERS, alexnet, lenet

ITERS = 4


class TestEngineTrainRoundTrip:
    """The facade: legacy Session output == engine worker output."""

    def test_session_path_matches_engine_worker_bit_identical(self):
        def mk():
            return lenet(batch=4, image=12)

        with Session(mk(), RuntimeConfig.superneurons()) as sess:
            legacy = [sess.run_iteration(i, optimizer=SGD(0.05)).to_dict()
                      for i in range(ITERS)]
        engine = repro.compile(mk(), RuntimeConfig.superneurons())
        with engine.session(mode="train") as worker:
            shared = [worker.run_iteration(i, optimizer=SGD(0.05)).to_dict()
                      for i in range(ITERS)]
            # the worker replays the engine plan from iteration 0
            assert worker.executor.replayed_iterations == ITERS
        assert shared == legacy

    def test_fluent_with_policy_path_matches_engine(self):
        def mk():
            return lenet(batch=4, image=12)

        with Session(mk()).with_policy("offload", cache="lru") \
                          .with_policy("recompute", strategy="cost_aware") \
                as sess:
            legacy = [r.to_dict() for r in
                      sess.run(iters=3, optimizer=SGD(0.05))]
        cfg = RuntimeConfig()
        POLICY_REGISTRY["offload"].configure(cfg, cache="lru")
        POLICY_REGISTRY["recompute"].configure(cfg, strategy="cost_aware")
        with repro.compile(mk(), cfg).session() as worker:
            shared = [r.to_dict() for r in
                      worker.run(iters=3, optimizer=SGD(0.05))]
        assert shared == legacy

    def test_simulated_alexnet_round_trip(self):
        def mk():
            return alexnet(batch=4, image=67, num_classes=10)

        cfg = RuntimeConfig.superneurons(concrete=False)
        with Session(mk(), cfg) as sess:
            legacy = [sess.run_iteration(i).to_dict() for i in range(3)]
        with repro.compile(mk(), cfg).session() as worker:
            shared = [worker.run_iteration(i).to_dict() for i in range(3)]
        assert shared == legacy


class TestInferMode:
    def test_forward_loss_bit_identical_to_train_forward_half(self):
        """Same params, same batches, no optimizer: the infer loss at
        iteration i equals the train loss at iteration i exactly."""
        engine = repro.compile(lenet(batch=4, image=12),
                               RuntimeConfig.superneurons())
        with engine.session(mode="infer") as inf:
            infer_losses = [inf.run_iteration(i).loss for i in range(3)]
        with Session(lenet(batch=4, image=12),
                     RuntimeConfig.superneurons()) as train:
            train_losses = [train.run_iteration(i).loss for i in range(3)]
        assert infer_losses == train_losses
        assert all(l is not None for l in infer_losses)

    @pytest.mark.parametrize("name", sorted(NETWORK_BUILDERS))
    def test_infer_peak_strictly_below_train_peak(self, name):
        net = NETWORK_BUILDERS[name](batch=8)
        engine = Engine(net, RuntimeConfig.superneurons(concrete=False))
        with engine.session(mode="train") as t:
            train_peak = t.run_iteration(0).peak_bytes
        with engine.session(mode="infer") as i:
            infer_peak = i.run_iteration(0).peak_bytes
        assert infer_peak < train_peak

    def test_forward_only_route_no_backward_artifacts(self):
        engine = repro.compile(lenet(batch=4, image=12),
                               RuntimeConfig.superneurons())
        with engine.session(mode="infer") as sess:
            res = sess.run_iteration(0)
            route = sess.executor.route
        assert len(route.steps) == route.num_layers  # N, not 2N
        assert route.bstep_of == {}
        assert all(t.phase == "forward" for t in res.traces)
        # backward-bridging machinery never engages
        assert res.extra_forwards == 0
        assert res.d2h_bytes == 0 and res.h2d_bytes == 0

    def test_infer_disarms_offload_and_recompute(self):
        engine = Engine(lenet(batch=2, image=12),
                        RuntimeConfig.superneurons())
        sess = engine.session(mode="infer")
        assert sess.policy_names() == ["liveness", "workspace"]
        sess.close()

    def test_infer_runs_eval_kernels(self):
        """Dropout is identity in infer mode: two infer iterations on
        the same batch match, and differ from the train-mode forward
        (which applies the mask)."""
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

        engine = Engine(build(), RuntimeConfig.superneurons())
        with engine.session(mode="infer") as inf:
            eval_loss = inf.run_iteration(0).loss
        with engine.session(mode="train") as tr:
            train_loss = tr.run_iteration(0).loss
        assert eval_loss != train_loss  # mask applied only in training

    def test_trainer_rejects_infer_sessions(self):
        engine = Engine(lenet(batch=2, image=12))
        with pytest.raises(TypeError, match="train-mode session"):
            Trainer(session=engine.session(mode="infer"))

    def test_infer_rejects_optimizer_loudly(self):
        """No backward pass means the optimizer would silently never
        step — that must be an error, not a constant loss curve."""
        engine = Engine(lenet(batch=2, image=12))
        with engine.session(mode="infer") as sess:
            with pytest.raises(TypeError, match="no backward pass"):
                sess.run_iteration(0, optimizer=SGD(0.05))

    def test_infer_session_rejects_backward_policies(self):
        """for_mode would silently disarm them — arming must fail loudly,
        for registry names and for instances alike."""
        from repro.core.policy import OffloadCachePolicy
        sess = Session(lenet(batch=2, image=12), mode="infer")
        for name in ("offload", "recompute"):
            with pytest.raises(TypeError, match="disarmed in infer mode"):
                sess.with_policy(name)
        with pytest.raises(TypeError, match="disarmed in infer mode"):
            sess.with_policy(OffloadCachePolicy(cache_policy=None))
        sess.with_policy("liveness")  # forward-relevant: still fine
        sess.close()

    def test_engine_copies_its_config(self):
        """Mutating the caller's config after compile must not desync
        the compiled plans from later workers."""
        cfg = RuntimeConfig.superneurons(concrete=False)
        engine = Engine(lenet(batch=2, image=12), cfg)
        with engine.session() as s:
            before = s.run_iteration(0).to_dict()
        cfg.gpu_capacity = 1 << 20  # caller-side mutation: ignored
        cfg.use_offload = False
        with engine.session() as s:
            after = s.run_iteration(0).to_dict()
        assert after == before

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            Session(lenet(batch=2, image=12), mode="predict")


class TestConcurrentSessions:
    def test_plan_compiled_exactly_once_across_sessions(self):
        engine = repro.compile(lenet(batch=4, image=12),
                               RuntimeConfig.superneurons())
        assert engine.compile_count == 0  # lazy until a session runs
        sessions = [engine.session(mode="infer") for _ in range(3)]
        for i in range(2):
            for s in sessions:
                s.run_iteration(i)
        assert engine.compile_count == 1
        assert engine.compiled_modes == ("infer",)
        for s in sessions:
            s.close()

    def test_interleaved_sessions_match_sequential_fresh_sessions(self):
        """Two workers sharing one engine, iterations interleaved,
        reproduce two sequential standalone sessions bit for bit."""
        def mk():
            return lenet(batch=4, image=12)

        engine = repro.compile(mk(), RuntimeConfig.superneurons())
        a = engine.session(mode="infer")
        b = engine.session(mode="infer")
        got_a, got_b = [], []
        for i in range(3):  # interleave at iteration granularity
            got_a.append(a.run_iteration(i).to_dict())
            got_b.append(b.run_iteration(i).to_dict())
        a.close()
        b.close()

        want = []
        for _ in range(2):
            with Session(mk(), RuntimeConfig.superneurons(),
                         mode="infer") as s:
                want.append([s.run_iteration(i).to_dict()
                             for i in range(3)])
        assert got_a == want[0]
        assert got_b == want[1]

    def test_each_session_gets_its_own_substrate(self):
        engine = repro.compile(lenet(batch=4, image=12))
        a, b = engine.session(), engine.session()
        ex_a, ex_b = a.executor, b.executor
        assert ex_a.timeline is not ex_b.timeline
        assert ex_a.allocator is not ex_b.allocator
        assert ex_a.gpu is not ex_b.gpu
        # but the compiled planning artifacts are the very same objects
        assert ex_a.route is ex_b.route
        assert ex_a.plan is ex_b.plan
        a.close()
        b.close()

    def test_engine_sessions_are_config_frozen(self):
        engine = Engine(lenet(batch=2, image=12))
        sess = engine.session()
        with pytest.raises(RuntimeError, match="compiled engine"):
            sess.with_policy("offload")
        with pytest.raises(RuntimeError, match="compiled engine"):
            sess.with_config(concrete=False)
        sess.close()

    def test_session_compile_returns_engine(self):
        sess = Session(lenet(batch=2, image=12),
                       RuntimeConfig.superneurons())
        engine = sess.compile("train", "infer")
        assert isinstance(engine, Engine)
        # one SHARED planning pass (route order + forward dependency
        # scan) covers both modes; each mode adds only its own scout
        assert engine.compile_count == 1
        assert engine.mode_compile_count == 2
        assert engine.compiled_modes == ("infer", "train")
        sess.close()

    def test_train_and_infer_compiles_share_planning_base(self):
        """The batched-compile fix: compiling both modes runs the
        Alg. 1 graph walk exactly once, and both routes reference the
        very same forward order."""
        engine = Engine(lenet(batch=2, image=12),
                        RuntimeConfig.superneurons())
        train = engine.compiled("train")
        infer = engine.compiled("infer")
        assert engine.compile_count == 1
        assert engine.mode_compile_count == 2
        assert train.route.forward_layers is infer.route.forward_layers

    def test_workers_link_the_compiled_step_constants(self):
        """Per-step constants are derived once, by the scout: a worker
        links its closures over the compiled mode's records (a worker
        on another device model derives its own)."""
        from dataclasses import replace
        from repro.core.plan import StepConstants
        engine = Engine(lenet(batch=2, image=12),
                        RuntimeConfig.superneurons(concrete=False))
        cm = engine.compiled("train")
        with engine.executor("train") as ex:
            assert ex.step_constants() is cm.step_constants
            ex.run_iteration(0)
            steps = ex.iteration_plan.steps
        assert len(steps) == len(cm.step_constants)
        for cs, k in zip(steps, cm.step_constants):
            for name in StepConstants.__slots__:
                assert getattr(cs, name) is getattr(k, name), name
        other = replace(engine.config.device, compute_tflops=1.2e12)
        with repro.Executor(engine.net, replace(engine.config, device=other),
                            compiled=cm) as ex:
            assert ex.step_constants() is not cm.step_constants

    def test_engine_bound_compile_warms_requested_modes(self):
        """compile() on a worker must honor its docstring: the named
        modes get compiled on the shared engine, not skipped."""
        engine = Engine(lenet(batch=2, image=12))
        worker = engine.session(mode="infer")
        assert worker.compile("train") is engine
        assert engine.compiled_modes == ("train",)
        worker.close()

    def test_custom_policy_instances_cannot_compile(self):
        class Probe(MemoryPolicy):
            key = "probe"

        sess = Session(lenet(batch=2, image=12)).with_policy(Probe())
        with pytest.raises(TypeError, match="per-session"):
            sess.compile()
        sess.close()


class TestWithoutPolicyRegistry:
    def test_error_lists_registered_names(self):
        sess = Session(lenet(batch=2, image=12))
        with pytest.raises(KeyError) as ei:
            sess.without_policy("nope")
        msg = str(ei.value)
        for name in sorted(POLICY_REGISTRY):
            assert name in msg
        sess.close()

    def test_accepted_names_match_with_policy(self):
        """Every built-in with_policy name round-trips through
        without_policy — the two sets cannot drift."""
        for name in ("liveness", "offload", "recompute", "workspace"):
            sess = Session(lenet(batch=2, image=12),
                           RuntimeConfig.superneurons())
            sess.with_policy(name).without_policy(name)
            # workspace stays in the stack by design (the "none" mode
            # still records zero-workspace choices); the rest drop out
            if name != "workspace":
                assert name not in sess.policy_names()
            sess.close()

    def test_disarming_offload_disarms_the_cache(self):
        sess = Session(lenet(batch=2, image=12))
        sess.with_policy("offload", cache="lru")
        assert sess.config.use_offload and sess.config.use_tensor_cache
        sess.without_policy("offload")
        assert not sess.config.use_offload
        assert not sess.config.use_tensor_cache  # previously left armed
        sess.close()

    def test_disarmed_equals_never_armed(self):
        def mk():
            return lenet(batch=4, image=12)

        with Session(mk()) as plain:
            want = [r.to_dict() for r in plain.run(iters=2,
                                                   optimizer=SGD(0.05))]
        with Session(mk()).with_policy("offload", cache="lru") \
                          .without_policy("offload") as round_trip:
            got = [r.to_dict() for r in round_trip.run(iters=2,
                                                       optimizer=SGD(0.05))]
        assert got == want
