"""Plan verifier: known-good zoo plans pass, seeded-bad plans fail.

Every known-bad fixture tampers a *real* engine-compiled mode — a
``dataclasses.replace`` on one gathered ``PolicyPlan`` — or the tensor
state the replay runs on, so each PLAN rule is proven against the same
schedules the verifier sees in production, not synthetic strawmen.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.check import (
    Diagnostic,
    PlanVerificationError,
    verify_compiled_mode,
    verify_engine,
)
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.runtime import Executor
from repro.core.tensor_state import SessionTensorState
from repro.graph.route import Phase
from repro.layers.data import DataLayer
from repro.tensors.tensor import TensorKind
from repro.zoo import alexnet, lenet

LADDER = {
    "baseline": RuntimeConfig.baseline,
    "liveness_only": RuntimeConfig.liveness_only,
    "liveness_offload": RuntimeConfig.liveness_offload,
    "superneurons": RuntimeConfig.superneurons,
}


def _engine(net_builder, rung, **kw):
    return Engine(net_builder(batch=8), LADDER[rung](concrete=False, **kw))


def _compiled(net_builder=alexnet, rung="liveness_only", mode="train"):
    eng = _engine(net_builder, rung)
    return eng, eng.compiled(mode)


def _plan(cm, key):
    """The gathered PolicyPlan of the ``key`` stack position."""
    return next(g.plan for g in cm.gathered if g.key == key)


def _tamper(cm, key, **fields):
    """``cm`` with fields of the ``key`` policy's PolicyPlan replaced."""
    return replace(cm, gathered=tuple(
        replace(g, plan=replace(g.plan, **fields)) if g.key == key else g
        for g in cm.gathered))


def _add(schedule, index, *tensors):
    """A copy of a per-step schedule with ``tensors`` appended at
    ``index``."""
    out = dict(schedule)
    out[index] = tuple(out.get(index, ())) + tensors
    return out


def _verify(eng, cm, mode="train", **config):
    return verify_compiled_mode(
        eng.net, cm, replace(eng.config.for_mode(mode), **config),
        target=f"{eng.net.name}/{mode}")


def _rules(diags):
    return sorted({d.rule for d in diags})


# --------------------------------------------------------------------------- #
# known-good: every zoo rung/mode must verify clean
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("builder", [lenet, alexnet])
@pytest.mark.parametrize("rung", sorted(LADDER))
def test_zoo_plans_verify_clean(builder, rung):
    report = verify_engine(_engine(builder, rung))
    assert report.ok, report.render()
    assert not report.warnings, report.render()
    assert len(report.checked) == 2  # train + infer


def test_report_shape():
    report = verify_engine(_engine(lenet, "superneurons"))
    data = json.loads(report.to_json())
    assert data["tool"] == "plan-verifier"
    assert data["ok"] is True
    assert data["summary"] == {"errors": 0, "warnings": 0}
    assert "lenet/train" in data["checked"]


# --------------------------------------------------------------------------- #
# known-bad: each seeded corruption must be rejected with its rule
# --------------------------------------------------------------------------- #

def _first_producer_consumer_gap(route):
    """(step j, tensor) where the tensor is written before step j and
    read by step j's forward kernel — the slot to seed a premature free
    into."""
    written = {}
    for s in route.steps:
        if s.phase is not Phase.FORWARD:
            continue
        for t in route.forward_reads(s.layer):
            w = written.get(t.tensor_id)
            if w is not None and s.index > w:
                return s.index, t
        written[s.layer.output.tensor_id] = s.index
    raise AssertionError("no producer/consumer gap found")


def test_premature_free_rejected_as_use_after_free():
    eng, cm = _compiled(rung="liveness_only")
    j, t = _first_producer_consumer_gap(cm.route)
    frees = _plan(cm, "liveness").step_frees
    diags = _verify(eng, _tamper(cm, "liveness",
                                 step_frees=_add(frees, j - 1, t)))
    assert _rules(diags) == ["PLAN001"]
    hit = next(d for d in diags if d.rule == "PLAN001")
    assert hit.tensor == t.name
    assert hit.step == j
    assert hit.severity == "error"


def test_dropped_prefetch_rejected_as_missing_prefetch():
    eng, cm = _compiled(rung="liveness_offload")
    assert _plan(cm, "offload").step_prefetch, "fixture needs prefetches"
    diags = _verify(eng, _tamper(cm, "offload", step_prefetch={}))
    assert _rules(diags) == ["PLAN002"]
    # provenance points at the stalled consumer step
    assert all(d.step is not None and d.op for d in diags)


def test_offloaded_read_without_prefetch_is_flagged():
    eng, cm = _compiled(rung="liveness_offload")
    off = _plan(cm, "offload")
    offloaded = {t.tensor_id for ts in off.step_offloads.values()
                 for t in ts}
    i, (t, _anchor) = next(
        (i, e) for i, es in sorted(off.step_prefetch.items())
        for e in es if e[0].tensor_id in offloaded)
    prefetch = dict(off.step_prefetch)
    prefetch[i] = tuple(e for e in prefetch[i] if e[0] is not t)
    diags = _verify(eng, _tamper(cm, "offload", step_prefetch=prefetch))
    assert [(d.rule, d.tensor, d.step) for d in diags] \
        == [("PLAN002", t.name, i + 1)]
    # ... and the scheduled prefetch cures it
    assert _verify(eng, cm) == []


def test_unbalanced_lock_rejected(monkeypatch):
    eng, cm = _compiled(rung="liveness_only")
    victim = eng.net.layers[1].output
    unlock = SessionTensorState.unlock

    def leaky_unlock(self, t):
        if t.tensor_id != victim.tensor_id:
            unlock(self, t)

    monkeypatch.setattr(SessionTensorState, "unlock", leaky_unlock)
    diags = _verify(eng, cm)
    assert [(d.rule, d.tensor) for d in diags] == [("PLAN003",
                                                    victim.name)]
    assert "barrier" in diags[0].message
    assert diags[0].step is None


def test_dead_recompute_anchor_rejected():
    eng, cm = _compiled(rung="superneurons")
    covered = cm.liveness_plan.recompute_covered
    route = cm.route
    demand, t = next(
        (s.index, t) for s in route.steps
        if s.phase is Phase.BACKWARD and not isinstance(s.layer, DataLayer)
        for t in route.backward_reads(s.layer)
        if t.tensor_id in covered)
    anchor = cm.recompute_plan.anchor_output_of(
        eng.net.layers[t.producer].layer_id)
    frees = _plan(cm, "liveness").step_frees
    diags = _verify(eng, _tamper(cm, "liveness",
                                 step_frees=_add(frees, demand - 1, anchor)))
    assert "PLAN004" in _rules(diags)
    hit = next(d for d in diags if d.rule == "PLAN004")
    assert (hit.step, hit.tensor) == (demand, t.name)
    assert anchor.name in hit.message


def test_over_capacity_rejected():
    eng, cm = _compiled(rung="liveness_only")
    params = sum(p.nbytes for l in eng.net.layers for p in l.params)
    # the parameters fit, the first activation (the input batch) does not
    diags = _verify(eng, cm, gpu_capacity=params + (1 << 20))
    assert _rules(diags) == ["PLAN005"]
    assert all(d.severity == "error" for d in diags)
    assert diags[0].step == 0


def test_cache_mode_fits_below_the_eager_free_peak():
    # the replay runs the runtime's pressure paths (best-effort
    # workspace scratch, the tensor cache's eviction) instead of
    # modelling a fixed peak: a capacity below the unpressured peak
    # still verifies clean when those paths make room
    eng, cm = _compiled(lenet, rung="superneurons")
    with Executor(eng.net, eng.config, compiled=cm) as ex:
        res = ex.run_iteration(0)
    capacity = res.param_bytes + int(0.8 * res.activation_peak_bytes)
    assert capacity < res.peak_bytes
    assert _verify(eng, cm, gpu_capacity=capacity) == []


def test_double_free_rejected():
    eng, cm = _compiled(rung="liveness_only")
    frees = _plan(cm, "liveness").step_frees
    i = min(i for i, ts in frees.items()
            if any(t.kind is TensorKind.DATA for t in ts))
    diags = _verify(eng, _tamper(cm, "liveness",
                                 step_frees=_add(frees, i + 1, *frees[i])))
    assert _rules(diags) == ["PLAN006"]
    assert all("freed twice" in d.message and d.step == i + 1
               for d in diags)


def test_offload_of_non_resident_tensor_rejected():
    eng, cm = _compiled(rung="liveness_offload")
    frees = _plan(cm, "liveness").step_frees
    outputs = {l.output.tensor_id for l in eng.net.layers}
    i, t = next((i, t) for i, ts in sorted(frees.items()) for t in ts
                if t.tensor_id in outputs)
    offloads = _plan(cm, "offload").step_offloads
    diags = _verify(eng, _tamper(cm, "offload",
                                 step_offloads=_add(offloads, i + 1, t)))
    assert [(d.rule, d.tensor) for d in diags] == [("PLAN006", t.name)]
    assert "offload" in diags[0].message


def test_free_before_creation_is_the_legal_noop():
    # the UNALLOCATED -> FREED edge (real liveness lists free data:grad,
    # which no step ever materializes); freeing a tensor before its
    # producer runs must not cry wolf either
    eng, cm = _compiled(rung="liveness_only")
    later = eng.net.layers[3].output
    frees = _plan(cm, "liveness").step_frees
    assert _verify(eng, _tamper(cm, "liveness",
                                step_frees=_add(frees, 0, later))) == []


def test_replay_crash_is_not_a_finding(monkeypatch):
    # an exception that is no PLAN finding is a runtime or checker bug:
    # it must propagate (the CLI maps it to exit 2), never pass silently
    eng, cm = _compiled(lenet, rung="liveness_only")

    def boom(self):
        raise RuntimeError("seeded runtime bug")

    monkeypatch.setattr(Executor, "_end_of_iteration_cleanup", boom)
    with pytest.raises(RuntimeError, match="seeded runtime bug"):
        _verify(eng, cm)


# --------------------------------------------------------------------------- #
# engine wiring: RuntimeConfig.verify_plans gates the compile cache
# --------------------------------------------------------------------------- #

def test_engine_verify_accepts_good_plans():
    eng = Engine(lenet(batch=8), RuntimeConfig.superneurons(
        concrete=False, verify_plans=True))
    eng.compiled("train")
    eng.compiled("infer")
    assert eng.compiled_modes == ("infer", "train")


def test_config_knob_arms_verification(monkeypatch):
    import repro.check.plan_verifier as pv
    seen = []

    def spy(net, cm, cfg, target=None):
        seen.append(target)
        return []

    monkeypatch.setattr(pv, "verify_compiled_mode", spy)
    Engine(lenet(batch=8), RuntimeConfig.superneurons(
        concrete=False, verify_plans=True)).compiled("train")
    assert seen == ["lenet/train"]
    Engine(lenet(batch=8),
           RuntimeConfig.superneurons(concrete=False)).compiled("train")
    assert seen == ["lenet/train"]


def test_engine_verify_refuses_bad_plan(monkeypatch):
    import repro.check.plan_verifier as pv

    def bad_verify(net, cm, cfg, target=None):
        return [Diagnostic(rule="PLAN001", message="seeded", target=target)]

    monkeypatch.setattr(pv, "verify_compiled_mode", bad_verify)
    eng = Engine(lenet(batch=8), RuntimeConfig.superneurons(
        concrete=False, verify_plans=True))
    with pytest.raises(PlanVerificationError) as exc:
        eng.compiled("train")
    assert "PLAN001" in str(exc.value)
    assert exc.value.report.errors
    # the failing mode was NOT cached: fixing the verifier lets the
    # same engine compile it cleanly
    assert eng.compiled_modes == ()
    monkeypatch.undo()
    eng.compiled("train")
    assert eng.compiled_modes == ("train",)


def test_verify_compiled_mode_matches_verify_engine():
    eng = _engine(alexnet, "superneurons")
    direct = verify_compiled_mode(eng.net, eng.compiled("train"),
                                  eng.config.for_mode("train"),
                                  target="alexnet/train")
    assert direct == []


def test_verify_leaves_a_concrete_engine_untouched():
    # the check replay is simulated: verifying a concrete engine's
    # modes touches no parameter value and compiles nothing again
    eng = Engine(lenet(batch=8), RuntimeConfig.superneurons())
    for mode in ("train", "infer"):
        eng.compiled(mode)
    params = eng.snapshot_params()
    compiles = eng.mode_compile_count
    assert verify_engine(eng).ok
    assert eng.mode_compile_count == compiles
    after = eng.snapshot_params()
    assert after.keys() == params.keys()
    assert all(np.array_equal(after[k], params[k]) for k in params)


# --------------------------------------------------------------------------- #
# satellite: env-armed placement validation
# --------------------------------------------------------------------------- #

def test_state_validation_armed_by_suite_env():
    # conftest.py sets REPRO_VALIDATE_STATE=1 for the whole suite, and
    # validate=None (the executor default) defers to it
    assert SessionTensorState().validate is True
    assert SessionTensorState(validate=False).validate is False


def test_state_validation_env_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE_STATE", "0")
    assert SessionTensorState().validate is False
    monkeypatch.setenv("REPRO_VALIDATE_STATE", "true")
    assert SessionTensorState().validate is True
    monkeypatch.delenv("REPRO_VALIDATE_STATE")
    assert SessionTensorState().validate is False
    assert SessionTensorState(validate=True).validate is True


def test_config_validate_state_overrides_env(monkeypatch):
    from repro.core.runtime import Executor
    monkeypatch.setenv("REPRO_VALIDATE_STATE", "1")
    cfg = RuntimeConfig.superneurons(concrete=False, validate_state=False)
    with Executor(lenet(batch=4), cfg) as ex:
        assert ex.state.validate is False
    with Executor(lenet(batch=4),
                  RuntimeConfig.superneurons(concrete=False)) as ex:
        assert ex.state.validate is True
