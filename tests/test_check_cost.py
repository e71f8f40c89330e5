"""Cost model (``repro check cost``): the prediction equals the
session's steady-state iteration, every PERF rule fires on a
seeded-pathology fixture while the default ablation ladder stays
clean, the advisor recommends the cheapest fitting rung, and the
engine/CLI wiring works end to end.

The pathology fixtures perturb the *device model* (PCIe bandwidth,
compute throughput) rather than the schedules: the same compiled plans
become uneconomic on different hardware, which is exactly the
what-if question the cost model exists to answer.
"""

import json
from dataclasses import replace

import pytest

from repro.check.advisor import advise, assess_ladder, recommend
from repro.check.cost_model import (
    CostThresholds,
    analyze_prediction,
    cost_compiled_mode,
    cost_engine,
    predict_compiled_mode,
    serving_fill_check,
)
from repro.check.diagnostics import PERF_RULES
from repro.cli import main
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.device.fabric import REMOTE_RDMA
from repro.device.model import K40_MODEL
from repro.zoo import NETWORK_BUILDERS

MiB = 1024 * 1024

RUNGS = ("baseline", "liveness_only", "liveness_offload", "superneurons")


def _engine(net="alexnet", rung="superneurons", batch=8, **kw):
    cfg = getattr(RuntimeConfig, rung)(concrete=False, **kw)
    return Engine(NETWORK_BUILDERS[net](batch=batch), cfg)


def _predict(engine, mode="train"):
    return predict_compiled_mode(engine.net, engine.compiled(mode),
                                 engine.config.for_mode(mode))


def _measure(engine, mode="train", iters=4):
    with engine.session(mode=mode) as sess:
        for i in range(iters):
            res = sess.run_iteration(i)
    return res


def _rules(diags):
    return sorted({d.rule for d in diags})


# --------------------------------------------------------------------------- #
# calibration: predicted == measured (the prediction is a replayed
# iteration of the same executor a session runs)
# --------------------------------------------------------------------------- #
#: the lenet/alexnet x ladder grid, plus the regimes beyond it: a GPU
#: capacity cap that forces cache evictions, and a slower external pool
CALIBRATION_CASES = [
    pytest.param(net, rung, mode, {}, id=f"{mode}-{rung}-{net}")
    for mode in ("train", "infer") for rung in RUNGS
    for net in ("lenet", "alexnet")
] + [
    pytest.param("resnet50", "superneurons", "train",
                 {"gpu_capacity": 256 * MiB},
                 id="train-superneurons-resnet50-cap256MiB"),
    pytest.param("alexnet", "liveness_offload", "train",
                 {"external_pools": (REMOTE_RDMA,)},
                 id="train-liveness_offload-alexnet-rdma"),
]


class TestCalibration:
    @pytest.mark.parametrize("net,rung,mode,kw", CALIBRATION_CASES)
    def test_prediction_reconstructs_measured_iteration(
            self, net, rung, mode, kw):
        engine = _engine(net, rung, **kw)
        pred = _predict(engine, mode)
        meas = _measure(engine, mode)
        assert pred.sim_time == pytest.approx(meas.sim_time, rel=1e-9)
        assert pred.peak_gpu_bytes == meas.peak_bytes
        assert pred.d2h_bytes == meas.d2h_bytes
        assert pred.h2d_bytes == meas.h2d_bytes
        assert pred.stall_seconds == pytest.approx(meas.stall_seconds,
                                                   abs=1e-12)
        assert pred.extra_forwards == meas.extra_forwards
        assert pred.pressure_evictions == meas.cache_evictions

    def test_eager_offload_stack_reconstructs_too(self):
        engine = _engine("alexnet", "superneurons",
                         use_tensor_cache=False)
        pred = _predict(engine)
        meas = _measure(engine)
        assert pred.sim_time == pytest.approx(meas.sim_time, rel=1e-9)
        assert pred.peak_gpu_bytes == meas.peak_bytes

    def test_prediction_is_per_iteration_steady_state(self):
        """Two predictions of the same compiled mode are identical
        (pure function of the frozen schedules)."""
        engine = _engine("lenet")
        a, b = _predict(engine), _predict(engine)
        assert a.sim_time == b.sim_time
        assert a.peak_gpu_bytes == b.peak_gpu_bytes
        assert a.alloc_calls == b.alloc_calls


# --------------------------------------------------------------------------- #
# the default ladder is clean; every PERF rule fires on its pathology
# --------------------------------------------------------------------------- #
class TestRules:
    @pytest.mark.parametrize("rung", RUNGS)
    def test_default_ladder_is_clean(self, rung):
        engine = _engine("alexnet", rung)
        for mode in ("train", "infer"):
            _, diags = cost_compiled_mode(
                engine.net, engine.compiled(mode),
                engine.config.for_mode(mode))
            assert diags == [], _rules(diags)

    def test_perf001_perf004_late_prefetch_on_slow_pcie(self):
        dev = replace(K40_MODEL, pcie_h2d=4e9, pcie_d2h=4e9)
        engine = _engine("alexnet", "liveness_offload", device=dev)
        pred, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        assert "PERF001" in _rules(diags)   # stalls dominate
        assert "PERF004" in _rules(diags)   # with idle DMA headroom
        assert pred.stall_seconds > 0

    def test_perf002_offload_without_payback(self):
        dev = replace(K40_MODEL, pcie_h2d=2e9, pcie_d2h=2e9)
        engine = _engine("alexnet", "superneurons", device=dev,
                         use_tensor_cache=False)
        _, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        assert "PERF002" in _rules(diags)

    def test_perf003_uneconomic_recompute_on_weak_compute(self):
        dev = replace(K40_MODEL, compute_tflops=1e10, mem_bandwidth=1e9)
        engine = _engine("alexnet", "superneurons", device=dev)
        pred, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        assert _rules(diags) == ["PERF003"]
        assert pred.recompute_seconds > 0

    def test_perf005_over_budget_is_an_error(self):
        engine = _engine("alexnet", "superneurons")
        _, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"), budget=100 * MiB)
        over = [d for d in diags if d.rule == "PERF005"]
        assert over and all(d.severity == "error" for d in over)

    def test_perf006_serving_padding_waste(self):
        assert _rules(serving_fill_check(64, 4)) == ["PERF006"]
        assert serving_fill_check(8, 16) == []

    def test_thresholds_are_tunable(self):
        """A zero stall threshold flags even the clean ladder's known
        overlap stalls — proving the defaults, not the detector, keep
        the zoo quiet."""
        engine = _engine("alexnet", "liveness_offload")
        pred = _predict(engine)
        strict = CostThresholds(late_stall_frac=0.0,
                                overlap_stall_frac=0.0)
        assert "PERF001" in _rules(analyze_prediction(pred,
                                                      thresholds=strict))
        assert analyze_prediction(pred) == []

    def test_every_perf_rule_has_a_catalog_entry(self):
        fired = set()
        dev = replace(K40_MODEL, pcie_h2d=2e9, pcie_d2h=2e9)
        engine = _engine("alexnet", "liveness_offload", device=dev)
        _, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"), budget=100 * MiB)
        fired.update(_rules(diags))
        dev = replace(K40_MODEL, compute_tflops=1e10, mem_bandwidth=1e9)
        engine = _engine("alexnet", "superneurons", device=dev)
        _, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        fired.update(_rules(diags))
        fired.update(_rules(serving_fill_check(64, 4)))
        assert fired == set(PERF_RULES)


# --------------------------------------------------------------------------- #
# the policy advisor (static Alg. 2): rank the ladder under a budget
# --------------------------------------------------------------------------- #
class TestAdvisor:
    def _ladder(self, net="lenet", batch=8):
        return assess_ladder(lambda: NETWORK_BUILDERS[net](batch=batch))

    def test_assess_ladder_covers_every_rung(self):
        ladder = self._ladder()
        assert [r.rung for r in ladder] == list(RUNGS)
        for rung in ladder:
            assert set(rung.predictions) == {"train", "infer"}
            assert rung.peak_bytes > 0

    def test_recommend_fastest_fitting_rung(self):
        ladder = self._ladder()
        roomy = max(r.peak_bytes for r in ladder) + 1
        pick = recommend(ladder, budget=roomy)
        fastest = min(ladder, key=lambda r: r.time_for("train"))
        assert pick == fastest.rung
        tight = min(r.peak_bytes for r in ladder)
        fitting = [r for r in ladder if r.peak_bytes <= tight]
        assert recommend(ladder, budget=tight) == min(
            fitting, key=lambda r: r.time_for("train")).rung
        assert recommend(ladder, budget=1) is None

    def test_advise_renders_recommendation(self):
        adv = advise(lambda: NETWORK_BUILDERS["lenet"](batch=8),
                     "lenet", budget=1024 * MiB)
        text = adv.render()
        assert "recommended" in text
        assert adv.recommended is not None
        assert adv.to_dict()["net"] == "lenet"

    def test_advise_reports_no_fit(self):
        adv = advise(lambda: NETWORK_BUILDERS["lenet"](batch=8),
                     "lenet", budget=1)
        assert adv.recommended is None
        assert "no rung fits the budget" in adv.render()


# --------------------------------------------------------------------------- #
# engine + module-level wiring
# --------------------------------------------------------------------------- #
class TestEngineHook:
    def test_cost_engine_sweeps_modes(self):
        engine = _engine("lenet")
        report = cost_engine(engine)
        assert report.tool == "cost-model"
        assert len(report.checked) == 2
        assert report.ok
        assert len(report.metrics) == 2


# --------------------------------------------------------------------------- #
# CLI: repro check cost
# --------------------------------------------------------------------------- #
class TestCheckCostCLI:
    def test_clean_net_exits_zero(self, capsys):
        rc = main(["check", "cost", "--net", "lenet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_budget_violation_exits_one(self, capsys):
        rc = main(["check", "cost", "--net", "alexnet",
                   "--budget", "0.05"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PERF005" in out

    def test_advise_prints_ladder_table(self, capsys):
        rc = main(["check", "cost", "--net", "lenet",
                   "--budget", "1", "--advise"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recommended" in out
        assert "superneurons" in out

    def test_json_artifact_carries_metrics(self, tmp_path):
        out_path = tmp_path / "cost.json"
        rc = main(["check", "cost", "--net", "lenet", "--format",
                   "json", "--output", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["tool"] == "cost-model"
        assert data["schema_version"] == 2
        assert set(PERF_RULES) <= set(data["rules"])
        sample = data["metrics"]["lenet/train@superneurons"]
        assert sample["peak_gpu_bytes"] > 0
        assert sample["sim_time_ms"] > 0

    def test_unknown_rung_is_usage_error(self, capsys):
        rc = main(["check", "cost", "--net", "lenet",
                   "--configs", "bogus"])
        assert rc == 2
        assert "unknown ladder config" in capsys.readouterr().err

    def test_modes_filter(self, tmp_path):
        out_path = tmp_path / "cost.json"
        rc = main(["check", "cost", "--net", "lenet",
                   "--modes", "infer", "--configs", "superneurons",
                   "--format", "json", "--output", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert "lenet/infer@superneurons" in data["checked"]
        assert not any("train" in t for t in data["checked"])
