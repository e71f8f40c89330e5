"""Cost-model calibration: predicted vs measured, gated.

``repro.check.cost_model`` predicts a compiled mode's steady-state
iteration — time, DMA traffic, and peak memory — by running one
throwaway simulated replay iteration of it.  This script sweeps the
same workloads the benchmark suite measures and runs each one **both
ways** (prediction via
:func:`~repro.check.cost_model.predict_compiled_mode`, live measurement
via ``engine.session(mode)``), failing if any prediction drifts beyond
``--tolerance`` (default 10%).  Since the prediction and the session
share one executor, that pred-vs-meas comparison only catches a
prediction that stops replaying the session's plan; it cannot catch an
executor regression, which would move both sides together.  What
guards against that drift is the independent check below against the
committed ``BENCH_inference.json`` byte columns.

Workloads (mirroring the trajectory benchmarks):

* **speed-shaped** — ``bench_steady_state``'s AlexNet (image=227) under
  its five configs (the ablation ladder + the eager-offload full
  stack), train mode;
* **inference-shaped** — ``bench_inference``'s nine-net zoo at batch 8
  under the full SuperNeurons config, train *and* infer modes;
* **regime-shaped** — ResNet-50 at batch 8 under SuperNeurons capped at
  256 MiB of GPU memory (the tensor cache must evict), and AlexNet at
  batch 8 under liveness+UTP offloading to a GPU-Direct RDMA pool
  (slower copies than local DRAM), train mode.

Gated quantities, per target:

* ``sim_time`` — predicted vs the measured steady-state
  ``IterationResult.sim_time`` (modeled seconds, deterministic);
* ``peak_bytes`` — predicted vs measured peak GPU residency;
* for the inference-shaped zoo, predicted peaks are *additionally*
  checked against the committed
  ``benchmarks/baselines/BENCH_inference.json``
  ``train_peak_bytes``/``infer_peak_bytes``.

The baseline's ``*_ms_per_iter`` fields are host wall-clock (runner
speed), **not** modeled time — they are deliberately not compared
against predictions; only the deterministic byte columns are.

Run as a script (CI's cost-calibration job does)::

    python benchmarks/calibrate_cost_model.py \
        --output COST_calibration.json --tolerance 0.10

Writes a JSON artifact recording per-target predicted/measured/drift
and exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.check.cost_model import predict_compiled_mode
from repro.device.fabric import REMOTE_RDMA
from repro.zoo import NETWORK_BUILDERS, alexnet

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_INFERENCE = Path(__file__).resolve().parent / "baselines" \
    / "BENCH_inference.json"

MiB = 1024 * 1024

#: bench_steady_state.CONFIGS — the ablation ladder + eager full stack.
SPEED_CONFIGS = [
    ("baseline", RuntimeConfig.baseline),
    ("liveness", RuntimeConfig.liveness_only),
    ("liveness+utp", RuntimeConfig.liveness_offload),
    ("superneurons", RuntimeConfig.superneurons),
    ("superneurons-eager",
     lambda **kw: RuntimeConfig.superneurons(use_tensor_cache=False, **kw)),
]

#: bench_inference.NETS — the whole zoo at serving batch.
ZOO_NETS = [
    ("lenet", 8), ("alexnet", 8), ("vgg16", 8), ("vgg19", 8),
    ("resnet50", 8), ("resnet101", 8), ("resnet152", 8),
    ("inception_v4", 8), ("densenet", 8),
]

#: beyond the default device: (target, net, batch, config), train mode
REGIME_TARGETS = [
    ("resnet50/train@superneurons-256M", "resnet50", 8,
     lambda: RuntimeConfig.superneurons(concrete=False,
                                        gpu_capacity=256 * MiB)),
    ("alexnet/train@liveness+utp-rdma", "alexnet", 8,
     lambda: RuntimeConfig.liveness_offload(
         concrete=False, external_pools=(REMOTE_RDMA,))),
]


def _drift(predicted: float, measured: float) -> float:
    """Relative drift |pred - meas| / meas (0 when both are zero)."""
    if measured == 0:
        return 0.0 if predicted == 0 else float("inf")
    return abs(predicted - measured) / measured


def _measure(engine: Engine, mode: str, iters: int = 4):
    """Steady-state ``IterationResult`` of a live replay session."""
    with engine.session(mode=mode) as sess:
        for i in range(iters):
            res = sess.run_iteration(i)
    return res


def calibrate_target(engine: Engine, mode: str, target: str,
                     tolerance: float, baseline_peak=None) -> dict:
    """Predict + measure one compiled mode; return the drift record."""
    pred = predict_compiled_mode(
        engine.net, engine.compiled(mode), engine.config.for_mode(mode),
        target=target)
    meas = _measure(engine, mode)
    record = {
        "target": target,
        "mode": mode,
        "predicted_ms": round(pred.sim_time * 1e3, 4),
        "measured_ms": round(meas.sim_time * 1e3, 4),
        "time_drift": round(_drift(pred.sim_time, meas.sim_time), 6),
        "predicted_peak_bytes": pred.peak_gpu_bytes,
        "measured_peak_bytes": meas.peak_bytes,
        "peak_drift": round(_drift(pred.peak_gpu_bytes, meas.peak_bytes), 6),
    }
    violations = []
    if record["time_drift"] > tolerance:
        violations.append(f"time drift {record['time_drift']:.1%}")
    if record["peak_drift"] > tolerance:
        violations.append(f"peak drift {record['peak_drift']:.1%}")
    if baseline_peak is not None:
        record["baseline_peak_bytes"] = baseline_peak
        record["baseline_peak_drift"] = round(
            _drift(pred.peak_gpu_bytes, baseline_peak), 6)
        if record["baseline_peak_drift"] > tolerance:
            violations.append(
                f"baseline peak drift {record['baseline_peak_drift']:.1%}")
    record["ok"] = not violations
    record["violations"] = violations
    return record


def _load_baseline_peaks() -> dict:
    """{net: {"train": bytes, "infer": bytes}} from the committed
    inference baseline (absent file -> empty: the live comparison still
    gates everything)."""
    if not BASELINE_INFERENCE.exists():
        return {}
    records = json.loads(BASELINE_INFERENCE.read_text())
    return {r["net"]: {"train": r["train_peak_bytes"],
                       "infer": r["infer_peak_bytes"]}
            for r in records}


def run(tolerance: float, batch: int) -> list:
    records = []

    # speed-shaped: alexnet across the five bench_steady_state configs
    for name, make_config in SPEED_CONFIGS:
        net = alexnet(batch=batch, image=227)
        engine = Engine(net, make_config(concrete=False))
        records.append(calibrate_target(
            engine, "train", f"alexnet/train@{name}", tolerance))

    # inference-shaped: the zoo under superneurons, train + infer,
    # with predicted peaks also held against the committed baseline
    baseline = _load_baseline_peaks()
    for name, zbatch in ZOO_NETS:
        net = NETWORK_BUILDERS[name](batch=zbatch)
        engine = Engine(net, RuntimeConfig.superneurons(concrete=False))
        for mode in ("train", "infer"):
            records.append(calibrate_target(
                engine, mode, f"{name}/{mode}@superneurons", tolerance,
                baseline_peak=baseline.get(name, {}).get(mode)))

    for target, name, rbatch, make_config in REGIME_TARGETS:
        engine = Engine(NETWORK_BUILDERS[name](batch=rbatch), make_config())
        records.append(calibrate_target(engine, "train", target, tolerance))

    return records


def render(records: list, tolerance: float) -> str:
    lines = [f"cost-model calibration (tolerance {tolerance:.0%})",
             f"{'target':<34} {'pred ms':>10} {'meas ms':>10} "
             f"{'drift':>8} {'pred MiB':>9} {'meas MiB':>9} {'drift':>8}"]
    for r in records:
        mark = "" if r["ok"] else "  <== " + "; ".join(r["violations"])
        lines.append(
            f"{r['target']:<34} {r['predicted_ms']:>10.3f} "
            f"{r['measured_ms']:>10.3f} {r['time_drift']:>8.2%} "
            f"{r['predicted_peak_bytes'] / MiB:>9.1f} "
            f"{r['measured_peak_bytes'] / MiB:>9.1f} "
            f"{r['peak_drift']:>8.2%}{mark}")
    bad = [r for r in records if not r["ok"]]
    lines.append(f"{len(records)} targets, {len(bad)} over tolerance")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output",
                    default=str(REPO_ROOT / "COST_calibration.json"),
                    help="where to write the JSON calibration artifact")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="max relative drift, predicted vs measured")
    ap.add_argument("--batch", type=int, default=32,
                    help="speed-workload batch (bench_steady_state's)")
    args = ap.parse_args(argv)
    if not 0 < args.tolerance < 1:
        ap.error("--tolerance must be in (0, 1)")
    if args.batch < 1:
        ap.error("--batch must be >= 1")

    records = run(args.tolerance, args.batch)
    print(render(records, args.tolerance))

    bad = [r for r in records if not r["ok"]]
    artifact = {
        "bench": "cost_calibration",
        "tolerance": args.tolerance,
        "targets": len(records),
        "violations": len(bad),
        "ok": not bad,
        "records": records,
    }
    Path(args.output).write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
