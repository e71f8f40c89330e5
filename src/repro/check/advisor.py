"""Policy advisor: rank the ablation ladder, recommend a rung.

The paper's Alg. 2 makes its offload/recompute decisions *online*,
per-layer, from measured costs.  With the cost model
(:mod:`repro.check.cost_model`) those costs come from one throwaway
simulated replay iteration per compiled mode — so the whole decision
can be made before any real session runs: predict every ablation
rung's iteration time and peak memory for a net, drop the rungs whose
peak exceeds the memory budget, and recommend the fastest rung that
fits.  That answers "which policy stack do I deploy on a 4 GiB card?"
per device class with ``check cost --budget N --advise``.

The ladder defaults to the canonical ablation sequence the benchmarks
and ``check plan --all`` sweep; each rung maps to the
:class:`~repro.core.config.RuntimeConfig` classmethod of the same name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.check.cost_model import CostPrediction, predict_compiled_mode
from repro.core.config import RuntimeConfig

MiB = 1024 * 1024

#: The canonical ablation ladder, cheapest-memory last.  Each name is a
#: ``RuntimeConfig`` classmethod.
DEFAULT_LADDER = ("baseline", "liveness_only", "liveness_offload",
                  "superneurons")


@dataclass
class RungAssessment:
    """One ladder rung's predictions across the requested modes."""

    rung: str
    predictions: Dict[str, CostPrediction] = field(default_factory=dict)

    @property
    def peak_bytes(self) -> int:
        """Worst predicted GPU peak across modes (what must fit)."""
        return max(p.peak_gpu_bytes for p in self.predictions.values())

    def time_for(self, mode: str) -> float:
        return self.predictions[mode].sim_time

    def fits(self, budget: Optional[int]) -> bool:
        return budget is None or self.peak_bytes <= budget

    def to_dict(self) -> dict:
        return {
            "rung": self.rung,
            "peak_bytes": self.peak_bytes,
            "modes": {m: p.to_dict() for m, p in self.predictions.items()},
        }


@dataclass
class Advice:
    """The ranked ladder plus the recommendation for one net."""

    net: str
    budget: Optional[int]
    rank_mode: str
    ladder: List[RungAssessment] = field(default_factory=list)
    recommended: Optional[str] = None

    def assessment(self, rung: str) -> RungAssessment:
        for a in self.ladder:
            if a.rung == rung:
                return a
        raise KeyError(rung)

    def render(self) -> str:
        budget_txt = f"{self.budget / MiB:.0f} MiB" \
            if self.budget is not None else "none"
        lines = [f"advisor: {self.net} (budget {budget_txt}, "
                 f"ranked by {self.rank_mode} time)"]
        for a in sorted(self.ladder,
                        key=lambda a: a.time_for(self.rank_mode)):
            marks = []
            if not a.fits(self.budget):
                marks.append("over budget")
            if a.rung == self.recommended:
                marks.append("<== recommended")
            times = "  ".join(
                f"{m}={p.sim_time * 1e3:8.2f} ms"
                for m, p in sorted(a.predictions.items()))
            lines.append(
                f"  {a.rung:18s} {times}  "
                f"peak={a.peak_bytes / MiB:8.1f} MiB"
                + ("  " + ", ".join(marks) if marks else ""))
        if self.recommended is None:
            lines.append(
                "  no rung fits the budget — the net needs a smaller "
                "batch or a larger device")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "net": self.net,
            "budget": self.budget,
            "rank_mode": self.rank_mode,
            "recommended": self.recommended,
            "ladder": [a.to_dict() for a in self.ladder],
        }


def assess_ladder(make_net: Callable[[], object],
                  modes: Sequence[str] = ("train", "infer"),
                  rungs: Sequence[str] = DEFAULT_LADDER,
                  **config_kw) -> List[RungAssessment]:
    """Predict every rung of the ladder for a net.

    ``make_net`` must return a *fresh* net per call (each rung compiles
    its own engine); ``config_kw`` (e.g. ``gpu_capacity``, ``device``)
    is forwarded to every rung's config constructor.
    """
    from repro.core.engine import Engine  # lazy: check <- core cycle
    out = []
    for rung in rungs:
        cfg = getattr(RuntimeConfig, rung)(concrete=False, **config_kw)
        engine = Engine(make_net(), cfg)
        a = RungAssessment(rung=rung)
        for mode in modes:
            cm = engine.compiled(mode)
            a.predictions[mode] = predict_compiled_mode(
                engine.net, cm, engine.config.for_mode(mode),
                target=f"{engine.net.name}/{mode}@{rung}")
        out.append(a)
    return out


def recommend(ladder: Sequence[RungAssessment],
              budget: Optional[int],
              rank_mode: str = "train") -> Optional[str]:
    """The fastest rung (by ``rank_mode`` time) whose worst-mode peak
    fits the budget; ``None`` when nothing fits."""
    fitting = [a for a in ladder if a.fits(budget)]
    if not fitting:
        return None
    return min(fitting, key=lambda a: a.time_for(rank_mode)).rung


def advise(make_net: Callable[[], object], net_name: str,
           budget: Optional[int] = None,
           modes: Sequence[str] = ("train", "infer"),
           rungs: Sequence[str] = DEFAULT_LADDER,
           rank_mode: str = "train",
           **config_kw) -> Advice:
    """Rank the ladder for one net and pick the cheapest fitting rung."""
    if rank_mode not in modes:
        raise ValueError(f"rank_mode {rank_mode!r} not in modes {modes}")
    ladder = assess_ladder(make_net, modes=modes, rungs=rungs, **config_kw)
    return Advice(net=net_name, budget=budget, rank_mode=rank_mode,
                  ladder=list(ladder),
                  recommended=recommend(ladder, budget, rank_mode))
