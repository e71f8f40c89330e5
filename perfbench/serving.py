"""The lenet serving fleet: a paced open-loop phase and a flood phase.

How completion is observed
--------------------------
``RequestFuture`` carries no completion time, so the benchmark wraps
``ServerMetrics.record_request`` (public; the worker calls it right
after the delivery that resolved the future) and copies the request's
own timestamps onto its future: ``complete_time`` is stamped by the
worker under the request lock immediately before the future is set.
The true resolve instant therefore lies between ``complete_time`` and
the moment the wrapper runs; the wrapper stamps the latter too, and the
gap's p99 is reported as ``paced.obs_err_p99_us`` — the bound on how
far an observed completion can be from the real one.  Both stamps use
``time.monotonic``, the fleet's clock, as does the paced schedule.
"""

from __future__ import annotations

import math
import random
import threading
import time
from statistics import median
from typing import Dict, List, Optional, Sequence

from calib import MIN_SAMPLES

LANE_BATCHES = (4, 16)
MAX_WAIT = 0.004              # anti-starvation hold of the b16 lane
MAX_PENDING_ROWS = 1024       # per lane; flood holds at most 32 x 16 rows
PACED_RATE = 800.0            # req/s, about a quarter of flood capacity
FLOOD_OUTSTANDING = 32
FLOOD_WINDOW = 256            # completions per calibrated flood pair
SMALL_FRAC = 0.85             # 85% requests of 1..6 rows, 15% of 16
DRAIN_TIMEOUT = 60.0


class CompletionHook:
    """Wraps ``ServerMetrics.record_request``/``record_failure`` to
    stamp completion onto each future and wake the closed-loop generator."""

    def __init__(self) -> None:
        self.sem: Optional[threading.Semaphore] = None
        self._saved = []

    def install(self) -> None:
        from repro.serve.metrics import ServerMetrics
        record_request = ServerMetrics.record_request
        record_failure = ServerMetrics.record_failure
        clock = time.monotonic
        hook = self

        def on_request(metrics, req):
            seen = clock()
            req.future.bench_times = (req.enqueue_time, req.dispatch_time,
                                      req.complete_time, seen)
            record_request(metrics, req)
            sem = hook.sem
            if sem is not None:
                sem.release()

        def on_failure(metrics, req):
            record_failure(metrics, req)
            sem = hook.sem
            if sem is not None:
                sem.release()

        self._saved = [("record_request", record_request),
                       ("record_failure", record_failure)]
        ServerMetrics.record_request = on_request
        ServerMetrics.record_failure = on_failure

    def uninstall(self) -> None:
        from repro.serve.metrics import ServerMetrics
        for name, fn in self._saved:
            setattr(ServerMetrics, name, fn)
        self._saved = []


def build_fleet(config):
    """Build the lane nets, their engines and the fleet, and start it
    (``start`` compiles each lane's infer mode)."""
    from repro import Engine, zoo
    from repro.serve import ServingFleet
    engines = [Engine(zoo.lenet(batch=b), config) for b in LANE_BATCHES]
    return ServingFleet(engines, workers=1, policy="greedy-fill",
                        max_wait=MAX_WAIT,
                        max_pending_rows=MAX_PENDING_ROWS).start()


def request_sizes(rng: random.Random, n: int) -> List[int]:
    return [rng.randint(1, 6) if rng.random() < SMALL_FRAC else 16
            for _ in range(n)]


def _counts(fleet):
    """Fleet-wide (completed, failed, shed, batches, rows, padded rows,
    compute seconds) from the lanes' public metrics."""
    completed, failed, shed = fleet.metrics.counts()
    batches = rows = padded = 0
    compute = 0.0
    for server in fleet.servers.values():
        b = server.metrics.to_dict()["batches"]
        batches += b["count"]
        rows += b["rows"]
        padded += b["padded_rows"]
        compute += b["compute_seconds"]
    return {"completed": completed, "failed": failed, "shed": shed,
            "batches": batches, "rows": rows, "padded": padded,
            "compute_s": compute}


class Phase:
    """What one serving phase offered, what became of it, and its
    accounting check."""

    def __init__(self, name: str, fleet) -> None:
        self.name = name
        self.fleet = fleet
        self.offered = 0
        self.shed = 0
        self.futures: List = []     # (due, future or None when shed)
        self._before = _counts(fleet)
        self.counts: Dict[str, float] = {}
        self.errors: List[str] = []

    def submit(self, size: int, due: float) -> None:
        from repro.serve import RequestRejected
        self.offered += 1
        try:
            fut = self.fleet.submit(size=size)
        except RequestRejected:
            fut = None
            self.shed += 1
        self.futures.append((due, fut))

    def finish(self) -> None:
        """Drain, then check completed + failed + shed == offered."""
        if not self.fleet.drain(timeout=DRAIN_TIMEOUT):
            self.errors.append(f"{self.name}: fleet did not drain in "
                               f"{DRAIN_TIMEOUT}s")
        after = _counts(self.fleet)
        self.counts = {k: after[k] - self._before[k] for k in after}
        c = self.counts
        if c["completed"] + c["failed"] + c["shed"] != self.offered:
            self.errors.append(
                f"{self.name}: completed {c['completed']} + failed "
                f"{c['failed']} + shed {c['shed']} != offered "
                f"{self.offered}")
        if c["shed"] != self.shed:
            self.errors.append(f"{self.name}: fleet counted {c['shed']} "
                               f"sheds, the caller saw {self.shed}")
        ok = 0
        for _, fut in self.futures:
            if fut is None:
                continue
            if not fut.done():
                self.errors.append(f"{self.name}: a future never resolved")
                break
            try:
                fut.result(timeout=0)
            except Exception:   # counted as failed by the fleet already
                continue
            if getattr(fut, "bench_times", None) is None:
                self.errors.append(f"{self.name}: completion not observed")
                break
            ok += 1
        if ok != c["completed"]:
            self.errors.append(f"{self.name}: {ok} futures completed, "
                               f"fleet counted {c['completed']}")

    @property
    def failures(self) -> int:
        return int(self.counts.get("failed", 0) + self.shed)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ascending values;
    ``inf`` when it lands on a miss."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latencies_ms(phase: Phase) -> List[float]:
    """Due-to-completion latency per offered request; failed and shed
    requests are misses, counted as infinitely late."""
    out = []
    for due, fut in phase.futures:
        times = getattr(fut, "bench_times", None)
        out.append(math.inf if times is None else (times[2] - due) * 1e3)
    return out


def paced(fleet, rng: random.Random, seconds: float) -> Dict:
    """Open loop: Poisson arrivals at PACED_RATE for ``seconds``.

    The schedule is drawn up front from the seed; each request is
    timed from its due time, so a generator stall shows as latency.
    """
    n = max(1, int(PACED_RATE * seconds))
    gaps = [rng.expovariate(PACED_RATE) for _ in range(n)]
    sizes = request_sizes(rng, n)
    phase = Phase("paced", fleet)
    late = []
    clock, sleep = time.monotonic, time.sleep
    due = clock() + 0.005
    for gap, size in zip(gaps, sizes):
        due += gap
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        late.append(clock() - due)
        phase.submit(size, due)
    phase.finish()
    lat = sorted(latencies_ms(phase))
    late.sort()
    obs = sorted((t[3] - t[2]) * 1e6 for _, f in phase.futures
                 if (t := getattr(f, "bench_times", None)) is not None)
    return {"phase": phase, "p50_ms": percentile(lat, 50),
            "p99_ms": percentile(lat, 99),
            "gen_late_p99_ms": percentile(late, 99) * 1e3,
            "obs_err_p99_us": percentile(obs, 99) if obs else 0.0,
            "misses": sum(1 for x in lat if math.isinf(x))}


def flood(fleet, hook: CompletionHook, rng: random.Random,
          calibration, seconds: float) -> Dict:
    """Closed loop: FLOOD_OUTSTANDING requests in flight.

    Measured in pairs: a calibration loop (fleet idle), then a window
    of FLOOD_WINDOW requests — a new one submitted as each completes —
    drained before the next pair.  Per pair: completed requests per
    calibration-loop duration.
    """
    phase = Phase("flood", fleet)
    perf = time.perf_counter
    per_cal, raw_rps, calibs = [], [], []
    deadline = perf() + seconds
    while len(per_cal) < MIN_SAMPLES or perf() < deadline:
        sizes = request_sizes(rng, FLOOD_WINDOW)
        calib = calibration()
        sem = threading.Semaphore(0)
        hook.sem = sem
        before = fleet.metrics.counts()[0]
        t0 = perf()
        for i, size in enumerate(sizes):
            if i >= FLOOD_OUTSTANDING \
                    and not sem.acquire(timeout=DRAIN_TIMEOUT):
                phase.errors.append("flood: no completion arrived in "
                                    f"{DRAIN_TIMEOUT}s")
                break
            phase.submit(size, time.monotonic())
        if not fleet.drain(timeout=DRAIN_TIMEOUT):
            phase.errors.append("flood: window did not drain")
            break
        dt = perf() - t0
        hook.sem = None
        done = fleet.metrics.counts()[0] - before
        per_cal.append(done * calib / dt)
        raw_rps.append(done / dt)
        calibs.append(calib)
    hook.sem = None
    phase.finish()
    return {"phase": phase, "req_cal": median(per_cal),
            "req_per_s": median(raw_rps), "calib_s": calibs,
            "pairs": len(per_cal)}
