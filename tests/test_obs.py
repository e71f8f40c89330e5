"""Observability tests (ISSUE 10 acceptance).

The load-bearing guarantees:

* the span/request identity: one root span per *offered* request —
  fleet or standalone — and completed (``ok``) + failed (``error``) +
  shed (``shed``) partition the roots exactly, provable offline from
  the exported Chrome trace alone;
* trace-id propagation crosses threads: a request's queue wait and
  every compute slice (including both halves of a split) land in the
  tree its root opened at the front door;
* disarmed tracing is effectively free (the overhead gate in
  ``bench_steady_state`` measures it; here we prove the hooks stay
  ``None``-guarded and ``trace=False`` suppresses them outright);
* metrics snapshots stay consistent under concurrent readers — no
  torn ``(completed, failed, shed)`` triples, no exceptions from
  iterating live windows.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.check import instrument
from repro.check.instrument import EventLog
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.runtime import TIMELINE_OPS_LIMIT, Executor
from repro.obs import trace as obs_trace
from repro.obs.export import (
    build_chrome_trace,
    export_chrome_trace,
    validate_trace,
    validate_trace_file,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.serve import InferenceServer, RequestRejected, ServingFleet
from repro.serve.metrics import render_slo_report
from repro.zoo import NETWORK_BUILDERS


def make_engine(batch=4, net="lenet") -> Engine:
    return Engine(NETWORK_BUILDERS[net](batch=batch),
                  RuntimeConfig.superneurons(concrete=False))


def roots_named(log, name):
    return [s for s in obs_trace.spans(log)
            if s.parent_id is None and s.name == name]


def by_trace(log):
    trees = {}
    for s in obs_trace.spans(log):
        trees.setdefault(s.trace_id, []).append(s)
    return trees


# --------------------------------------------------------------------------
# span primitives
# --------------------------------------------------------------------------
class TestTracer:
    def test_root_and_children_share_trace_id(self):
        tr = EventLog()
        root = obs_trace.root(tr, "request")
        child = root.child("queue.wait")
        grand = child.child("deeper")
        assert root.trace_id == child.trace_id == grand.trace_id
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        other = obs_trace.root(tr, "request")
        assert other.trace_id != root.trace_id

    def test_finish_is_idempotent(self):
        tr = EventLog()
        sp = obs_trace.root(tr, "request")
        sp.finish(end=1.0, status="ok")
        sp.finish(end=9.0, status="error")   # late call: no-op
        assert sp.end == 1.0
        assert sp.status == "ok"

    def test_limit_bounds_retention_and_flags_truncation(self):
        tr = EventLog(limit=3)
        spans = [obs_trace.root(tr, f"s{i}") for i in range(5)]
        assert len(tr) == 3
        assert tr.truncated
        # dropped spans still work (finish is safe, just unretained)
        spans[-1].finish()
        assert spans[-1].status == "ok"

    def test_span_context_manager_records_errors(self):
        tr = EventLog()
        with pytest.raises(ValueError):
            with obs_trace.span(tr, "compile"):
                raise ValueError("boom")
        (sp,) = obs_trace.spans(tr)
        assert sp.status == "error"
        assert sp.attrs["error"] == "ValueError"

    def test_emit_records_closed_interval(self):
        tr = EventLog()
        sp = obs_trace.emit(tr, "compute.slice", start=1.0, end=2.5)
        assert sp.start == 1.0 and sp.end == 2.5
        assert sp.duration == 1.5

    def test_capture_arms_and_restores(self):
        prev = instrument.SYNC, instrument.SPANS
        with instrument.capture("span") as tr:
            assert instrument.SPANS is tr
            assert instrument.SYNC is None
        assert (instrument.SYNC, instrument.SPANS) == prev

    def test_spans_share_the_log_with_sync_events(self):
        with instrument.capture("sync", "span") as log:
            sp = obs_trace.root(log, "request")
            instrument.trace_write(sp, "fixture.field")
            sp.finish()
        assert [type(e).__name__ for e in log.events] == \
            ["Span", "SyncEvent"]
        assert log.events[0].thread == log.events[1].thread


# --------------------------------------------------------------------------
# metrics registry
# --------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("depth")
        g.set(3.0)
        g.add(-1.0)
        assert g.value == 2.0
        h = reg.histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3 and snap["max"] == 3.0

    def test_get_or_create_is_idempotent_but_type_clash_raises(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.probe("x", lambda: 1)

    def test_probe_replaces_and_renders(self):
        reg = MetricsRegistry()
        reg.probe("slo", lambda: {"a": 1},
                  renderer=lambda v: f"a={v['a']}")
        reg.probe("slo", lambda: {"a": 2},
                  renderer=lambda v: f"a={v['a']}")   # re-register wins
        assert reg.collect()["slo"]["value"] == {"a": 2}
        assert "a=2" in reg.render()

    def test_unregister_prefix(self):
        reg = MetricsRegistry()
        reg.counter("lane.a.reqs")
        reg.counter("lane.a.rows")
        reg.counter("lane.b.reqs")
        assert reg.unregister("lane.a") == 2
        assert reg.names() == ["lane.b.reqs"]

    def test_export_jsonl_appends_a_time_series(self, tmp_path):
        reg = MetricsRegistry()
        c = reg.counter("n")
        path = tmp_path / "metrics.jsonl"
        c.inc()
        reg.export_jsonl(path, extra={"t": 1})
        c.inc()
        reg.export_jsonl(path, extra={"t": 2})
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [ln["metrics"]["n"]["value"] for ln in lines] == [1, 2]
        assert [ln["t"] for ln in lines] == [1, 2]


# --------------------------------------------------------------------------
# flight recorder
# --------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(limit=4)
        for i in range(10):
            rec.note("tick", str(i))
        events = rec.events()
        assert len(events) == 4
        assert [e["message"] for e in events] == ["6", "7", "8", "9"]

    def test_shed_burst_auto_dumps_once_per_burst(self):
        rec = FlightRecorder(shed_burst_threshold=3)
        for _ in range(7):
            rec.note_shed(4, "normal", "fleet")
        assert len(rec.dumps) == 2   # bursts at 3 and 6, not 7 dumps
        assert rec.dumps[0]["reason"] == "shed-burst"

    def test_dump_captures_ring_and_recent_spans(self):
        rec = FlightRecorder()
        rec.note("worker.exception", "boom", batch=7)
        tr = EventLog()
        obs_trace.emit(tr, "compute.slice", start=0.0, end=1.0)
        record = rec.dump("worker-exception", log=tr)
        assert record["events"][-1]["kind"] == "worker.exception"
        assert record["spans"][0]["name"] == "compute.slice"

    def test_dump_dir_writes_json_file(self, tmp_path):
        rec = FlightRecorder()
        rec.dump_dir = str(tmp_path)
        rec.note("tick")
        record = rec.dump("test-reason")
        files = list(tmp_path.glob("flight-*-test-reason.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text())["dump_id"] == \
            record["dump_id"]


# --------------------------------------------------------------------------
# exporter + validator
# --------------------------------------------------------------------------
class TestChromeExport:
    def _ok_log(self):
        tr = EventLog()
        root = obs_trace.root(tr, "request", start=0.0)
        root.child("queue.wait", start=0.1).finish(end=0.4)
        obs_trace.emit(tr, "compute.slice", start=0.4, end=0.9, parent=root)
        root.finish(end=1.0, status="ok")
        return tr

    def test_round_trip_validates(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = export_chrome_trace(
            path, self._ok_log(),
            counts={"completed": 1, "failed": 0, "shed": 0})
        assert validate_trace(doc) == []
        assert validate_trace_file(path) == []
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["otherData"]["requests"]["completed"] == 1

    def test_counts_mismatch_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="identity"):
            export_chrome_trace(
                tmp_path / "bad.json", self._ok_log(),
                counts={"completed": 0, "failed": 1, "shed": 0})

    def test_two_roots_in_one_tree_is_invalid(self):
        doc = build_chrome_trace(self._ok_log())
        extra = dict(doc["traceEvents"][1])
        extra["args"] = {k: v for k, v in extra["args"].items()
                        if k != "parent"}
        doc["traceEvents"].append(extra)
        assert any("root spans" in p for p in validate_trace(doc))

    def test_child_outside_root_interval_is_invalid(self):
        tr = EventLog()
        root = obs_trace.root(tr, "request", start=0.0)
        late = root.child("queue.wait", start=0.5)
        root.finish(end=1.0)
        late.finish(end=2.0)           # outlives its root
        doc = build_chrome_trace(tr)
        assert any("outside its root" in p for p in validate_trace(doc))

    def test_timelines_become_sim_processes(self):
        from repro.device.timeline import Stream, Timeline
        tl = Timeline()
        tl.submit(Stream.COMPUTE, 0.5, "conv1")
        tl.submit(Stream.D2H, 0.25, "offload")
        doc = build_chrome_trace(timelines={"lenet.worker0": tl})
        assert validate_trace(doc) == []
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "sim.compute" in cats and "sim.d2h" in cats

    def test_unreadable_file_reports_not_raises(self, tmp_path):
        assert validate_trace_file(tmp_path / "missing.json")


# --------------------------------------------------------------------------
# engine + executor integration
# --------------------------------------------------------------------------
class TestEngineTracing:
    def test_iteration_spans_when_armed(self):
        net = NETWORK_BUILDERS["lenet"](batch=4)
        with instrument.capture("span") as tr:
            with Executor(net, RuntimeConfig.superneurons(
                    concrete=False)) as ex:
                ex.run_iteration(0)
                ex.run_iteration(1)
        spans = [s for s in obs_trace.spans(tr) if s.name == "iteration"]
        assert len(spans) == 2
        assert spans[0].cat == "engine"
        assert spans[0].attrs["net"] == "lenet"
        assert spans[0].attrs["sim_time"] > 0

    def test_trace_false_suppresses_the_hook(self):
        net = NETWORK_BUILDERS["lenet"](batch=4)
        with instrument.capture("span") as tr:
            with Executor(net, RuntimeConfig.superneurons(
                    concrete=False, trace=False)) as ex:
                ex.run_iteration(0)
        assert [s for s in obs_trace.spans(tr) if s.name == "iteration"] == []

    def test_timeline_ops_only_recorded_when_armed(self):
        net = NETWORK_BUILDERS["lenet"](batch=4)
        with instrument.capture():
            with Executor(net, RuntimeConfig.superneurons(
                    concrete=False)) as ex:
                ex.run_iteration(0)
                assert ex.timeline.ops() == []    # disarmed: no op log
        with instrument.capture("span"):
            with Executor(net, RuntimeConfig.superneurons(
                    concrete=False)) as ex:
                ex.run_iteration(0)
                assert len(ex.timeline.ops()) > 0
                assert ex.timeline.max_ops == TIMELINE_OPS_LIMIT

    def test_timeline_op_log_is_bounded(self):
        from repro.device.timeline import Stream, Timeline
        tl = Timeline(record_ops=True, max_ops=5)
        for i in range(8):
            tl.submit(Stream.COMPUTE, 0.1, f"op{i}")
        assert len(tl.ops()) == 5
        assert tl.dropped_ops == 3
        assert tl.ops()[0].label == "op3"    # newest window kept

    def test_parallel_run_session_spans(self):
        with instrument.capture("span") as tr:
            engine = make_engine(batch=4)
            sessions = [engine.session(mode="infer") for _ in range(2)]
            try:
                engine.parallel_run(sessions, iters=2)
            finally:
                for s in sessions:
                    s.close()
        roots = roots_named(tr, "session.run")
        assert len(roots) == 2
        assert all(r.status == "ok" for r in roots)
        assert sorted(r.attrs["session"] for r in roots) == [0, 1]
        assert all(r.attrs["iters"] == 2 for r in roots)
        # each executor iteration lands as its own engine-cat span
        # (the executor hook is parentless by design: it cannot know
        # which session root owns it without threading context through
        # every run_iteration call)
        iters = [s for s in obs_trace.spans(tr) if s.name == "iteration"]
        # 2 sessions x 2 iters, plus the engine's one compile scout
        assert len(iters) == 5

    def test_executor_register_metrics_probes(self):
        net = NETWORK_BUILDERS["lenet"](batch=4)
        reg = MetricsRegistry()
        with Executor(net, RuntimeConfig.superneurons(
                concrete=False)) as ex:
            ex.run_iteration(0)
            ex.register_metrics(reg, "eng")
            snap = reg.collect()
        assert snap["eng.allocator"]["value"]["allocs"] > 0
        assert "hits" in snap["eng.cache"]["value"]
        assert snap["eng.timeline"]["value"]["elapsed"] > 0
        assert "d2h_bytes" in snap["eng.dma"]["value"]


# --------------------------------------------------------------------------
# serving integration: the span/request identity
# --------------------------------------------------------------------------
class TestServingSpans:
    def test_server_roots_and_propagation(self):
        with instrument.capture("span") as tr:
            engine = make_engine(batch=4)
            server = InferenceServer(engine, workers=2,
                                     policy="greedy-fill",
                                     max_wait=0.001)
            with server:
                for size in (1, 2, 3, 6):
                    server.submit(size=size)
                assert server.drain(timeout=30)
        roots = roots_named(tr, "request")
        assert len(roots) == 4
        assert all(r.status == "ok" for r in roots)
        trees = by_trace(tr)
        for root in roots:
            names = [s.name for s in trees[root.trace_id]]
            assert "queue.wait" in names
            assert "compute.slice" in names
        # the size-6 request split across two batch rides: two slices
        split_root = next(r for r in roots if r.attrs["size"] == 6)
        slices = [s for s in trees[split_root.trace_id]
                  if s.name == "compute.slice"]
        assert len(slices) == 2
        assert sorted(s.attrs["part"] for s in slices) == [0, 1]

    def test_fleet_identity_and_export(self, tmp_path):
        with instrument.capture("span") as tr:
            engines = [make_engine(batch=2), make_engine(batch=4)]
            fleet = ServingFleet(engines, workers=1, max_wait=0.001)
            with fleet:
                for size in (1, 2, 3, 4, 2, 1):
                    fleet.submit(size=size)
                assert fleet.drain(timeout=30)
                timelines = fleet.session_timelines()
            completed, failed, shed = fleet.metrics.counts()
        assert (completed, failed, shed) == (6, 0, 0)
        roots = roots_named(tr, "request")
        assert len(roots) == 6
        # route child closed before admission, lane annotated post-hoc
        assert all("lane" in r.attrs for r in roots)
        doc = export_chrome_trace(
            tmp_path / "fleet.json", tr, timelines=timelines,
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
        assert validate_trace(doc) == []

    def test_shed_request_root_status(self):
        with instrument.capture("span") as tr:
            engine = make_engine(batch=4)
            fleet = ServingFleet([engine], workers=1,
                                 max_pending_rows=4)
            # not started: nothing drains, so the second submit must shed
            fleet.submit(size=4)
            with pytest.raises(RequestRejected):
                fleet.submit(size=4)
        roots = roots_named(tr, "request")
        assert len(roots) == 2
        statuses = sorted(r.status for r in roots)
        assert statuses == ["open", "shed"]
        shed_root = next(r for r in roots if r.status == "shed")
        assert shed_root.attrs["probes"] == 1

    def test_probed_and_refused_lane_leaves_no_extra_roots(self):
        """Spilling to a second lane must not mint a second root."""
        with instrument.capture("span") as tr:
            full = make_engine(batch=4)
            spare = make_engine(batch=4)
            fleet = ServingFleet([full, spare], names=["a", "b"],
                                 workers=1, max_pending_rows=4)
            fleet.submit(size=4)     # fills one lane
            fleet.submit(size=4)     # spills to the other
        assert len(roots_named(tr, "request")) == 2

    def test_untraced_serving_attaches_no_spans(self):
        with instrument.capture():
            engine = make_engine(batch=4)
            server = InferenceServer(engine, workers=1, max_wait=0.001)
            with server:
                fut = server.submit(size=2)
                assert server.drain(timeout=30)
                fut.result(timeout=5)


# --------------------------------------------------------------------------
# one event stream: sync events and spans in one log
# --------------------------------------------------------------------------
class TestOneEventStream:
    def test_fleet_lanes_keep_separate_batcher_tracks(self, tmp_path,
                                                      capsys):
        """Both lanes' single workers are named ``repro-serve-0``; the
        log's deduplicated thread key keeps them on two tracks."""
        from repro.cli import main
        from repro.obs.export import SPAN_PID

        path = tmp_path / "fleet.json"
        rc = main(["serve", "--net", "lenet", "--fleet",
                   "--fleet-batches", "4,8", "--workers", "1",
                   "--rate", "200", "--duration", "1", "--timeout", "60",
                   "--trace-out", str(path)])
        assert rc == 0
        doc = json.loads(path.read_text())
        assert validate_trace(doc) == []
        events = doc["traceEvents"]
        tracks = {e["tid"]: e["args"]["name"] for e in events
                  if e["name"] == "thread_name" and e["pid"] == SPAN_PID}
        tids = {e["tid"] for e in events
                if e.get("cat") == "serve.batcher"}
        assert sorted(tracks[t] for t in tids) == [
            "serve.batcher [repro-serve-0#2]",
            "serve.batcher [repro-serve-0]"]

    def test_sync_and_span_armed_together(self):
        """One log, both readers: the race detector sees only the sync
        records and stays clean, the exporter only the spans."""
        from repro.check.race_detector import analyze_log

        with instrument.capture("sync", "span") as log:
            engine = make_engine(batch=4)
            payload = engine.snapshot_params()
            server = InferenceServer(engine, workers=2, max_wait=0.001)
            with server:
                futures = [server.submit(size=1 + i % 6)
                           for i in range(20)]
                server.swap_weights(payload, timeout=60)
                futures += [server.submit(size=1 + i % 6)
                            for i in range(20)]
                for f in futures:
                    f.result(timeout=30)
                assert server.drain(timeout=30)
            completed, failed, shed = server.metrics.counts()
        assert (completed, failed, shed) == (40, 0, 0)
        report = analyze_log(log, target="serving")
        assert report.ok and not report.warnings, report.render()
        assert not log.truncated
        doc = build_chrome_trace(log, counts={
            "completed": completed, "failed": failed, "shed": shed})
        assert validate_trace(doc) == []
        assert len(roots_named(log, "request")) == 40
        assert len(roots_named(log, "swap.barrier")) == 1


# --------------------------------------------------------------------------
# shared SLO renderer (single + fleet shapes)
# --------------------------------------------------------------------------
class TestRenderSloReport:
    def test_server_shape(self):
        engine = make_engine(batch=4)
        server = InferenceServer(engine, workers=1, max_wait=0.001)
        with server:
            server.submit(size=3)
            assert server.drain(timeout=30)
        text = render_slo_report(server.metrics.to_dict())
        assert "requests     : 1 completed, 0 failed" in text
        assert "latency      : p50" in text
        assert "batches      :" in text
        assert "weight swaps" not in text    # zero swaps: line elided

    def test_fleet_shape(self):
        engine = make_engine(batch=4)
        fleet = ServingFleet([engine], workers=1, max_wait=0.001)
        with fleet:
            fleet.submit(size=2)
            assert fleet.drain(timeout=30)
        text = render_slo_report(fleet.metrics.to_dict())
        assert "offered 1" in text
        assert "fleet-wide" in text
        assert "routed" in text

    def test_registry_render_uses_the_same_renderer(self):
        engine = make_engine(batch=4)
        server = InferenceServer(engine, workers=1, max_wait=0.001)
        reg = MetricsRegistry()
        with server:
            server.submit(size=2)
            assert server.drain(timeout=30)
            server.register_metrics(reg, "server")
        rendered = reg.render()
        assert "server.slo:" in rendered
        assert "requests     : 1 completed" in rendered


# --------------------------------------------------------------------------
# paced replay on an injected clock (the CLI clock unification)
# --------------------------------------------------------------------------
class TestPacedReplay:
    def test_fake_clock_replays_at_trace_offsets(self):
        from repro.cli import paced_replay

        class FakeClock:
            def __init__(self):
                self.t = 100.0       # non-zero epoch: offsets must be
                                     # relative to the replay start
            def __call__(self):
                return self.t
            def sleep(self, dt):
                assert dt > 0
                self.t += dt

        clock = FakeClock()
        seen = []
        paced_replay(
            [(0.0, "a"), (0.25, "b"), (1.0, "c")],
            lambda i, arrival: seen.append((i, arrival[1], clock.t)),
            clock=clock, sleep=clock.sleep)
        assert seen == [(0, "a", 100.0), (1, "b", 100.25),
                        (2, "c", 101.0)]

    def test_late_arrivals_do_not_sleep(self):
        from repro.cli import paced_replay
        sleeps = []
        t = iter([0.0, 5.0, 5.0, 5.0]).__next__   # clock jumped ahead
        paced_replay([(0.0,), (1.0,), (2.0,)], lambda i, a: None,
                     clock=t, sleep=sleeps.append)
        assert sleeps == []    # every arrival already past due


# --------------------------------------------------------------------------
# metrics snapshot consistency under concurrent load (satellite)
# --------------------------------------------------------------------------
class TestMetricsSnapshotConsistency:
    def test_no_torn_reads_under_live_traffic(self):
        engine = make_engine(batch=4)
        server = InferenceServer(engine, workers=2, max_wait=0.001)
        stop = threading.Event()
        errors = []

        def reader():
            last = (0, 0, 0)
            while not stop.is_set():
                try:
                    counts = server.metrics.counts()
                    # counters are monotone; a torn read would show a
                    # count moving backwards between snapshots
                    assert all(c >= p for c, p in zip(counts, last)), \
                        (counts, last)
                    last = counts
                    snap = server.metrics.latency_snapshot()
                    assert all(isinstance(v, list) for k, v in
                               snap.items() if k != "classes")
                    d = server.metrics.to_dict()
                    req = d["requests"]
                    # within one locked snapshot the identity holds
                    assert req["completed"] >= 0
                    assert req["shed_rate"] <= 1.0
                    assert 0.0 <= d["batches"]["fill_ratio"] <= 1.0
                except Exception as exc:   # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader, daemon=True)
                   for _ in range(4)]
        n = 120
        with server:
            for t in readers:
                t.start()
            for i in range(n):
                server.submit(size=(i % 6) + 1)
                if i % 16 == 0:
                    time.sleep(0.001)    # let workers interleave
            assert server.drain(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=5)
        assert errors == []
        completed, failed, shed = server.metrics.counts()
        assert (completed, failed, shed) == (n, 0, 0)
