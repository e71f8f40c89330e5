"""Chrome trace-event export: spans + simulated device timelines.

Emits the `Trace Event Format`_ JSON object form —
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with complete
(``"ph": "X"``) events — loadable in Perfetto / ``chrome://tracing``.

Two time bases share the file, deliberately kept in separate process
groups:

* **wall clock** (pid 1): every :class:`~repro.obs.trace.Span`,
  normalized so the earliest span starts at t=0.  Request trees render
  one track per ``trace_id`` (tid = trace id), so a request's queue
  wait, routing probe, and per-slice compute nest visually on one row.
  Other categories (engine iterations, swap barriers, batcher rounds)
  get per-thread tracks.
* **simulated device time** (pid 100+): each session's
  :class:`~repro.device.timeline.Timeline` contributes one thread per
  stream (compute / D2H / H2D) — the paper's offload/prefetch overlap,
  literally visible.  Simulated seconds are *not* wall seconds; the
  process naming says so.

``otherData.requests`` carries the serving counters so the validator
can check the fleet identity offline: every offered request owns
exactly one root span, and completed + failed + shed partition the
roots by status.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.check.instrument import EventLog
from repro.obs.trace import Span, spans

#: JSON-schema (draft-ish subset) for one trace event — the obs-smoke
#: CI job validates every emitted event against this shape
EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["name", "ph", "ts", "pid", "tid"],
    "properties": {
        "name": {"type": "string"},
        "cat": {"type": "string"},
        "ph": {"enum": ["X", "M"]},
        "ts": {"type": "number", "minimum": 0},
        "dur": {"type": "number", "minimum": 0},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "args": {"type": "object"},
    },
}

TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {"type": "array", "items": EVENT_SCHEMA},
        "displayTimeUnit": {"enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
    },
}

_TYPES = {"object": dict, "array": list, "string": str, "integer": int}

#: wall-clock spans live in this pid; simulated timelines start here
SPAN_PID = 1
SIM_PID_BASE = 100

#: root-span name/category contract the serve layer emits and the
#: validator checks (one place, so they cannot drift apart)
REQUEST_ROOT = "request"
SERVE_CAT = "serve"


def _check(value: Any, schema: Dict[str, Any], where: str,
           problems: List[str]) -> None:
    """Minimal JSON-schema subset checker (type/required/properties/
    items/enum/minimum) — enough to hold EVENT_SCHEMA, no new deps."""
    t = schema.get("type")
    if t == "number":
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            problems.append(f"{where}: expected number, got "
                            f"{type(value).__name__}")
            return
    elif t == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{where}: expected integer, got "
                            f"{type(value).__name__}")
            return
    elif t is not None:
        if not isinstance(value, _TYPES[t]):
            problems.append(f"{where}: expected {t}, got "
                            f"{type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        problems.append(f"{where}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) \
            and value < schema["minimum"]:
        problems.append(f"{where}: {value} < {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                problems.append(f"{where}: missing required {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{where}.{key}", problems)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{i}]", problems)


def _span_events(spans: Sequence[Span]) -> List[dict]:
    if not spans:
        return []
    t0 = min(s.start for s in spans)
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "ts": 0, "pid": SPAN_PID,
        "tid": 0, "args": {"name": "wall clock (spans)"},
    }]
    named_tids: Dict[int, str] = {}
    thread_tids: Dict[str, int] = {}
    for s in spans:
        end = s.start if s.end is None else s.end
        if s.cat == SERVE_CAT:
            # one track per request tree: the tid IS the trace id
            tid = s.trace_id
            named_tids.setdefault(tid, f"request {s.trace_id}")
        else:
            # other categories track per originating thread (the log's
            # deduplicated key: same-named threads keep separate tracks)
            tid = thread_tids.setdefault(
                s.thread, 10_000 + len(thread_tids))
            named_tids.setdefault(tid, f"{s.cat} [{s.thread}]")
        args = {"trace": s.trace_id, "span": s.span_id,
                "status": s.status}
        if s.parent_id is not None:
            args["parent"] = s.parent_id
        args.update(s.attrs)
        events.append({
            "name": s.name, "cat": s.cat, "ph": "X",
            "ts": round((s.start - t0) * 1e6, 3),
            "dur": round(max(end - s.start, 0.0) * 1e6, 3),
            "pid": SPAN_PID, "tid": tid, "args": args,
        })
    for tid, label in sorted(named_tids.items()):
        events.append({"name": "thread_name", "ph": "M", "ts": 0,
                       "pid": SPAN_PID, "tid": tid,
                       "args": {"name": label}})
    return events


def _timeline_events(timelines: Dict[str, Any]) -> List[dict]:
    """One simulated-time process per session timeline, one thread per
    stream; op records become complete events in simulated µs."""
    events: List[dict] = []
    for i, (label, timeline) in enumerate(sorted(timelines.items())):
        pid = SIM_PID_BASE + i
        events.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
            "tid": 0,
            "args": {"name": f"simulated device — {label}"},
        })
        streams: Dict[str, int] = {}
        for op in timeline.ops():
            stream = op.stream.value if hasattr(op.stream, "value") \
                else str(op.stream)
            tid = streams.setdefault(stream, len(streams) + 1)
            events.append({
                "name": op.label, "cat": f"sim.{stream}", "ph": "X",
                "ts": round(op.start * 1e6, 3),
                "dur": round(max(op.end - op.start, 0.0) * 1e6, 3),
                "pid": pid, "tid": tid, "args": {},
            })
        for stream, tid in sorted(streams.items(), key=lambda kv: kv[1]):
            events.append({"name": "thread_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": tid,
                           "args": {"name": stream}})
    return events


def build_chrome_trace(log: Optional[EventLog] = None,
                       timelines: Optional[Dict[str, Any]] = None,
                       counts: Optional[Dict[str, int]] = None) -> dict:
    """Assemble the trace document (no I/O); ``counts`` is the serving
    ``{"completed": ..., "failed": ..., "shed": ...}`` identity the
    validator checks the root spans against."""
    events: List[dict] = []
    other: Dict[str, Any] = {}
    if log is not None:
        events.extend(_span_events(spans(log)))
        if log.truncated:
            other["spans_truncated"] = True
    if timelines:
        events.extend(_timeline_events(timelines))
    if counts is not None:
        other["requests"] = {k: int(v) for k, v in counts.items()}
    doc: Dict[str, Any] = {"traceEvents": events,
                           "displayTimeUnit": "ms"}
    if other:
        doc["otherData"] = other
    return doc


def export_chrome_trace(path, log: Optional[EventLog] = None,
                        timelines: Optional[Dict[str, Any]] = None,
                        counts: Optional[Dict[str, int]] = None) -> dict:
    """Build, validate, and write ``trace.json``; raises ``ValueError``
    on a malformed document (exporting garbage would defeat the point)."""
    doc = build_chrome_trace(log, timelines=timelines, counts=counts)
    problems = validate_trace(doc)
    if problems:
        raise ValueError("refusing to export an invalid trace:\n  "
                         + "\n  ".join(problems))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return doc


# ------------------------------------------------------------- validation
def validate_trace(doc: Any) -> List[str]:
    """Schema + structural checks; returns problems ([] = valid).

    Beyond the per-event schema: every ``serve``-category span tree has
    exactly one root named :data:`REQUEST_ROOT`; children start/end
    inside their root's interval (well-formed nesting, 1 µs tolerance
    for float rounding); and when ``otherData.requests`` is present,
    the roots partition exactly into completed (``ok``) + failed
    (``error``) + shed (``shed``) — the fleet accounting identity,
    checkable offline from the artifact alone.
    """
    problems: List[str] = []
    _check(doc, TRACE_SCHEMA, "trace", problems)
    if problems:
        return problems
    serve_spans: Dict[int, List[dict]] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        if ev["ph"] == "X" and "dur" not in ev:
            problems.append(f"trace.traceEvents[{i}]: X event "
                            "missing dur")
        if ev.get("cat") == SERVE_CAT:
            serve_spans.setdefault(
                ev["args"]["trace"], []).append(ev)
    roots: List[dict] = []
    for trace_id, events in sorted(serve_spans.items()):
        tree_roots = [e for e in events
                      if "parent" not in e["args"]]
        if len(tree_roots) != 1:
            problems.append(
                f"trace {trace_id}: {len(tree_roots)} root spans, "
                "expected exactly 1")
            continue
        root = tree_roots[0]
        if root["name"] != REQUEST_ROOT:
            problems.append(
                f"trace {trace_id}: root span named {root['name']!r}, "
                f"expected {REQUEST_ROOT!r}")
        roots.append(root)
        r0, r1 = root["ts"], root["ts"] + root["dur"]
        for ev in events:
            if ev is root:
                continue
            e0, e1 = ev["ts"], ev["ts"] + ev["dur"]
            if e0 < r0 - 1.0 or e1 > r1 + 1.0:
                problems.append(
                    f"trace {trace_id}: span {ev['name']!r} "
                    f"[{e0:.1f}, {e1:.1f}]µs outside its root "
                    f"[{r0:.1f}, {r1:.1f}]µs")
    counts = doc.get("otherData", {}).get("requests")
    if counts is not None:
        by_status = {"ok": 0, "error": 0, "shed": 0}
        for root in roots:
            status = root["args"].get("status")
            if status not in by_status:
                problems.append(
                    f"root span trace {root['args']['trace']}: "
                    f"unexpected status {status!r}")
            else:
                by_status[status] += 1
        expected = {"ok": counts.get("completed", 0),
                    "error": counts.get("failed", 0),
                    "shed": counts.get("shed", 0)}
        if by_status != expected:
            problems.append(
                f"span/request identity broken: root spans by status "
                f"{by_status} != recorded counts {expected}")
        offered = sum(expected.values())
        if len(roots) != offered:
            problems.append(
                f"{len(roots)} root spans for {offered} offered "
                "requests (one root per offered request)")
    return problems


def validate_trace_file(path) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable trace ({exc})"]
    return validate_trace(doc)
