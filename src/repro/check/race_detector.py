"""Happens-before race & deadlock detection over a recorded event log.

The third pillar of ``repro.check``: the plan verifier proves compiled
*plans* safe and the linter proves *source* discipline; this module
proves *executions* — it replays a vector-clock happens-before analysis
(FastTrack-style epochs) plus an Eraser-style lockset classification
over the :class:`~repro.check.instrument.SyncEvent` records of the
:class:`~repro.check.instrument.EventLog` one instrumented run produced
(span records in the same log are skipped), and reports:

* **RACE001 unordered-conflicting-access** — two threads touched the
  same shared location, at least one wrote, and no happens-before path
  orders the accesses.  The pair is real: it was *observed* unordered,
  not inferred — bit-identity tests passing over such a pair pass by
  lucky scheduling only.
* **RACE002 lock-order-inversion** — the lock-acquisition graph (edge
  ``A -> B`` whenever a thread acquired ``B`` while holding ``A``)
  contains a cycle: two threads taking the cycle's locks in opposite
  orders can deadlock, even if this run happened not to.
* **RACE003 unsynchronized-publish** — a shared write performed with
  *no* lock held raced a later read in another running thread (no
  happens-before edge).  The publish-side twin of RACE001: the writer
  never even tried to synchronize.
* **RACE004 lock-held-across-wait** — a thread blocked (condition
  wait, future/event wait) while holding another traced lock: every
  other thread needing that lock stalls for the full wait, and if the
  waker needs it the system deadlocks.  Locks constructed with
  ``gate=True`` (a documented barrier, e.g. the swap serializer) are
  exempt.
* **RACE005 incomplete-trace** *(warning)* — the event log hit its
  capacity and dropped events; absences below are not proof.

Happens-before edges recognized (see DESIGN.md "Concurrency model"):
lock release -> later acquire of the same lock (condition wait counts
as release at ``wait_begin`` and re-acquire at ``wait_end``), event
``set`` -> successful ``wait``, channel ``send`` -> later ``recv`` of
the same token (queue put/take, batch publish/pop, ``parallel_run``
submit/collect), and thread start -> child begin / child end -> join.

The analysis is a pure function of the log: O(events x threads), no
substrate, deterministic.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.check.diagnostics import CheckReport, Diagnostic
from repro.check.instrument import EventLog, SyncEvent

Clock = Dict[str, int]


def _join(a: Clock, b: Clock) -> None:
    for k, v in b.items():
        if a.get(k, 0) < v:
            a[k] = v


class _Access(NamedTuple):
    thread: str
    epoch: int                   # writer/reader thread's own clock value
    seq: int
    lockset: FrozenSet[str]      # labels of locks held (incl. gates)
    detail: str


class _HeldLock(NamedTuple):
    label: str
    gate: bool


class _Analysis:
    """One pass over the log; collects diagnostics."""

    def __init__(self, target: str):
        self.target = target
        self.diags: List[Diagnostic] = []
        self._seen: Set[tuple] = set()
        # vector clocks
        self.clocks: Dict[str, Clock] = {}
        self.lock_vc: Dict[int, Clock] = {}
        self.event_vc: Dict[int, Clock] = {}
        self.chan_vc: Dict[str, Clock] = {}
        self.spawn_vc: Dict[int, Clock] = {}
        self.end_vc: Dict[int, Clock] = {}
        # lock state
        self.held: Dict[str, Dict[int, List]] = {}   # tid -> obj -> [count, HeldLock]
        self.saved_waits: Dict[Tuple[str, int], int] = {}
        # RACE002 graph: (a_obj, b_obj) -> (a_label, b_label, thread, seq)
        self.edges: Dict[Tuple[int, int], Tuple[str, str, str, int]] = {}
        # shared-state history
        self.last_write: Dict[Tuple[int, str], _Access] = {}
        self.reads: Dict[Tuple[int, str], Dict[str, _Access]] = {}

    # -- clock helpers ----------------------------------------------------
    def clock(self, tid: str) -> Clock:
        c = self.clocks.get(tid)
        if c is None:
            # own component starts at 1 so an access epoch is never
            # confused with the "no knowledge" value 0
            c = self.clocks[tid] = {tid: 1}
        return c

    def _inc(self, tid: str) -> None:
        c = self.clock(tid)
        c[tid] = c.get(tid, 0) + 1

    def _hb(self, stored: _Access, tid: str) -> bool:
        """Does the stored access happen-before thread ``tid`` now?"""
        if stored.thread == tid:
            return True
        return self.clock(tid).get(stored.thread, 0) >= stored.epoch

    def _lockset(self, tid: str) -> FrozenSet[str]:
        held = self.held.get(tid)
        if not held:
            return frozenset()
        return frozenset(h[1].label for h in held.values() if h[0] > 0)

    # -- diagnostics ------------------------------------------------------
    def emit(self, rule: str, message: str, *, severity: str = "error",
             op: Optional[str] = None, seq: Optional[int] = None,
             tensor: Optional[str] = None, dedupe: tuple = ()) -> None:
        key = (rule,) + dedupe
        if dedupe and key in self._seen:
            return
        self._seen.add(key)
        self.diags.append(Diagnostic(
            rule=rule, message=message, severity=severity,
            target=self.target, op=op, step=seq, tensor=tensor or None))

    # -- lock bookkeeping -------------------------------------------------
    def _acquire(self, tid: str, obj: int, label: str, gate: bool,
                 seq: int) -> None:
        _join(self.clock(tid), self.lock_vc.get(obj, {}))
        held = self.held.setdefault(tid, {})
        slot = held.get(obj)
        if slot is not None and slot[0] > 0:
            slot[0] += 1        # re-entrant: no new graph edges
            return
        if slot is None:
            held[obj] = [1, _HeldLock(label, gate)]
        else:
            slot[0] = 1         # re-acquire after a full release
        for other, (count, info) in held.items():
            if other != obj and count > 0:
                self.edges.setdefault(
                    (other, obj), (info.label, label, tid, seq))

    def _release(self, tid: str, obj: int) -> None:
        self.lock_vc[obj] = dict(self.clock(tid))
        self._inc(tid)
        held = self.held.get(tid, {})
        slot = held.get(obj)
        if slot is not None and slot[0] > 0:
            slot[0] -= 1

    def _check_blocking(self, tid: str, seq: int, wait_label: str,
                        exclude: int) -> None:
        """RACE004: blocking while holding a non-gate traced lock."""
        for obj, (count, info) in self.held.get(tid, {}).items():
            if obj == exclude or count < 1 or info.gate:
                continue
            self.emit(
                "RACE004",
                f"blocking wait on '{wait_label}' while holding lock "
                f"'{info.label}': every contender for '{info.label}' "
                f"stalls for the whole wait, and a waker needing it "
                f"deadlocks (mark the lock gate=True only for a "
                f"documented barrier)",
                op=tid, seq=seq,
                dedupe=(info.label, wait_label, tid))

    # -- shared-state accesses --------------------------------------------
    def _read(self, tid: str, obj: int, label: str, detail: str,
              seq: int) -> None:
        loc = (obj, label)
        lw = self.last_write.get(loc)
        if lw is not None and not self._hb(lw, tid):
            if lw.lockset:
                self.emit(
                    "RACE001",
                    f"read of '{label}' races the write by "
                    f"{lw.thread} (seq {lw.seq}): writer held "
                    f"{sorted(lw.lockset)} but no happens-before path "
                    f"orders the accesses (reader holds "
                    f"{sorted(self._lockset(tid)) or 'no locks'})",
                    op=f"{lw.thread} vs {tid}", seq=seq,
                    tensor=detail or lw.detail,
                    dedupe=(label, frozenset((lw.thread, tid))))
            else:
                self.emit(
                    "RACE003",
                    f"unsynchronized publish of '{label}': "
                    f"{lw.thread} wrote (seq {lw.seq}) holding no lock, "
                    f"and this read has no happens-before edge to it",
                    op=f"{lw.thread} vs {tid}", seq=seq,
                    tensor=detail or lw.detail,
                    dedupe=(label, frozenset((lw.thread, tid))))
        epoch = self.clock(tid).get(tid, 1)
        self.reads.setdefault(loc, {})[tid] = _Access(
            tid, epoch, seq, self._lockset(tid), detail)

    def _write(self, tid: str, obj: int, label: str, detail: str,
               seq: int) -> None:
        loc = (obj, label)
        lw = self.last_write.get(loc)
        if lw is not None and not self._hb(lw, tid):
            self.emit(
                "RACE001",
                f"write-write race on '{label}': this write and "
                f"{lw.thread}'s (seq {lw.seq}) are unordered "
                f"(locksets {sorted(lw.lockset) or '{}'} vs "
                f"{sorted(self._lockset(tid)) or '{}'})",
                op=f"{lw.thread} vs {tid}", seq=seq,
                tensor=detail or lw.detail,
                dedupe=(label, frozenset((lw.thread, tid))))
        for rtid, racc in self.reads.get(loc, {}).items():
            if rtid != tid and not self._hb(racc, tid):
                self.emit(
                    "RACE001",
                    f"write to '{label}' races the read by {rtid} "
                    f"(seq {racc.seq}): no happens-before path orders "
                    f"them (locksets {sorted(racc.lockset) or '{}'} vs "
                    f"{sorted(self._lockset(tid)) or '{}'})",
                    op=f"{rtid} vs {tid}", seq=seq,
                    tensor=detail or racc.detail,
                    dedupe=(label, frozenset((rtid, tid))))
        epoch = self.clock(tid).get(tid, 1)
        self.last_write[loc] = _Access(
            tid, epoch, seq, self._lockset(tid), detail)
        self.reads[loc] = {}

    # -- the event loop ----------------------------------------------------
    def feed(self, events: List[SyncEvent]) -> None:
        for ev in events:
            tid, kind, obj = ev.thread, ev.kind, ev.obj
            if kind == "acquire":
                self._acquire(tid, obj, ev.label, ev.gate, ev.seq)
            elif kind == "release":
                self._release(tid, obj)
            elif kind == "wait_begin":
                self._check_blocking(tid, ev.seq, ev.label, exclude=obj)
                # a condition wait releases the whole monitor (RLock
                # semantics: all recursion levels at once)
                slot = self.held.get(tid, {}).get(obj)
                if slot is not None:
                    self.saved_waits[(tid, obj)] = slot[0]
                    slot[0] = 0
                self.lock_vc[obj] = dict(self.clock(tid))
                self._inc(tid)
            elif kind == "wait_end":
                _join(self.clock(tid), self.lock_vc.get(obj, {}))
                slot = self.held.get(tid, {}).get(obj)
                restored = self.saved_waits.pop((tid, obj), 1)
                if slot is not None:
                    slot[0] = restored
            elif kind == "event_set":
                vc = self.event_vc.setdefault(obj, {})
                _join(vc, self.clock(tid))
                self._inc(tid)
            elif kind == "event_wait_begin":
                self._check_blocking(tid, ev.seq, ev.label, exclude=-1)
            elif kind == "event_wait_end":
                _join(self.clock(tid), self.event_vc.get(obj, {}))
            elif kind == "chan_send":
                vc = self.chan_vc.setdefault(ev.detail, {})
                _join(vc, self.clock(tid))
                self._inc(tid)
            elif kind == "chan_recv":
                _join(self.clock(tid), self.chan_vc.get(ev.detail, {}))
            elif kind == "thread_start":
                self.spawn_vc[obj] = dict(self.clock(tid))
                self._inc(tid)
            elif kind == "thread_begin":
                _join(self.clock(tid), self.spawn_vc.get(obj, {}))
            elif kind == "thread_end":
                self.end_vc[obj] = dict(self.clock(tid))
                self._inc(tid)
            elif kind == "thread_join":
                _join(self.clock(tid), self.end_vc.get(obj, {}))
            elif kind == "read":
                self._read(tid, obj, ev.label, ev.detail, ev.seq)
            elif kind == "write":
                self._write(tid, obj, ev.label, ev.detail, ev.seq)
            # "notify" carries no happens-before weight: the hand-off is
            # the monitor itself (wait_end re-acquire joins it)

    # -- RACE002: cycles in the lock-acquisition graph ---------------------
    def find_inversions(self) -> None:
        graph: Dict[int, List[int]] = {}
        for (a, b) in self.edges:
            graph.setdefault(a, []).append(b)
            graph.setdefault(b, [])
        # iterative Tarjan SCC: any component with >1 lock is a cycle
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = [0]
        sccs: List[List[int]] = []

        for root in graph:
            if root in index:
                continue
            work = [(root, iter(graph[root]))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(graph[nxt])))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        n = stack.pop()
                        on_stack.discard(n)
                        comp.append(n)
                        if n == node:
                            break
                    if len(comp) > 1:
                        sccs.append(comp)

        label_of: Dict[int, str] = {}
        for (a, b), (la, lb, _t, _s) in self.edges.items():
            label_of.setdefault(a, la)
            label_of.setdefault(b, lb)
        for comp in sccs:
            comp_set = set(comp)
            names = sorted(label_of.get(n, f"lock@{n}") for n in comp)
            orders = "; ".join(
                f"{la} -> {lb} ({t}, seq {s})"
                for (a, b), (la, lb, t, s) in sorted(
                    self.edges.items(), key=lambda kv: kv[1][3])
                if a in comp_set and b in comp_set)
            self.emit(
                "RACE002",
                f"lock-order inversion among {names}: the acquisition "
                f"graph contains a cycle ({orders}) — threads taking "
                f"these locks in opposite orders can deadlock",
                op=None, seq=None, dedupe=(frozenset(names),))


def analyze_log(log: EventLog, target: str = "run") -> CheckReport:
    """Run the happens-before + lockset + lock-graph analysis over one
    recorded log; returns a ``race-detector`` :class:`CheckReport`."""
    events = log.records(SyncEvent)
    a = _Analysis(target)
    a.feed(events)
    a.find_inversions()
    if log.truncated:
        a.emit(
            "RACE005",
            f"event log hit its {log.limit}-record capacity and dropped "
            f"events: the analysis covers a prefix of the run, so a "
            f"clean result is not proof (raise the limit)",
            severity="warning")
    report = CheckReport(tool="race-detector")
    threads = {e.thread for e in events}
    report.checked.append(
        f"{target}: {len(events)} events, {len(threads)} threads")
    report.extend(a.diags)
    return report
