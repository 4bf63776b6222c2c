"""Event tracing with a Chrome ``trace_event`` exporter.

:class:`TraceRecorder` accumulates *spans* (durations: lock holds,
lock waits, batch flushes, page-miss I/O), *instants* (contention
events, try-lock failures) and *counter samples* (lock queue depth) as
the simulation runs, then exports them in the Chrome trace-event JSON
format — loadable in ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_ — so a run's lock behaviour can be
inspected on a timeline instead of as end-of-run aggregates.

Two storage modes:

* **unbounded** (default) — every record kept; right for the short
  diagnostic runs the ``cli trace`` subcommand performs;
* **ring buffer** (``ring_capacity=N``) — a bounded ``deque`` keeping
  the newest ``N`` records (``dropped`` counts the overwritten ones);
  right for long runs where only the steady state matters.

Determinism: records carry simulated-time stamps only — never wall
clock — and thread ids are assigned in first-appearance order, so two
runs with the same seed export byte-identical JSON.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["TraceRecorder"]

#: Record layout: (phase, name, category, thread-name, ts, dur, args)
#: — ``phase`` is the Chrome ``ph`` letter ("X" span, "i" instant,
#: "C" counter); ``dur`` is 0.0 for non-spans.
_Record = Tuple[str, str, str, str, float, float, Optional[dict]]

#: Synthetic pid for the whole simulation (one "process").
_PID = 1


class TraceRecorder:
    """Collects trace records; exports Chrome ``trace_event`` JSON."""

    def __init__(self, ring_capacity: Optional[int] = None) -> None:
        if ring_capacity is not None and ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1 or None, got {ring_capacity}")
        self.ring_capacity = ring_capacity
        self._records: Union[List[_Record], deque] = (
            deque(maxlen=ring_capacity) if ring_capacity else [])
        self._appended = 0

    # -- recording (hot when enabled; never called when disabled) --------

    def span(self, name: str, cat: str, tid: str, start_us: float,
             end_us: float, args: Optional[dict] = None) -> None:
        """A complete duration event (``ph: "X"``)."""
        self._records.append(
            ("X", name, cat, tid, start_us, end_us - start_us, args))
        self._appended += 1

    def instant(self, name: str, cat: str, tid: str, ts_us: float,
                args: Optional[dict] = None) -> None:
        """A point event (``ph: "i"``, thread scope)."""
        self._records.append(("i", name, cat, tid, ts_us, 0.0, args))
        self._appended += 1

    def counter(self, name: str, tid: str, ts_us: float,
                value: float) -> None:
        """A counter sample (``ph: "C"``) — plotted as a track."""
        self._records.append(
            ("C", name, "counter", tid, ts_us, 0.0, {"value": value}))
        self._appended += 1

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self):
        """Yield every raw ``(ph, name, cat, tid, ts, dur, args)``
        record — spans, instants and counters alike — in recording
        order. The request-linkage tests walk this to follow one
        request id across span kinds."""
        yield from self._records

    def iter_spans(self):
        """Yield ``(name, cat, tid, start_us, dur_us, args)`` for every
        span record, in recording order.

        The analyzer's raw input: unlike :meth:`aggregate_spans` the
        per-span timestamps and args survive, so warm-up windows and
        batch-size correlations can be computed after the run.
        """
        for phase, name, cat, tid, ts, dur, args in self._records:
            if phase == "X":
                yield name, cat, tid, ts, dur, args

    @property
    def dropped(self) -> int:
        """Records overwritten by the ring buffer (0 when unbounded)."""
        return self._appended - len(self._records)

    # -- export -----------------------------------------------------------

    def _thread_ids(self) -> Dict[str, int]:
        """Thread-name -> integer tid, in first-appearance order."""
        tids: Dict[str, int] = {}
        for record in self._records:
            tid_name = record[3]
            if tid_name not in tids:
                tids[tid_name] = len(tids) + 1
        return tids

    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event *object format* document."""
        tids = self._thread_ids()
        events: List[dict] = []
        for name in tids:  # metadata first: name the timeline rows
            events.append({
                "ph": "M", "pid": _PID, "tid": tids[name],
                "name": "thread_name", "args": {"name": name},
            })
        for phase, name, cat, tid_name, ts, dur, args in self._records:
            event = {
                "ph": phase, "pid": _PID, "tid": tids[tid_name],
                "name": name, "cat": cat, "ts": ts,
            }
            if phase == "X":
                event["dur"] = dur
            elif phase == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                event["args"] = args
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "clock": "simulated-microseconds",
                "dropped_records": self.dropped,
            },
        }

    def to_json(self) -> str:
        """:meth:`to_chrome` as compact, deterministic JSON text."""
        return json.dumps(self.to_chrome(), sort_keys=True,
                          separators=(",", ":")) + "\n"

    # -- analysis ---------------------------------------------------------

    def aggregate_spans(self) -> Dict[Tuple[str, str], dict]:
        """Per-``(cat, name)`` totals over all span records."""
        totals: Dict[Tuple[str, str], dict] = {}
        for phase, name, cat, _tid, _ts, dur, _args in self._records:
            if phase != "X":
                continue
            entry = totals.get((cat, name))
            if entry is None:
                entry = totals[(cat, name)] = {
                    "count": 0, "total_us": 0.0, "max_us": 0.0}
            entry["count"] += 1
            entry["total_us"] += dur
            if dur > entry["max_us"]:
                entry["max_us"] = dur
        return totals

    def flame_summary(self, top: int = 15) -> str:
        """A text table of the ``top`` span kinds by total time.

        This is the "where did the lock-holding time go" answer: span
        kinds (hold/wait per lock, batch commits, disk I/O) ranked by
        cumulative simulated time, with counts, means and maxima.
        """
        totals = self.aggregate_spans()
        if not totals:
            return "(no spans recorded)"
        ranked = sorted(totals.items(),
                        key=lambda item: (-item[1]["total_us"], item[0]))
        header = (f"{'category':<10s} {'span':<32s} {'count':>8s} "
                  f"{'total_us':>12s} {'mean_us':>10s} {'max_us':>10s}")
        lines = [header, "-" * len(header)]
        for (cat, name), entry in ranked[:top]:
            mean = entry["total_us"] / entry["count"]
            lines.append(
                f"{cat:<10s} {name:<32s} {entry['count']:>8d} "
                f"{entry['total_us']:>12.1f} {mean:>10.2f} "
                f"{entry['max_us']:>10.1f}")
        if len(ranked) > top:
            lines.append(f"... and {len(ranked) - top} more span kinds")
        if self.dropped:
            lines.append(f"[ring buffer dropped {self.dropped} oldest "
                         f"records]")
        return "\n".join(lines)
