"""Exporters: Chrome trace-event JSON, CSV metrics, markdown hot spots.

The taxonomy's *visual output analyzer* axis notes simulation output is
"difficult to be analyzed using a pure text format"; rather than ship a GUI
this module emits the Chrome trace-event format, which Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load directly:

* each attached simulator (LP) becomes a named thread track;
* every fired event is a complete slice (``ph="X"``) at its wall-clock
  firing time with the handler's measured duration;
* causal parentage becomes flow arrows (``ph="s"``/``"f"``) from the
  scheduling firing to the scheduled firing — including cross-LP arrows;
* transfers are async intervals, process/job annotations instant events.

Timestamps are microseconds relative to the tracer's epoch.  Slices shorter
than the viewer can render are still emitted — Perfetto handles sub-µs
durations (fractional ``dur``) fine.
"""

from __future__ import annotations

from typing import Any

from .profiler import HandlerProfiler
from .spans import SpanStatus
from .telemetry import Telemetry
from .tracer import Tracer

__all__ = ["chrome_trace", "profile_markdown", "metrics_csv"]

_PID = 1  # one simulated "process"; tracks are threads beneath it


def chrome_trace(tracer: Tracer, telemetry: dict | None = None) -> dict:
    """Build the Chrome trace-event JSON object for *tracer*'s records;
    *telemetry*, a ``Telemetry.snapshot`` dict, fills ``otherData``."""
    tracer.finalize()
    epoch = tracer.epoch_ns
    events: list[dict] = [{
        "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
        "args": {"name": "repro simulation"},
    }]

    tids: dict[str, int] = {}

    def tid(track: str) -> int:
        t = tids.get(track)
        if t is None:
            t = len(tids) + 1
            tids[track] = t
            events.append({"ph": "M", "pid": _PID, "tid": t,
                           "name": "thread_name", "args": {"name": track}})
        return t

    def us(wall_ns: int) -> float:
        return (wall_ns - epoch) / 1000.0

    # Export ids are stable list positions; flows reuse the child's id.
    flow_id = 0
    for span in tracer.spans:
        if span.status != SpanStatus.FIRED:
            continue
        t = tid(span.track)
        ts = us(span.fire_wall)
        events.append({
            "ph": "X", "pid": _PID, "tid": t, "ts": ts,
            "dur": span.dur_ns / 1000.0,
            "name": span.name, "cat": "event",
            "args": {"t_sim": span.due_sim, "seq": span.seq,
                     "priority": span.priority,
                     "scheduled_at": span.sched_sim,
                     "handler": span.fn_name},
        })
        parent = span.parent
        if parent is not None and parent.status == SpanStatus.FIRED:
            flow_id += 1
            cat = "causal-remote" if span.remote else "causal"
            events.append({"ph": "s", "pid": _PID, "tid": tid(parent.track),
                           "ts": us(parent.fire_wall), "id": flow_id,
                           "name": "causes", "cat": cat})
            events.append({"ph": "f", "pid": _PID, "tid": t, "ts": ts,
                           "bp": "e", "id": flow_id,
                           "name": "causes", "cat": cat})

    async_id = 0
    for aspan in tracer.async_spans:
        if aspan.open:
            continue
        async_id += 1
        t = tid(aspan.track)
        base = {"pid": _PID, "tid": t, "id": async_id,
                "name": aspan.name, "cat": aspan.category}
        events.append({**base, "ph": "b", "ts": us(aspan.begin_wall),
                       "args": dict(aspan.args, t_sim=aspan.begin_sim)})
        events.append({**base, "ph": "e", "ts": us(aspan.end_wall),
                       "args": {"t_sim": aspan.end_sim}})

    for mk in tracer.markers:
        events.append({
            "ph": "i", "s": "t", "pid": _PID, "tid": tid(mk.track),
            "ts": us(mk.wall), "name": mk.name, "cat": mk.category,
            "args": dict(mk.args, t_sim=mk.sim_time),
        })

    meta: dict[str, Any] = {"tracer": tracer.counts()}
    if telemetry is not None:
        meta["telemetry"] = telemetry
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}


# -- profiler reductions -----------------------------------------------------

def profile_markdown(profiler: HandlerProfiler, top: int = 15) -> str:
    """Hot-spot table (markdown), hottest handler first."""
    rows = profiler.rows()
    total = profiler.total_ns
    lines = [
        "| handler | firings | total ms | mean µs | max µs | share |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for stats in rows[:top]:
        lines.append(
            f"| `{stats.key}` | {stats.count:,} "
            f"| {stats.total_ns / 1e6:.3f} "
            f"| {stats.mean_ns / 1e3:.2f} "
            f"| {stats.max_ns / 1e3:.2f} "
            f"| {stats.total_ns / total if total else 0:.1%} |")
    if len(rows) > top:
        rest = rows[top:]
        rest_ns = sum(s.total_ns for s in rest)
        rest_n = sum(s.count for s in rest)
        lines.append(f"| *({len(rest)} more)* | {rest_n:,} "
                     f"| {rest_ns / 1e6:.3f} |  |  "
                     f"| {rest_ns / total if total else 0:.1%} |")
    return "\n".join(lines)


def metrics_csv(profiler: HandlerProfiler | None,
                telemetry: Telemetry | None, sim: Any = None) -> str:
    """CSV text: the telemetry snapshot as ``metric,value`` rows, a blank
    line, then one row per handler (a section is left out when its facet
    is off)."""
    sections = []
    if telemetry is not None:
        sections.append(["metric,value"] + [
            f"{key},{value!r}"
            for key, value in telemetry.snapshot(sim).items()])
    if profiler is not None:
        total = profiler.total_ns
        sections.append(
            ["handler,firings,total_ns,mean_ns,max_ns,min_ns,share"] + [
                f"{s.key},{s.count},{s.total_ns},{s.mean_ns:.1f},"
                f"{s.max_ns},{s.min_ns or 0},"
                f"{s.total_ns / total if total else 0.0:.6f}"
                for s in profiler.rows()])
    return "\n".join("\n".join(lines) + "\n" for lines in sections)
