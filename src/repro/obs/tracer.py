"""Causal event tracing — who scheduled what, and what it cost.

The paper's *monitoring* axis singles out MONARC for watching the running
simulation from inside; SimGrid's longevity is credited partly to its
integrated tracing toolchain.  :class:`Tracer` is this framework's
equivalent: attach it (via :class:`~repro.obs.session.Observation`) to one
or more simulators and every event's lifecycle is recorded as an
:class:`~repro.obs.spans.EventSpan` with **causal parentage** — the span of
the firing whose handler scheduled it.  Parentage needs no cooperation from
model code: the engine tells the tracer which event is currently firing,
and every ``schedule`` call that happens inside that window is its child.

Cross-simulator causality (distributed runs) is stitched through
:meth:`on_message_send` / :meth:`on_message_recv`: the sending LP's firing
span is remembered per message and grafted onto the receiving LP's dispatch
span, so a cause→effect chain follows a job across logical processes.

One tracer may serve many simulators (every LP of a partitioned run): each
binding passes its own ``track``, and every executor runs one LP at a time,
so spans from different simulators interleave in the lists but never share
state.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Iterable, Optional

from .spans import AsyncSpan, EventSpan, Marker, SpanStatus

__all__ = ["Tracer"]


class Tracer:
    """Collects spans, markers, and async intervals for one observed run."""

    def __init__(self) -> None:
        #: perf_counter_ns at construction — the trace's wall-time epoch.
        self.epoch_ns = perf_counter_ns()
        self.spans: list[EventSpan] = []
        self.markers: list[Marker] = []
        self.async_spans: list[AsyncSpan] = []
        #: in-flight cross-LP messages: (src LP, send seq) -> sending span
        self._flows: dict[tuple[str, int], Optional[EventSpan]] = {}
        #: open transfer intervals keyed by id(ticket)
        self._open_async: dict[int, AsyncSpan] = {}
        self._finalized = False

    # -- span lifecycle (called by ObsBinding on the instrumented path) ------

    def on_schedule(self, track: str, ev: Any, now: float,
                    parent: Optional[EventSpan]) -> EventSpan:
        """Open a span for a freshly scheduled event; returns it."""
        span = EventSpan(track, ev.seq, ev.priority, ev.label, ev.fn, parent,
                         now, ev.time, perf_counter_ns(), ev)
        self.spans.append(span)
        return span

    @staticmethod
    def on_fired(span: EventSpan, t0: int, dur_ns: int) -> None:
        """Seal a span after its handler ran (wall stamps + status)."""
        span.fire_wall = t0
        span.dur_ns = dur_ns
        span.status = SpanStatus.FIRED
        span.event = None  # drop the Event: spans must not pin dead records

    # -- cross-LP message stitching ------------------------------------------

    def on_message_send(self, msg: Any, sender: Optional[EventSpan]) -> None:
        """Remember which firing produced *msg* (keyed by (src, seq))."""
        self._flows[(msg.src, msg.seq)] = sender

    def on_message_recv(self, msg: Any, span: Optional[EventSpan]) -> None:
        """Graft the sender's span onto the receiving dispatch event."""
        origin = self._flows.pop((msg.src, msg.seq), None)
        if span is not None and origin is not None:
            span.parent = origin
            span.remote = True

    # -- annotations ---------------------------------------------------------

    def marker(self, track: str, category: str, name: str, sim_time: float,
               args: dict | None = None) -> None:
        """Record a point-in-time annotation on *track*."""
        self.markers.append(
            Marker(track, category, name, perf_counter_ns(), sim_time, args))

    def async_begin(self, key: int, track: str, category: str, name: str,
                    sim_time: float, args: dict | None = None) -> None:
        """Open a begin/end interval identified by *key*."""
        span = AsyncSpan(track, category, name, perf_counter_ns(), sim_time, args)
        self._open_async[key] = span
        self.async_spans.append(span)

    def async_end(self, key: int, sim_time: float,
                  args: dict | None = None) -> None:
        """Close the interval opened under *key* (no-op when unknown)."""
        span = self._open_async.pop(key, None)
        if span is not None:
            span.close(perf_counter_ns(), sim_time)
            if args:
                span.args.update(args)

    # -- finishing -----------------------------------------------------------

    def finalize(self) -> None:
        """Resolve still-pending spans: cancelled events are marked so.

        Cancellation is detected lazily here (by asking the retained Event)
        rather than eagerly on ``Event.cancel`` — the cancel path stays as
        fast as the untraced kernel's.  Idempotent; exporters call it.
        """
        if self._finalized:
            return
        for span in self.spans:
            ev = span.event
            if ev is not None:
                if ev.cancelled:
                    span.status = SpanStatus.CANCELLED
                span.event = None
        self._finalized = True

    # -- queries -------------------------------------------------------------

    def fired_spans(self) -> list[EventSpan]:
        """Spans whose event actually ran, in firing order per track."""
        return [s for s in self.spans if s.status == SpanStatus.FIRED]

    def children_of(self, span: EventSpan) -> list[EventSpan]:
        """Direct causal children of *span* (linear scan — analysis only)."""
        return [s for s in self.spans if s.parent is span]

    def chain(self, span: EventSpan) -> list[EventSpan]:
        """Root-first causal ancestry of *span* (inclusive)."""
        out: list[EventSpan] = []
        seen: set[int] = set()
        cur: Optional[EventSpan] = span
        while cur is not None and id(cur) not in seen:
            seen.add(id(cur))
            out.append(cur)
            cur = cur.parent
        out.reverse()
        return out

    def counts(self) -> dict[str, int]:
        """Span totals by status plus annotation volumes."""
        self.finalize()
        by = {"fired": 0, "cancelled": 0, "pending": 0}
        for s in self.spans:
            by[SpanStatus.NAMES[s.status]] += 1
        by["markers"] = len(self.markers)
        by["async"] = len(self.async_spans)
        by["cross_lp_links"] = sum(1 for s in self.spans if s.remote)
        return by

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterable[EventSpan]:
        return iter(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer spans={len(self.spans)} markers={len(self.markers)}>"
