"""The observation session: one object wiring tracer/profiler/telemetry.

Usage::

    from repro.obs import Observation

    obs = Observation(trace=True, profile=True, heartbeat=2.0)
    obs.attach(sim)                       # or obs.attach_lps(lps)
    sim.run()
    obs.export_chrome("out.json")         # Perfetto-loadable
    print(obs.profile_table())            # markdown hot spots
    print(obs.telemetry.snapshot(sim))

Mechanics
---------
:meth:`attach` installs an :class:`ObsBinding` as ``sim._obs``.  The kernel
treats that attribute as a null object: when it is ``None`` (the default)
the engine's dispatch loop pays one ``is None`` test per firing and
scheduling one attribute check; when set, the same loop brackets each
*timed* firing (all of them, or every 16th — see ``sample_mask``) with
:meth:`ObsBinding.begin_fire` / :meth:`ObsBinding.end_fire`, which stamp
``perf_counter_ns`` and maintain the *current firing span* that gives
scheduled children their causal parent.

One :class:`Observation` may observe many simulators (the distributed
executors run one per logical process) — each gets its own binding/track,
while the tracer, profiler, and telemetry aggregate across all of them.
"""

from __future__ import annotations

import json
from functools import partial
from time import perf_counter_ns
from typing import Any, Optional

from ..core.queues import AdaptiveQueue
from .export import chrome_trace, metrics_csv, profile_markdown
from .metrics import Registry
from .profiler import HandlerProfiler
from .recorder import FlightRecorder
from .spans import EventSpan
from .telemetry import CHECK_EVERY, Telemetry
from .tracer import Tracer

__all__ = ["Observation", "ObsBinding"]


class ObsBinding:
    """Per-simulator instrumentation hub (stored as ``sim._obs``).

    The engine and the instrumented layers (processes, transfers, LPs) call
    these methods only when the binding exists, so every method may assume
    observation is on; each individually tolerates its facet (tracer,
    profiler, telemetry) being disabled.
    """

    __slots__ = ("obs", "sim", "track", "tracer", "profiler", "telemetry",
                 "metrics", "ring_hook", "current", "sample_mask",
                 "_m_sched", "_m_fired", "_m_handler_ns", "_m_rollbacks",
                 "_m_rolled_back", "_m_reallocs", "_m_migrations",
                 "_m_gvt", "_m_gvt_rounds",
                 "_m_flow_aborts", "_m_transfer_retries")

    def __init__(self, obs: "Observation", sim: Any, track: str) -> None:
        self.obs = obs
        self.sim = sim
        self.track = track
        self.tracer = obs.tracer
        self.profiler = obs.profiler
        self.telemetry = obs.telemetry
        self.metrics = obs.metrics
        #: the recorder's untimed ``sim.pre_event_hooks`` entry, or None
        self.ring_hook = obs.recorder and obs.recorder.pre_event_hook(
            track, sim)
        # Instrument handles are resolved once per binding, never per event:
        # the hot path (end_fire) touches pre-bound Counter/Histogram objects.
        if self.metrics is not None:
            m = self.metrics
            counter = partial(m.counter, track=track)
            self._m_sched = counter("repro_events_scheduled_total",
                                    "Events entering the pending queue.")
            self._m_fired = counter("repro_events_fired_total",
                                    "Event handlers fired by the dispatch loop.")
            self._m_handler_ns = m.histogram(
                "repro_handler_duration_ns",
                "Handler wall time in nanoseconds (pow-2 buckets).",
                track=track)
            self._m_rollbacks = counter("repro_rollbacks_total",
                                        "Time Warp rollbacks applied to this LP.")
            self._m_rolled_back = counter("repro_rolled_back_events_total",
                                          "Speculative events undone by rollbacks.")
            self._m_reallocs = counter(
                "repro_flow_reallocations_total",
                "Flow-network bandwidth share recomputations.")
            self._m_migrations = counter("repro_queue_migrations_total",
                                         "Adaptive event-queue backend migrations.")
            self._m_flow_aborts = counter(
                "repro_flow_aborts_total",
                "In-flight transfers aborted by link outages.")
            self._m_transfer_retries = counter(
                "repro_transfer_retries_total",
                "File-transfer attempts re-queued after an abort.")
            # GVT is global, not per-LP: no track label, so every binding
            # of this registry shares the same pair of instruments.
            self._m_gvt = m.gauge(
                "repro_gvt", "Latest committed global virtual time.")
            self._m_gvt_rounds = m.counter(
                "repro_gvt_rounds_total", "GVT reduction rounds observed.")
        else:
            self._m_sched = self._m_fired = self._m_handler_ns = None
            self._m_rollbacks = self._m_rolled_back = None
            self._m_reallocs = self._m_migrations = None
            self._m_gvt = self._m_gvt_rounds = None
            self._m_flow_aborts = self._m_transfer_retries = None
        #: span of the event whose handler is executing right now — the
        #: causal parent of anything scheduled during that window.
        self.current: Optional[EventSpan] = None
        #: which firings the dispatch loop brackets with begin/end_fire:
        #: those whose lifetime ordinal ``n`` has ``n & sample_mask == 0``.
        #: The tracer and profiler time every firing (mask 0); metrics,
        #: telemetry and the recorder read no durations, so the duration
        #: histogram and the heartbeat check see 1 firing in 16.
        self.sample_mask = 15 if (
            self.tracer is None and self.profiler is None) else 0

    # -- engine hooks --------------------------------------------------------

    def on_schedule(self, ev: Any, now: float) -> None:
        """A new event entered the queue (the engine's one insert, ``_enter``)."""
        tracer = self.tracer
        if tracer is not None:
            ev.obs_span = tracer.on_schedule(self.track, ev, now, self.current)
        m = self._m_sched
        if m is not None:
            m.value += 1.0

    def begin_fire(self, ev: Any) -> int:
        """About to run *ev*'s handler; returns the wall stamp."""
        # Unconditional: a span-less event (e.g. a clone replayed after a
        # Time Warp rollback) must not inherit the previous firing's span
        # as a stale causal parent.
        self.current = ev.obs_span
        return perf_counter_ns()

    def end_fire(self, ev: Any, t0: int) -> None:
        """*ev*'s handler returned (or raised); seal timing records."""
        dur = perf_counter_ns() - t0
        profiler = self.profiler
        if profiler is not None:
            profiler.add(ev.fn, dur)
        span = ev.obs_span
        if span is not None:
            Tracer.on_fired(span, t0, dur)
            ev.obs_span = None
            self.current = None
        telemetry = self.telemetry
        if telemetry is not None \
                and not self.sim._events_executed % CHECK_EVERY:
            telemetry.check(self.sim)
        h = self._m_handler_ns
        if h is not None:
            h.observe(dur)

    def fold_fired(self, fired: int) -> None:
        """The dispatch loop returned after *fired* firings (exact, even
        when durations are sampled); the registry is therefore
        authoritative between runs, not mid-run."""
        m = self._m_fired
        if m is not None:
            m.value += fired

    # -- layer hooks (processes, transfers, cross-LP messages) ---------------

    def on_process(self, process: Any, phase: str) -> None:
        """Process lifecycle annotation (spawn/done/failed/interrupt)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.marker(self.track, "process", f"{phase}:{process.name}",
                          self.sim.now)

    def on_transfer_begin(self, ticket: Any) -> None:
        """A file transfer left the backlog and hit the wire."""
        tracer = self.tracer
        if tracer is not None:
            tracer.async_begin(
                id(ticket), self.track, "transfer",
                f"{ticket.file.name} {ticket.src}->{ticket.dst}",
                self.sim.now,
                {"bytes": ticket.file.size,
                 "queue_delay": ticket.started - ticket.requested})

    def on_transfer_end(self, ticket: Any) -> None:
        """The transfer completed; close its interval."""
        tracer = self.tracer
        if tracer is not None:
            tracer.async_end(id(ticket), self.sim.now,
                             {"total_time": ticket.total_time})

    def on_transfer_retry(self, ticket: Any) -> None:
        """A failed transfer attempt was re-queued with backoff."""
        tracer = self.tracer
        if tracer is not None:
            tracer.marker(self.track, "transfer",
                          f"retry:{ticket.file.name}", self.sim.now,
                          {"attempt": ticket.attempts,
                           "route": f"{ticket.src}->{ticket.dst}"})
        m = self._m_transfer_retries
        if m is not None:
            m.value += 1.0

    def on_flow_abort(self, handle: Any) -> None:
        """A link outage killed an in-flight flow."""
        tracer = self.tracer
        if tracer is not None:
            tracer.marker(self.track, "network",
                          f"flow-abort:{handle.src}->{handle.dst}",
                          self.sim.now,
                          {"remaining_bytes": handle.remaining,
                           "reason": handle.error})
        m = self._m_flow_aborts
        if m is not None:
            m.value += 1.0

    def on_fault(self, kind: str, name: str, phase: str,
                 downtime: float | None = None) -> None:
        """A fault-graph component transitioned (*phase*: fail|repair).

        Fault transitions are rare, so the labeled counter is resolved per
        call rather than pre-bound; repair transitions also record the
        outage length in the MTTR histogram.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.marker(self.track, "fault", f"{phase}:{name}",
                          self.sim.now, {"kind": kind})
        m = self.metrics
        if m is not None:
            m.counter("repro_fault_transitions_total",
                      "Fault-graph component up/down transitions.",
                      track=self.track, kind=kind, phase=phase).inc()
            if phase == "repair" and downtime is not None:
                m.histogram("repro_fault_repair_seconds",
                            "Per-outage time to repair (pow-2 buckets).",
                            track=self.track, kind=kind).observe(downtime)

    def on_message_send(self, msg: Any) -> None:
        """This LP emitted a cross-LP message during the current firing."""
        tracer = self.tracer
        if tracer is not None:
            tracer.on_message_send(msg, self.current)

    def on_message_recv(self, msg: Any, ev: Any) -> None:
        """A cross-LP message was scheduled for local dispatch as *ev*."""
        tracer = self.tracer
        if tracer is not None:
            tracer.on_message_recv(msg, ev.obs_span)

    def on_reallocate(self) -> None:
        """A flow network recomputed bandwidth shares."""
        m = self._m_reallocs
        if m is not None:
            m.value += 1.0

    def on_queue_migrate(self, src: str, dst: str, moved: int) -> None:
        """The adaptive event queue switched its backing structure."""
        tracer = self.tracer
        if tracer is not None:
            tracer.marker(self.track, "queue",
                          f"queue-migrate:{src}->{dst}", self.sim.now,
                          {"from": src, "to": dst, "events_moved": moved})
        m = self._m_migrations
        if m is not None:
            m.value += 1.0

    def on_rollback(self, now: float, straggler_time: float,
                    restored_to: float, depth_events: int) -> None:
        """Time Warp rolled this LP back (straggler or anti-message)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.marker(self.track, "rollback",
                          f"rollback:{self.track}", now,
                          {"straggler_time": straggler_time,
                           "restored_to": restored_to,
                           "depth_events": depth_events})
        m = self._m_rollbacks
        if m is not None:
            m.value += 1.0
            self._m_rolled_back.value += depth_events

    def on_gvt(self, gvt: float) -> None:
        """The optimistic executor committed a new global virtual time."""
        m = self._m_gvt
        if m is not None:
            m.value = gvt
            self._m_gvt_rounds.value += 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObsBinding track={self.track!r}>"


class Observation:
    """One observed run: tracing, profiling, and telemetry à la carte.

    Parameters
    ----------
    trace / profile / telemetry:
        Enable the corresponding facet (all three default on).  Only the
        tracer and the profiler time every firing.
    heartbeat:
        Wall seconds between progress lines (None = silent telemetry).
    sink:
        Heartbeat destination (default stderr); any ``str -> None`` callable.
    metrics:
        ``True`` for a fresh :class:`~repro.obs.metrics.Registry`, or pass a
        registry to share one across observations (default off — the
        single-run facets above are usually enough outside fleet runs).
    recorder:
        ``True`` for a ring of the default capacity, a capacity (an int),
        or a prebuilt :class:`~repro.obs.recorder.FlightRecorder` to share
        (default off).
    """

    def __init__(self, trace: bool = True, profile: bool = True,
                 telemetry: bool = True, heartbeat: float | None = None,
                 sink=None, metrics: "bool | Registry" = False,
                 recorder: "bool | int | FlightRecorder | None" = None) -> None:
        self.tracer: Tracer | None = Tracer() if trace else None
        self.profiler: HandlerProfiler | None = HandlerProfiler() if profile else None
        self.telemetry: Telemetry | None = (
            Telemetry(heartbeat=heartbeat, sink=sink) if telemetry else None)
        if metrics is True:
            self.metrics: Registry | None = Registry()
        else:
            self.metrics = metrics or None
        if recorder is True or recorder is False:
            recorder = FlightRecorder() if recorder else None
        elif recorder is not None and not isinstance(recorder, FlightRecorder):
            recorder = FlightRecorder(int(recorder))
        self.recorder: FlightRecorder | None = recorder
        self.bindings: list[ObsBinding] = []

    # -- attachment ----------------------------------------------------------

    def attach(self, sim: Any, track: str | None = None) -> "Observation":
        """Observe *sim* (idempotent per simulator); chainable."""
        existing = getattr(sim, "_obs", None)
        if existing is not None:
            if existing.obs is self:
                return self
            existing.obs.detach(sim)   # one observer per simulator
        binding = ObsBinding(self, sim, track or f"sim{len(self.bindings)}")
        sim._obs = binding
        self.bindings.append(binding)
        if binding.telemetry is not None:
            binding.telemetry.attach(sim)
        if binding.ring_hook is not None:
            sim.pre_event_hooks.append(binding.ring_hook)
        queue = getattr(sim, "_queue", None)
        if isinstance(queue, AdaptiveQueue):
            queue.on_migrate = binding.on_queue_migrate
        return self

    @property
    def sim(self) -> Any:
        """The first simulator still observed (``None`` once detached)."""
        return self.bindings[0].sim if self.bindings else None

    def attach_lps(self, lps) -> "Observation":
        """Observe every logical process, one track per LP name."""
        for lp in lps:
            self.attach(lp.sim, track=lp.name)
        return self

    def detach(self, sim: Any) -> None:
        """Stop observing *sim* (records collected so far are kept)."""
        binding = getattr(sim, "_obs", None)
        if binding is not None and binding.obs is self:
            sim._obs = None
            self.bindings = [b for b in self.bindings if b is not binding]
            if binding.telemetry is not None:
                binding.telemetry.detach(sim)
            if binding.ring_hook is not None:
                sim.pre_event_hooks.remove(binding.ring_hook)
            queue = getattr(sim, "_queue", None)
            if isinstance(queue, AdaptiveQueue) \
                    and queue.on_migrate == binding.on_queue_migrate:
                queue.on_migrate = None

    def close(self) -> None:
        """Detach from every simulator and finalize the tracer."""
        for binding in list(self.bindings):
            self.detach(binding.sim)
        if self.tracer is not None:
            self.tracer.finalize()

    # -- exports -------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The Chrome trace-event object (requires ``trace=True``)."""
        if self.tracer is None:
            raise ValueError("tracing was not enabled on this Observation")
        tel = self.telemetry
        return chrome_trace(self.tracer, tel and tel.snapshot(self.sim))

    def export_chrome(self, path) -> int:
        """Write the Perfetto-loadable trace JSON; returns event count."""
        payload = self.chrome_trace()
        with open(path, "w") as fp:
            json.dump(payload, fp)
        return len(payload["traceEvents"])

    def profile_table(self, top: int = 15) -> str:
        """Markdown hot-spot table (requires ``profile=True``)."""
        if self.profiler is None:
            raise ValueError("profiling was not enabled on this Observation")
        return profile_markdown(self.profiler, top=top)

    def metrics_csv(self) -> str:
        """Telemetry + profile rows as CSV text."""
        return metrics_csv(self.profiler, self.telemetry, self.sim)

    def prometheus_text(self) -> str:
        """Metrics registry in Prometheus exposition format."""
        if self.metrics is None:
            raise ValueError("metrics were not enabled on this Observation")
        return self.metrics.prometheus_text()

    def summary(self) -> dict:
        """Topline numbers from every enabled facet."""
        out: dict[str, Any] = {}
        if self.tracer is not None:
            out["trace"] = self.tracer.counts()
        if self.profiler is not None:
            out["profile"] = {"handlers": len(self.profiler),
                              "firings": sum(s.count
                                             for s in self.profiler.rows()),
                              "total_ms": self.profiler.total_ns / 1e6}
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.snapshot(self.sim)
        if self.metrics is not None:
            out["metrics"] = {"instruments": len(self.metrics)}
        if self.recorder is not None:
            out["recorder"] = {"events": len(self.recorder),
                               "last_handler": self.recorder.last_handler()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        facets = [name for name, on in (("trace", self.tracer),
                                        ("profile", self.profiler),
                                        ("telemetry", self.telemetry),
                                        ("metrics", self.metrics),
                                        ("recorder", self.recorder)) if on]
        return f"<Observation {'+'.join(facets) or 'off'} sims={len(self.bindings)}>"
