"""repro.obs — causal tracing, handler profiling, and run telemetry.

The paper's *monitoring* axis (MONARC's built-in view of the running
simulation) and *visual output analyzer* axis, made native: attach an
:class:`Observation` to any simulator (or a whole set of logical
processes) and get

* **causal event spans** — every event's scheduled→fired/cancelled
  lifecycle with the firing that caused it (:mod:`repro.obs.tracer`);
* **handler profiles** — wall time and firing counts per callback
  (:mod:`repro.obs.profiler`);
* **run telemetry** — events/sec, sim-time/wall-time ratio, queue depth,
  and a heartbeat progress line, counting firings with the kernel's own
  ``events_executed`` (:mod:`repro.obs.telemetry`);
* **fleet metrics** — labeled counters/gauges/histograms in a mergeable
  :class:`Registry` with Prometheus text-format and JSONL exporters
  (:mod:`repro.obs.metrics`);
* **flight recorder** — a bounded ring of the last N firings, dumped as a
  JSONL post-mortem when a run dies (:mod:`repro.obs.recorder`);
* **exports** — Chrome trace-event JSON (load it in Perfetto), CSV
  metrics, and markdown hot-spot tables (:mod:`repro.obs.export`).

Disabled cost is one ``is None`` test per scheduled and per fired event —
measured by the ``e11_obs_fleet`` baseline section
(``benchmarks/bench_e11_obs_fleet.py``: disabled ≤2%, metrics-only ≤10%).
"""

from .export import chrome_trace, metrics_csv, profile_markdown
from .metrics import Counter, Gauge, Histogram, Registry
from .profiler import HandlerProfiler, HandlerStats
from .recorder import (FlightRecorder, arm_postmortem, disarm_postmortem,
                       dump_postmortem, install_term_handler)
from .session import Observation, ObsBinding
from .spans import AsyncSpan, EventSpan, Marker, SpanStatus, callback_name
from .telemetry import Telemetry
from .tracer import Tracer

__all__ = [
    "Observation",
    "ObsBinding",
    "Tracer",
    "HandlerProfiler",
    "HandlerStats",
    "Telemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "FlightRecorder",
    "arm_postmortem",
    "disarm_postmortem",
    "dump_postmortem",
    "install_term_handler",
    "EventSpan",
    "AsyncSpan",
    "Marker",
    "SpanStatus",
    "callback_name",
    "chrome_trace",
    "profile_markdown",
    "metrics_csv",
]
