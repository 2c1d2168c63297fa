"""Names, units, directions and bounds of every metric the benchmark prints.

``BENCHMARK.json`` carries the same definitions (``bench/test_bench.py``
checks the two agree).  End-to-end metrics are measured with tracing off
and have a regression bound; per-layer metrics come from the traced child
and have none.
"""

from __future__ import annotations

#: the layers of the budget — this repo's modules, plus the benchmark's own
#: handlers (``bench``).  Order is the report order.
LAYERS = (
    "core.queues", "core.engine", "core.process", "core.resources",
    "core.monitor", "core.rng", "core.executors", "network.flow",
    "network.topology", "network.transfer", "hosts", "middleware", "faults",
    "simulators", "workloads", "validation", "campaign", "obs", "bench",
)

#: what a user of the system sees, the same on every workload.  ``bound`` is
#: the share of the parent's median by which the metric may get worse.
END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median wall seconds of the run phase (first event fired -> "
             "result returned), GC on"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "median import time of a fresh process + median build phase"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.10,
     "what": "ru_maxrss of the child that ran only this workload"},
)
#: the fourth end-to-end metric.  It is 0 on a healthy run, so it travels as
#: the ``attempted``/``failed`` counts of every result instead of as a
#: bounded metric; its bound is "may not rise".
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower",
               "what": "failed operations / attempted (one per repetition's "
                       "check, plus each campaign run)"}


def _rows(prefix: str, unit: str, better: str, *names: str):
    return [(f"{prefix}.{n}", unit, better) for n in names]


SURVEY = ("bricks", "optorsim", "simgrid", "gridsim", "chicagosim")
EXECUTORS = ("sequential", "cmb", "window", "optimistic")

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.busy_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.calls_n", "count", "lower") for layer in LAYERS]
    + _rows("core.queues", "count", "lower", "push_n", "pop_n", "cancel_n",
            "peak_pending", "migrations_n")
    + _rows("core.queues", "ratio", "lower", "dead_frac")
    + _rows("core.queues", "ns", "lower", "ns_per_op")
    + _rows("core.engine", "count", "lower", "events_n")
    + _rows("core.engine", "1/s", "higher", "events_per_s", "schedule_per_s")
    + _rows("core.process", "count", "lower", "spawn_n")
    + [(f"core.executors.{e}.wall_s", "s", "lower") for e in EXECUTORS]
    + _rows("core.executors", "count", "lower", "committed_n",
            "optimistic.rollbacks_n", "cmb.null_messages_n", "window.epochs_n")
    + _rows("core.executors", "ratio", "higher", "optimistic.efficiency")
    + _rows("network.flow", "count", "lower", "transfers_n", "recomputes_n",
            "flows_touched_n", "rescheduled_n", "peak_active")
    + _rows("network.flow", "count", "higher", "preserved_n", "coalesced_n")
    + _rows("network.flow", "ratio", "lower", "touched_per_recompute")
    + [("network.transfer.retries_n", "count", "lower"),
       ("faults.crashes_n", "count", "lower")]
    + [(f"simulators.{m}.wall_s", "s", "lower") for m in SURVEY]
    + [(f"simulators.{m}.events_per_s", "1/s", "higher") for m in SURVEY]
    + _rows("simulators.monarc", "s", "lower", "diverging_wall_s",
            "steady_wall_s")
    + _rows("simulators.monarc", "1/s", "higher", "diverging_events_per_s",
            "steady_events_per_s")
    + _rows("campaign", "count", "higher", "runs_n")
    + _rows("campaign", "1/s", "higher", "runs_per_s")
    + _rows("campaign", "s", "lower", "serial_wall_s", "run_wall_p50_s",
            "run_wall_p90_s")
    + _rows("campaign", "ratio", "higher", "pool_speedup")
    + _rows("campaign", "ratio", "lower", "transport_overhead_frac")
    + _rows("campaign", "count", "lower", "retries_n", "failed_n")
    + _rows("obs", "ratio", "lower", "metrics_overhead_ratio",
            "profile_overhead_ratio", "full_overhead_ratio")
    + _rows("floor", "ratio", "lower", "mm1_ratio", "timer_ratio")
    + _rows("host", "s", "lower", "cpu_s", "import_s")
    + _rows("host", "count", "lower", "gc_gen2_n")
    + _rows("trace", "ratio", "lower", "overhead_ratio", "unattributed_frac")
    + _rows("trace", "count", "lower", "spans_n")
    + _rows("code", "count", "lower", "src_lines", "src_files")
)
