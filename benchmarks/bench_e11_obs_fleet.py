#!/usr/bin/env python
"""E11 — fleet observability overhead: metrics registry + flight recorder.

The engine carries two always-available hot-path hooks: pre-resolved
metric instrument handles (``Counter.value += 1`` / ``Histogram.observe``)
and the flight-recorder ring append.  This benchmark prices them on a pure
drain loop (pre-schedule N exponential-gap no-op events, time ``run()``
alone), across four modes:

``pre_obs``
    The pre-observability engine (no ``_obs`` attribute checks at all) —
    the absolute yardstick.
``disabled``
    Today's engine with nothing attached: the null-object fast path.
    Budget: **≤ 2%** overhead vs ``pre_obs``.
``metrics``
    A metrics-only Observation attached (no trace/profile/telemetry):
    every firing bumps two counters and folds one histogram observation.
    Budget: **≤ 10%** overhead vs ``pre_obs``.
``full``
    Metrics + telemetry + a 256-event flight-recorder ring — what a
    campaign run carries with ``recorder_dir`` set, or under the pool
    with ``heartbeat`` (a default run has no ring).  Information only.

Usage::

    PYTHONPATH=src python benchmarks/bench_e11_obs_fleet.py
    python benchmarks/run_kernel_baseline.py --section e11
"""

from __future__ import annotations

import gc
import math
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for p in (str(_HERE), str(_HERE.parent / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from repro.core import Simulator  # noqa: E402
from repro.core.errors import SchedulingError, StopSimulation  # noqa: E402
from repro.core.events import Event  # noqa: E402

#: drained events in a full refresh (the smoke path scales this down)
DRAIN_EVENTS = 50_000

E11_MODES = ("pre_obs", "disabled", "metrics", "full")

#: overhead budgets vs the pre-obs engine, per mode (None = unbudgeted)
E11_BUDGETS_PCT = {"disabled": 2.0, "metrics": 10.0, "full": None}


class PreObsSimulator(Simulator):
    """The engine as it was before the obs subsystem landed: no ``_obs``
    null-object checks in the insert or at ``run()`` entry.  Kept as the
    yardstick that quantifies the *disabled-path* observability cost (the
    ≤ 2% gate below); it follows the kernel's event form (``fn(*args)``)
    and its one positional insert, so only the obs checks differ."""

    def _enter(self, time, fn, args, priority, label):
        if math.isnan(time):
            raise SchedulingError("cannot schedule event at NaN time")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event in the past (t={time} < now={self._now})"
            )
        self._seq += 1
        ev = Event(float(time), self._seq, fn, args, priority, label)
        self._queue.push(ev)
        return ev

    def run(self, until=None, max_events=None):
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._running = True
        self._stopped = False
        self._stop_reason = ""
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else int(max_events)
        pop_if_le = self._queue.pop_if_le
        hooks = self.pre_event_hooks
        fired = 0
        try:
            while not self._stopped:
                ev = pop_if_le(horizon)
                if ev is None:
                    break
                self._now = ev.time
                fired += 1
                if hooks:
                    for hook in hooks:
                        hook(ev)
                try:
                    ev.fn(*ev.args)
                except StopSimulation as sig:
                    self._stopped = True
                    self._stop_reason = sig.reason or "StopSimulation"
                if fired >= budget:
                    raise SchedulingError(
                        f"max_events budget of {max_events} exhausted at t={self._now}"
                    )
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._events_executed += fired
            self._running = False


def _noop() -> None:
    pass


def e11_drain_scenario(kind: str, events: int, mode: str) -> tuple[float, int]:
    """One timed drain under an E11 observability mode; build untimed."""
    from repro.obs import Observation

    if mode == "pre_obs":
        sim = PreObsSimulator(queue=kind, seed=11)
    else:
        sim = Simulator(queue=kind, seed=11)
        if mode == "metrics":
            Observation(trace=False, profile=False, telemetry=False,
                        metrics=True).attach(sim, track="bench")
        elif mode == "full":
            Observation(trace=False, profile=False, telemetry=True,
                        metrics=True, recorder=256).attach(sim, track="bench")
    stream = sim.stream("drain")
    for _ in range(events):
        sim.schedule(stream.exponential(1.0), _noop)
    # Pause the cyclic GC for the timed region: the float boxing the metric
    # instruments do is enough allocation to trip random full-heap scans,
    # which would attribute multi-ms GC pauses to whichever mode crossed
    # the generation threshold rather than to the hot path under test.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        sim.run()
        dt = time.perf_counter() - t0
    finally:
        gc.enable()
    return dt, sim.events_executed


def collect_e11(kind: str = "heap", repeats: int = 5,
                scale: float = 1.0) -> dict:
    """Measure ev/s per mode over interleaved rounds; returns the
    ``e11_obs_fleet`` section.

    The disabled mode differs from ``pre_obs`` by a single ``is not None``
    check, so its true overhead is far below the measurement noise of a
    busy machine.  Two defences: the mode order rotates every round (no
    position systematically inherits a warm cache or a quiet scheduler),
    and the gated overhead is the *minimum across rounds* of the
    same-round ratio — a regression tripwire reads the least
    noise-contaminated round, not a cross-round best-vs-best ratio that
    one lucky ``pre_obs`` sample can poison.
    """
    events = max(1, int(DRAIN_EVENTS * scale))
    rates: dict[str, list[float]] = {mode: [] for mode in E11_MODES}
    for rnd in range(max(1, repeats)):
        order = E11_MODES[rnd % len(E11_MODES):] + \
            E11_MODES[:rnd % len(E11_MODES)]
        for mode in order:
            dt, n = e11_drain_scenario(kind, events, mode)
            if n != events:
                raise RuntimeError(
                    f"mode {mode!r} fired {n} events, expected {events}")
            rates[mode].append(n / dt)
    best = {mode: max(rates[mode]) for mode in E11_MODES}

    # Correctness rider: the metric instruments must count exactly what the
    # engine fired, or the rates the fleet view reports are fiction.
    from repro.obs import Observation
    sim = Simulator(queue=kind, seed=11)
    obs = Observation(trace=False, profile=False, telemetry=True,
                      metrics=True, recorder=64).attach(sim, track="bench")
    stream = sim.stream("drain")
    check_events = min(events, 5_000)
    for _ in range(check_events):
        sim.schedule(stream.exponential(1.0), _noop)
    sim.run()
    fired = obs.metrics.value("repro_events_fired_total", track="bench")
    counters_consistent = (
        fired == float(check_events)
        and obs.metrics.value("repro_events_scheduled_total",
                              track="bench") == float(check_events)
        and len(obs.recorder) == min(check_events, 64))

    def pct(mode: str) -> float:
        """Least noise-contaminated same-round overhead vs pre_obs."""
        return round(min((pre / r - 1.0) * 100
                         for pre, r in zip(rates["pre_obs"], rates[mode])),
                     2)

    return {
        "scenario": "drain",
        "structure": kind,
        "events": events,
        "results": {mode: {"eps": round(best[mode], 1)}
                    for mode in E11_MODES},
        "overhead_pct": {mode: pct(mode) for mode in E11_MODES
                         if mode != "pre_obs"},
        "budgets_pct": dict(E11_BUDGETS_PCT),
        "counters_consistent": counters_consistent,
    }


def main() -> int:
    section = collect_e11()
    hdr = f"{'mode':<10} {'ev/s':>12} {'overhead':>9} {'budget':>8}"
    print(hdr)
    print("-" * len(hdr))
    for mode in E11_MODES:
        over = section["overhead_pct"].get(mode)
        budget = E11_BUDGETS_PCT.get(mode)
        print(f"{mode:<10} {section['results'][mode]['eps']:>12,.0f} "
              f"{'-' if over is None else f'{over:+.2f}%':>9} "
              f"{'-' if budget is None else f'<={budget:.0f}%':>8}")
    print(f"counters consistent: {section['counters_consistent']}")
    ok = section["counters_consistent"] and all(
        section["overhead_pct"][m] <= b
        for m, b in E11_BUDGETS_PCT.items() if b is not None)
    return 0 if ok else 1


# -- pytest entry points (benchmarks/ is not in tier-1 testpaths) ------------

def test_e11_harness_smoke():
    section = collect_e11(repeats=1, scale=0.02)
    assert set(section["results"]) == set(E11_MODES)
    assert all(row["eps"] > 0 for row in section["results"].values())
    assert section["counters_consistent"]
    # Budgets are asserted only on full (non-smoke) baseline refreshes.


def test_e11_modes_fire_identically():
    walls = {mode: e11_drain_scenario("heap", 2_000, mode)[1]
             for mode in E11_MODES}
    assert len(set(walls.values())) == 1


if __name__ == "__main__":
    raise SystemExit(main())
