"""Simulation-vs-theory comparison harness.

The executable form of the paper's validation demand: build the queueing
system in the simulator, run it, and compare every measured statistic
against the closed form, reporting relative errors and CI coverage.

:func:`simulate_mm1` / :func:`simulate_mmc` / :func:`simulate_mm1k` /
:func:`simulate_mg1` build
the queue from kernel primitives (:class:`~repro.core.resources.Resource`
carries its own L/W instrumentation, so these functions *also* validate the
resource layer, not a bespoke queue implementation).  :func:`compare`
reduces a run + model into a :class:`ValidationReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ..core.engine import Simulator
from ..core.errors import ValidationError
from ..core.monitor import Monitor
from ..core.process import Process
from ..core.resources import Resource
from .queueing import MG1, MM1, MMc

__all__ = ["QueueRunStats", "ValidationReport", "simulate_mm1", "simulate_mmc",
           "simulate_mm1k", "simulate_mg1", "compare"]


@dataclass(slots=True)
class QueueRunStats:
    """Measured steady-state statistics of one queueing run."""

    completed: int
    L: float
    Lq: float
    W: float
    Wq: float
    utilization: float
    W_ci_halfwidth: float
    #: per-job sojourn times in completion order (kept only when the run was
    #: asked for them via ``keep_series=True``) — the raw material for
    #: MSER-5 warm-up truncation in :mod:`repro.campaign.stats`
    W_series: tuple = ()

    def to_dict(self) -> dict[str, float]:
        """Scalar statistics as a plain picklable dict (series excluded)."""
        return {"completed": int(self.completed), "L": float(self.L),
                "Lq": float(self.Lq), "W": float(self.W),
                "Wq": float(self.Wq),
                "utilization": float(self.utilization),
                "W_ci_halfwidth": float(self.W_ci_halfwidth)}


@dataclass(slots=True)
class ValidationReport:
    """Analytic vs measured, with relative errors."""

    model: str
    analytic: dict[str, float]
    measured: dict[str, float]
    rel_errors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for k, a in self.analytic.items():
            m = self.measured.get(k, math.nan)
            self.rel_errors[k] = abs(m - a) / abs(a) if a else math.nan

    @property
    def max_rel_error(self) -> float:
        """Worst relative error across all compared quantities."""
        return max(self.rel_errors.values())

    def to_rows(self) -> list[tuple[str, float, float, float]]:
        """(quantity, analytic, measured, rel_error) rows for reporting."""
        return [(k, self.analytic[k], self.measured.get(k, math.nan),
                 self.rel_errors[k]) for k in sorted(self.analytic)]


#: jobs every simulate_* discards before measuring, unless told otherwise
DEFAULT_WARMUP = 2_000


def _run_queue(sim: Simulator, servers: int, arrival_gap: Callable[[], float],
               service_time: Callable[[], float], n_jobs: int,
               warmup: int, keep_series: bool = False,
               queue_limit: int | None = None) -> QueueRunStats:
    """Drive n_jobs through a `servers`-capacity FIFO station; measure.
    With a *queue_limit* an arrival that would wait beyond it balks."""
    if n_jobs <= warmup:
        raise ValidationError("n_jobs must exceed warmup")
    station = Resource(sim, capacity=servers, name="station",
                       queue_limit=queue_limit)
    mon = Monitor("queue-run")
    in_system = mon.level("L", start_time=sim.now)
    wall = mon.tally("W")
    wait = mon.tally("Wq")
    done = [0]

    def customer(i: int):
        arrived = sim.now
        req = station.request()
        if req.balked:          # a full finite station: leaves unserved
            return
        in_system.add(arrived, +1)
        yield req
        waited = sim.now - arrived
        yield service_time()
        station.release(req)
        in_system.add(sim.now, -1)
        done[0] += 1
        if i >= warmup:
            wall.record(sim.now - arrived)
            wait.record(waited)

    def source():
        for i in range(n_jobs):
            Process(sim, customer, i, name=f"cust-{i}")
            yield arrival_gap()

    Process(sim, source, name="source")
    sim.run()
    t_end = sim.now
    w_mean, w_half = wall.batch_means(10)
    return QueueRunStats(
        completed=done[0],
        L=in_system.mean(t_end),
        Lq=station.monitor.levels["queue_length"].mean(t_end),
        W=w_mean,
        Wq=wait.mean,
        utilization=station.utilization(t_end),
        W_ci_halfwidth=w_half,
        W_series=tuple(float(x) for x in wall.samples) if keep_series else (),
    )


def simulate_mm1(lam: float, mu: float, n_jobs: int = 20_000,
                 warmup: int = DEFAULT_WARMUP, seed: int = 0, obs=None,
                 keep_series: bool = False) -> QueueRunStats:
    """M/M/1 built from kernel primitives.

    Pass an :class:`repro.obs.Observation` as *obs* to trace/profile the
    run (the simulator is created internally, so this is the attach point).
    """
    sim = Simulator(seed=seed)
    if obs is not None:
        obs.attach(sim, track="mm1")
    arr = sim.stream("arrivals")
    svc = sim.stream("service")
    return _run_queue(sim, 1, lambda: arr.exponential(1 / lam),
                      lambda: svc.exponential(1 / mu), n_jobs, warmup,
                      keep_series=keep_series)


def simulate_mmc(lam: float, mu: float, c: int, n_jobs: int = 20_000,
                 warmup: int = DEFAULT_WARMUP, seed: int = 0, obs=None,
                 keep_series: bool = False) -> QueueRunStats:
    """M/M/c built from kernel primitives."""
    sim = Simulator(seed=seed)
    if obs is not None:
        obs.attach(sim, track=f"mm{c}")
    arr = sim.stream("arrivals")
    svc = sim.stream("service")
    return _run_queue(sim, c, lambda: arr.exponential(1 / lam),
                      lambda: svc.exponential(1 / mu), n_jobs, warmup,
                      keep_series=keep_series)


def simulate_mm1k(lam: float, mu: float, K: int, n_jobs: int = 20_000,
                  warmup: int = DEFAULT_WARMUP, seed: int = 0, obs=None,
                  keep_series: bool = False) -> QueueRunStats:
    """M/M/1/K: one server and room for ``K - 1`` waiting.

    An arrival that finds K in the system balks and leaves unserved, so
    ``completed`` counts the admitted customers, ``W`` and ``Wq`` are
    theirs, and ``1 - completed / n_jobs`` is the blocking probability;
    :class:`~repro.validation.queueing.MM1K` has the closed forms.
    """
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    sim = Simulator(seed=seed)
    if obs is not None:
        obs.attach(sim, track="mm1k")
    arr = sim.stream("arrivals")
    svc = sim.stream("service")
    return _run_queue(sim, 1, lambda: arr.exponential(1 / lam),
                      lambda: svc.exponential(1 / mu), n_jobs, warmup,
                      keep_series=keep_series, queue_limit=K - 1)


def simulate_mg1(lam: float, service: Callable[[], float], n_jobs: int = 20_000,
                 warmup: int = DEFAULT_WARMUP, seed: int = 0, obs=None,
                 keep_series: bool = False) -> QueueRunStats:
    """M/G/1 with an arbitrary service-time sampler."""
    sim = Simulator(seed=seed)
    if obs is not None:
        obs.attach(sim, track="mg1")
    arr = sim.stream("arrivals")
    return _run_queue(sim, 1, lambda: arr.exponential(1 / lam),
                      service, n_jobs, warmup, keep_series=keep_series)


def compare(model: MM1 | MMc | MG1, stats: QueueRunStats) -> ValidationReport:
    """Reduce one (closed form, measured run) pair into a report."""
    analytic = {"L": model.L, "Lq": model.Lq, "W": model.W, "Wq": model.Wq}
    if isinstance(model, (MM1, MMc)):
        analytic["utilization"] = model.rho
    measured = {"L": stats.L, "Lq": stats.Lq, "W": stats.W, "Wq": stats.Wq,
                "utilization": stats.utilization}
    measured = {k: v for k, v in measured.items() if k in analytic}
    return ValidationReport(type(model).__name__, analytic, measured)
