"""Campaign scenario registry — named, picklable-by-name run functions.

A scenario body ``(sim, params) -> metrics`` sets its model up on the
:class:`~repro.core.engine.Simulator` it is given, runs it, and returns a
plain dict of deterministic numbers (same seed + params ⇒ byte-identical
values, regardless of which process ran it).  The registry builds that
simulator and observes it: the run it stores is ``(params, seed,
obs=None) -> (metrics, telemetry)``, *telemetry* being the snapshot of
the run's :class:`~repro.obs.Observation` (wall-clock dependent, reported
but never compared; ``{}`` when unobserved).

Workers receive only the scenario *name* and look the function up in this
registry after import, so nothing callable ever crosses the process
boundary — the worker→parent protocol stays plain tuples of builtins.

A scenario declares its defaults, and its analytic model where one
exists, when it registers: the run and :func:`theory_for` read the same
filled params, so a verdict never compares against a drifted copy.
Beside the queueing models, ``quadratic`` and ``dependability`` sit the
surveyed simulators' studies the E-tests and examples run (``bricks``,
``optorsim``, ``chicagosim``, ``gridsim``, ``simgrid``, ``t0t1``); each
imports its model inside its run, so importing the registry loads none.
"""

from __future__ import annotations

from functools import wraps
from typing import Any, Callable, Mapping

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, ValidationError

__all__ = ["SCENARIOS", "register_scenario", "run_scenario", "theory_for"]

ScenarioBody = Callable[[Simulator, dict], dict]
ScenarioFn = Callable[..., tuple[dict, dict]]

SCENARIOS: dict[str, ScenarioFn] = {}
#: scenario name -> ``theory(repro.validation, filled params)``
_THEORIES: dict[str, Callable[[Any, dict], Any]] = {}


def register_scenario(name: str, defaults: Mapping[str, Any] | None = None,
                      theory: Callable[[Any, dict], Any] | None = None
                      ) -> Callable[[ScenarioBody], ScenarioFn]:
    """Decorator registering the scenario body ``(sim, params) -> metrics``
    under *name*.

    The registry stores, and the decorator returns, the run
    ``(params, seed, obs=None) -> (metrics, telemetry)``: it fills the
    declared *defaults* (each declared param cast to its default's type,
    see :func:`_filled`), builds the run's one simulator on *seed*,
    attaches *obs* to it under the track *name*, and calls the body.  So
    a direct call sees the defaults too (they stay readable as its
    ``defaults`` attribute).  *theory* maps the filled params of a point
    to its analytic model; it receives :mod:`repro.validation` as its
    first argument, so that importing the registry does not load it.
    """
    def deco(body: ScenarioBody) -> ScenarioFn:
        @wraps(body)
        def run(params: dict, seed: int, obs=None) -> tuple[dict, dict]:
            filled = _filled(name, params)
            sim = Simulator(seed=seed)
            if obs is not None:
                obs.attach(sim, track=name)
            metrics = body(sim, filled)
            return metrics, {} if obs is None else obs.telemetry.snapshot(sim)

        run.defaults = dict(defaults or {})
        SCENARIOS[name] = run
        if theory is not None:
            _THEORIES[name] = theory
        return run
    return deco


def _registered(name: str) -> ScenarioFn:
    """The scenario registered as *name* (a ConfigurationError if none)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(f"unknown scenario {name!r}; registered: "
                                 f"{sorted(SCENARIOS)}") from None


def _warmup(value: Any) -> Any:
    """*value* as the queueing scenarios' ``warmup``, the one param
    declared with a None default: None (a tenth of the jobs), ``mser5``,
    or a job count >= 0; a ValueError otherwise."""
    if value in (None, "mser5") or (type(value) is int and value >= 0):
        return value
    raise ValueError(value)


def _filled(scenario: str, params: Mapping[str, Any]) -> dict:
    """*params* over the defaults *scenario* declares, each declared param
    cast to its default's type (so ``--set c=2.0`` and ``--set rho=1``
    read as int and float, and a bool takes ``true``/``false`` in any
    case; a None default is checked by :func:`_warmup`); a value the cast
    fails on or changes (``K=2.5`` for an int ``K``), or a param that a
    scenario declaring defaults lacks, is a ConfigurationError."""
    declared = _registered(scenario).defaults
    unknown = sorted(set(params) - set(declared)) if declared else []
    if unknown:
        raise ConfigurationError(
            f"scenario {scenario!r} has no param {', '.join(unknown)}; "
            f"it declares {', '.join(sorted(declared))}")
    filled = dict(params)
    for name, default in declared.items():
        value = params.get(name, default)
        if isinstance(default, bool) and isinstance(value, str):
            value = {"true": True, "false": False}.get(value.lower(), value)
        try:
            filled[name] = (_warmup(value) if default is None
                            else type(default)(value))
        except (TypeError, ValueError):
            filled[name] = None
        if filled[name] != value:
            kind = ("a job count >= 0 or 'mser5'" if default is None
                    else type(default).__name__)
            raise ConfigurationError(
                f"scenario {scenario!r}: param {name} must be {kind}, "
                f"got {value!r}")
    return filled


def run_scenario(name: str, params: Mapping[str, Any],
                 seed: int) -> tuple[dict, dict]:
    """Execute one registered scenario, unobserved; returns (metrics, {})."""
    return _registered(name)(dict(params), int(seed))


def theory_for(scenario: str, params: Mapping[str, Any]):
    """The analytic model of one scenario point, or None.

    None when the scenario declares no theory (no surveyed study does),
    or when the point lies outside its model (an unstable queue, no
    server): such a point gets no verdict.  ``mm1`` and ``mmc`` give an
    object with L/Lq/W/Wq/rho properties; ``mm1k`` and ``dependability``
    a mapping, since an M/M/1/K's utilization is its busy fraction, which
    the verdict must not alias to ``rho`` (the offered load).
    """
    if scenario not in _THEORIES:
        return None
    from .. import validation

    try:
        return _THEORIES[scenario](validation, _filled(scenario, params))
    except ValidationError:
        return None


def _queue_run(sim: Simulator, params: dict, **model: Any) -> dict:
    """Shared body of the queueing scenarios: run an M/M/c/K station of
    *model* on *sim* for ``params["jobs"]`` jobs, truncate the warm-up."""
    from ..validation import mmck_station
    from .stats import mser5

    n_jobs, warmup = params["jobs"], params["warmup"]
    if warmup != "mser5":
        if warmup is None:
            warmup = max(1, n_jobs // 10)
        return mmck_station(sim, n_jobs=n_jobs, warmup=warmup,
                            **model).to_dict()
    stats = mmck_station(sim, n_jobs=n_jobs, warmup=0, keep_series=True,
                         **model)
    cut = mser5(stats.W_series)
    series = stats.W_series[cut:]
    metrics = stats.to_dict()
    # Replace the fixed-warmup W with the MSER-5 truncated mean; the
    # untruncated value stays visible for the truncation-effect column.
    metrics["W_raw"] = metrics["W"]
    metrics["W"] = (sum(series) / len(series)) if series else metrics["W"]
    metrics["mser5_cut"] = int(cut)
    return metrics


def _mm1k_theory(v, p: dict) -> dict:
    m = v.MM1K(p["rho"] * p["mu"], p["mu"], p["K"])
    return {"L": m.L, "Lq": m.Lq, "W": m.W, "Wq": m.Wq,
            "blocking": m.blocking_probability, "utilization": m.utilization}


#: what every queueing scenario assumes unless told otherwise (a warmup of
#: None cuts a tenth of the jobs, "mser5" cuts where MSER-5 says)
_QUEUE = {"mu": 1.0, "jobs": 20_000, "warmup": None}


@register_scenario(
    "mm1", defaults={**_QUEUE, "rho": 0.6},
    theory=lambda v, p: v.MM1(p["rho"] * p["mu"], p["mu"]))
def mm1_scenario(sim: Simulator, params: dict) -> dict:
    """M/M/1 run: params rho, mu, jobs, warmup (int or 'mser5')."""
    rho, mu = params["rho"], params["mu"]
    if not 0 < rho < 1:
        raise ConfigurationError(f"mm1 needs rho in (0,1), got rho={rho}")
    return _queue_run(sim, params, lam=rho * mu, mu=mu)


@register_scenario(
    "mmc", defaults={**_QUEUE, "rho": 0.6, "c": 2},
    theory=lambda v, p: v.MMc(p["rho"] * p["c"] * p["mu"], p["mu"], p["c"]))
def mmc_scenario(sim: Simulator, params: dict) -> dict:
    """M/M/c run: params rho (per-server), c, mu, jobs, warmup."""
    rho, c, mu = params["rho"], params["c"], params["mu"]
    if not 0 < rho < 1 or c < 1:
        raise ConfigurationError(
            f"mmc needs rho in (0,1) and c >= 1, got rho={rho}, c={c}")
    return {**_queue_run(sim, params, lam=rho * c * mu, mu=mu, c=c),
            "servers": c}


@register_scenario("mm1k", defaults={**_QUEUE, "rho": 0.9, "K": 3},
                   theory=_mm1k_theory)
def mm1k_scenario(sim: Simulator, params: dict) -> dict:
    """M/M/1/K run: params rho (offered load, any > 0), K, mu, jobs, warmup.

    Adds ``blocking`` — the share of the *jobs* arrivals that found the
    station full and left unserved."""
    rho, K, mu = params["rho"], params["K"], params["mu"]
    if not rho > 0 or K < 1:
        raise ConfigurationError(
            f"mm1k needs rho > 0 and K >= 1, got rho={rho}, K={K}")
    metrics = _queue_run(sim, params, lam=rho * mu, mu=mu, K=K)
    metrics["blocking"] = 1.0 - metrics["completed"] / params["jobs"]
    return metrics


@register_scenario("provision", defaults={
    **_QUEUE, "lam": 3.0, "servers": 4, "policy": "pooled", "jobs": 8_000})
def provision_scenario(sim: Simulator, params: dict) -> dict:
    """Server-provisioning study — the evolutionary-search demo scenario.

    Genome parameters: ``servers`` (replica count) and ``policy``:

    * ``pooled`` — one M/M/c station with *servers* servers sharing a queue;
    * ``split`` — *servers* independent M/M/1 queues with the arrivals
      randomly split (simulated as one representative queue at rate λ/c —
      the queues are i.i.d. so the per-customer mean sojourn is identical).

    Queueing theory says pooling dominates splitting at equal capacity, so
    a correct search discovers ``policy=pooled`` with a moderate server
    count when the objective charges a per-replica cost, e.g.
    ``W + 0.15 * servers``.
    """
    lam, mu, c = params["lam"], params["mu"], params["servers"]
    if c < 1:
        raise ConfigurationError(f"servers must be >= 1, got {c}")
    if lam >= c * mu:
        # Infeasible genome (offered load exceeds capacity): return a large
        # finite penalty instead of raising, so the search can explore past
        # the feasibility boundary without killing runs.
        return {"W": 1e9, "Wq": 1e9, "L": 1e9, "Lq": 1e9,
                "utilization": 1.0, "servers": c, "feasible": 0}
    if params["policy"] == "pooled":
        metrics = _queue_run(sim, params, lam=lam, mu=mu, c=c)
    elif params["policy"] == "split":
        metrics = _queue_run(sim, params, lam=lam / c, mu=mu)
    else:
        raise ConfigurationError(f"unknown policy {params['policy']!r}")
    return {**metrics, "servers": c, "feasible": 1}


@register_scenario("quadratic",
                   defaults={"x": 0.0, "target": 3.0, "noise": 0.1})
def quadratic_scenario(sim: Simulator, params: dict) -> dict:
    """Noisy parabola — a fast synthetic objective for search smoke tests.

    ``y = (x - target)² + noise·N(0,1)``; the optimum is known, so tests
    can assert the evolutionary loop actually converges.  It draws from
    *sim*'s ``quadratic`` stream and fires no event.
    """
    x = params["x"]
    y = ((x - params["target"]) ** 2
         + params["noise"] * sim.stream("quadratic").normal(0.0, 1.0))
    return {"y": float(y), "x": x}


# Exponential UP/DOWN renewal: steady-state availability.  The time-average
# bias over a finite horizon is O(tau/horizon) with
# tau = mtbf*mttr/(mtbf+mttr) — negligible against the CI width.
@register_scenario(
    "dependability",
    defaults={"sites": 4, "mtbf": 50.0, "mttr": 10.0, "horizon": 2000.0,
              "job_length": 500.0, "rating": 100.0, "file_bytes": 2e6,
              "bandwidth": 1e6, "fetch_gap": 5.0, "attempts": 8},
    theory=lambda v, p: {
        "availability": p["mtbf"] / (p["mtbf"] + p["mttr"])})
def dependability_scenario(sim: Simulator, params: dict) -> dict:
    """Correlated-fault campaign: a star grid under site outage cycles.

    ``sites`` leaf sites (one checkpointing machine each) hang off a hub;
    a :class:`~repro.faults.CorrelatedFaultInjector` cycles each *site*
    component through Exp(mtbf)/Exp(mttr) outages, so one drawn failure
    takes down the site's machine **and** its access link together.  Job
    chains run on every machine; file-fetch chains cross every access
    link, so outages evict work and abort in-flight transfers (which the
    transfer service retries with deterministic backoff).

    Params: sites, mtbf, mttr, horizon, job_length (MI), rating,
    file_bytes, bandwidth, fetch_gap, attempts.  The measured
    ``availability`` converges on ``mtbf / (mtbf + mttr)`` — the analytic
    value ``theory_for`` exposes for the CI-contains-theory verdict.
    """
    import math

    from ..faults import CorrelatedFaultInjector, FaultGraph
    from ..hosts.cpu import SpaceSharedMachine
    from ..hosts.site import Grid, Site
    from ..network.topology import star
    from ..network.transfer import FileSpec

    n_sites, horizon = params["sites"], params["horizon"]
    if n_sites < 1:
        raise ConfigurationError(f"sites must be >= 1, got {n_sites}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")

    leaves = [f"site{i}" for i in range(n_sites)]
    topo = star("hub", leaves, params["bandwidth"], latency=0.01)
    sites = [Site(sim, "hub")]
    for name in leaves:
        sites.append(Site(sim, name, machines=[
            SpaceSharedMachine(sim, pes=1, rating=params["rating"],
                               name=f"{name}-cpu",
                               restart_policy="checkpoint")]))
    grid = Grid(sim, topo, sites, transfer_attempts=params["attempts"],
                transfer_backoff=1.0)
    graph = FaultGraph.from_grid(grid)
    targets = [f"site:{n}" for n in leaves]
    injector = CorrelatedFaultInjector(
        sim, graph, sim.streams.spawn("faults"), targets=targets,
        mtbf=params["mtbf"], mttr=params["mttr"], horizon=horizon)

    machines = [grid.site(n).machines[0] for n in leaves]

    def submit_chain(machine) -> None:
        run = machine.submit(params["job_length"])
        run._subscribe(lambda _r, m=machine: submit_chain(m))

    def fetch_chain(leaf: str, k: int) -> None:
        ticket = grid.transfers.fetch(
            FileSpec(f"{leaf}-f{k}", params["file_bytes"]), "hub", leaf)
        ticket._subscribe(
            lambda _t, l=leaf, nk=k + 1: sim.schedule(
                params["fetch_gap"], fetch_chain, l, nk, label="fetch_chain"))

    for m in machines:
        submit_chain(m)
    for name in leaves:
        fetch_chain(name, 0)

    sim.run(until=horizon)

    mttr_mean = graph.mttr_observed
    return {
        "availability": injector.availability,
        "availability_min": min(graph.availability(t) for t in targets),
        "crashes": injector.crashes,
        "mttr_mean": 0.0 if math.isnan(mttr_mean) else mttr_mean,
        "jobs_completed": sum(m.completed for m in machines),
        "jobs_evicted": sum(m.evictions for m in machines),
        "transfers_completed": grid.transfers.completed,
        "transfer_retries": grid.transfers.retries,
        "transfers_failed": grid.transfers.failed,
        "flow_aborts": grid.network.aborted,
    }


# The surveyed simulators' studies (Table 1, §4-§5): each returns the scalars
# its E-test reads, and only what some caller varies is a param.

#: the SimGrid study's hosts (name -> MIPS); E9's task farm reuses them
SIMGRID_HOSTS = {"h0": 1500.0, "h1": 900.0, "h2": 500.0, "h3": 300.0}


@register_scenario("bricks", defaults={
    "scheduler": "random", "clients": 6, "servers": 4, "job_rate": 0.35,
    "horizon": 600.0})
def bricks_scenario(sim: Simulator, params: dict) -> dict:
    """Bricks under bursty server load (E11): its monitor's statistics,
    as ``collector.stat``."""
    from ..simulators.bricks import BricksModel

    model = BricksModel(sim, n_clients=params["clients"],
                        n_servers=params["servers"],
                        scheduler=params["scheduler"],
                        job_rate=params["job_rate"],
                        background=0.6).run(horizon=params["horizon"])
    return {f"{key}.{stat}": value
            for key, stats in model.monitor.summary().items()
            for stat, value in stats.items()}


@register_scenario("optorsim", defaults={
    "optimizer": "lru", "pattern": "zipf", "jobs": 90})
def optorsim_scenario(sim: Simulator, params: dict) -> dict:
    """OptorSim's pull optimizers, ~8 of 30 files fitting a disk (E8)."""
    from ..simulators.optorsim import OptorSimModel

    model = OptorSimModel(sim, optimizer=params["optimizer"],
                          access_pattern=params["pattern"], n_sites=5,
                          n_files=30, files_per_job=6, se_capacity=8e9)
    model.run(n_jobs=params["jobs"], inter_arrival=15.0)
    return {"completed": len(model.completed),
            "mean_job_time": model.mean_job_time,
            "remote_fraction": model.remote_fraction(),
            "replicas_created": model.strategy.replicas_created,
            "replicas_evicted": model.strategy.replicas_evicted}


@register_scenario("chicagosim", defaults={
    "job_policy": "random", "data_policy": "none", "jobs": 90})
def chicagosim_scenario(sim: Simulator, params: dict) -> dict:
    """ChicagoSim's job placement x push replication (E8)."""
    from ..simulators.chicagosim import ChicagoSimModel

    model = ChicagoSimModel(sim, n_sites=5, n_datasets=20,
                            job_policy=params["job_policy"],
                            data_policy=params["data_policy"],
                            push_threshold=3)
    model.run(n_jobs=params["jobs"], zipf_s=1.2)
    return {"completed": len(model.completed),
            "mean_turnaround": model.mean_turnaround,
            "remote_fraction": model.remote_fraction(),
            "pushes": getattr(model.strategy, "pushes", 0)}


@register_scenario("gridsim", defaults={
    "strategy": "time", "gridlets": 40, "deadline": 2000.0, "budget": 1e6})
def gridsim_scenario(sim: Simulator, params: dict) -> dict:
    """GridSim's deadline/budget-constrained broker (E10): its summary."""
    from ..simulators.gridsim import GridSimModel

    summary = GridSimModel(sim).run_dbc(
        n_gridlets=params["gridlets"], deadline=params["deadline"],
        budget=params["budget"], strategy=params["strategy"])
    del summary["strategy"]
    return summary


@register_scenario("simgrid", defaults={"mode": "static", "churn": False})
def simgrid_scenario(sim: Simulator, params: dict) -> dict:
    """SimGrid's compile-time (HEFT, ``mode=static``) or runtime dispatch
    of a layered DAG, under bursty host load with ``churn`` (E9)."""
    from ..simulators.simgrid import SimGridModel
    from ..workloads import layered_dag

    dag = layered_dag(sim.stream("dag"), layers=5, width=4,
                      mean_edge_bytes=2e5)
    model = SimGridModel(sim, SIMGRID_HOSTS,
                         background_peak=0.8 if params["churn"] else None,
                         background_horizon=5_000.0)
    if params["mode"] == "static":
        return {"makespan": model.run_compile_time(dag)}
    if params["mode"] == "runtime":
        return {"makespan": model.run_runtime(dag)}
    raise ConfigurationError(f"unknown mode {params['mode']!r}")


@register_scenario("t0t1", defaults={
    "uplink_gbps": 2.5, "agent": True, "horizon": 1200.0})
def t0t1_scenario(sim: Simulator, params: dict) -> dict:
    """MONARC's T0/T1 study (E5): CMS and ATLAS production replicated to
    three Tier-1s by the agent or, with ``agent`` off, by pulls."""
    from ..simulators.monarc import MonarcModel

    study = MonarcModel(sim, n_tier1=3, uplink_gbps=params["uplink_gbps"],
                        agent_enabled=params["agent"]).run_t0_t1_study(
                            horizon=params["horizon"])
    return {"produced_files": study.produced_files,
            "replicated_files": study.replicated_files,
            "final_backlog_files": study.final_backlog_files,
            "peak_backlog_files": study.peak_backlog_files,
            "mean_transfer_time": study.mean_transfer_time,
            "diverged": int(study.diverged)}
