"""Campaign scenario registry — named, picklable-by-name run functions.

A scenario is a function ``(params: dict, seed: int) -> (metrics, telemetry)``
where *metrics* is a plain dict of deterministic numbers (same seed + params
⇒ byte-identical values, regardless of which process ran it) and *telemetry*
is a plain dict of wall-clock-dependent observability data (events/sec,
wall seconds) that is reported but never compared.

Workers receive only the scenario *name* and look the function up in this
registry after import, so nothing callable ever crosses the process
boundary — the worker→parent protocol stays plain tuples of builtins.

A scenario declares its defaults, and its analytic model where one
exists, when it registers: the run and :func:`theory_for` read the same
filled params, so a verdict never compares against a drifted copy.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Iterator, Mapping

from ..core.errors import ConfigurationError, ValidationError
from ..core.rng import StreamFactory

__all__ = ["SCENARIOS", "register_scenario", "run_scenario", "theory_for"]

ScenarioFn = Callable[[dict, int], tuple[dict, dict]]

SCENARIOS: dict[str, ScenarioFn] = {}
#: scenario name -> ``theory(repro.validation, filled params)``
_THEORIES: dict[str, Callable[[Any, dict], Any]] = {}


def register_scenario(name: str, defaults: Mapping[str, Any] | None = None,
                      theory: Callable[[Any, dict], Any] | None = None
                      ) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator registering a scenario under *name*.

    *defaults* fill every param a run leaves out, and each declared param
    is cast to its default's type (see :func:`_filled`).  The registry
    stores, and the decorator returns, the filling function, so a direct
    call sees the defaults too (they stay readable as its ``defaults``
    attribute).  *theory* maps the filled params of a point to its
    analytic model; it receives :mod:`repro.validation` as its first
    argument, so that importing the registry does not load it.
    """
    def deco(fn: ScenarioFn) -> ScenarioFn:
        @wraps(fn)
        def run(params: dict, seed: int) -> tuple[dict, dict]:
            return fn(_filled(name, params), seed)

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


def _filled(scenario: str, params: Mapping[str, Any]) -> dict:
    """*params* over the defaults *scenario* declares, each declared param
    cast to its default's type (so ``--set c=2.0`` and ``--set rho=1``
    read as int and float); a value the cast fails on or changes
    (``K=2.5`` for an int ``K``) is a :class:`ConfigurationError`."""
    filled = dict(params)
    for name, default in _registered(scenario).defaults.items():
        value = params.get(name, default)
        try:
            filled[name] = type(default)(value)
        except (TypeError, ValueError):
            filled[name] = None
        if filled[name] != value:
            raise ConfigurationError(
                f"scenario {scenario!r}: param {name} must be "
                f"{type(default).__name__}, got {value!r}")
    return filled


def run_scenario(name: str, params: Mapping[str, Any],
                 seed: int) -> tuple[dict, dict]:
    """Execute one registered scenario; returns (metrics, telemetry)."""
    return _registered(name)(dict(params), int(seed))


def theory_for(scenario: str, params: Mapping[str, Any]):
    """The analytic model of one scenario point, or None.

    None when the scenario declares no theory, or when the point lies
    outside its model (an unstable queue, no server): such a point gets
    no verdict.  ``mm1`` and ``mmc`` give an object with L/Lq/W/Wq/rho
    properties; ``mm1k`` and ``dependability`` a mapping, since an
    M/M/1/K's utilization is its busy fraction, which the verdict must
    not alias to ``rho`` (the offered load).
    """
    if scenario not in _THEORIES:
        return None
    from .. import validation

    try:
        return _THEORIES[scenario](validation, _filled(scenario, params))
    except ValidationError:
        return None


#: Process-local observation config applied to every scenario run in this
#: process.  The campaign runner (parent for serial runs, each worker for
#: pooled ones) sets it per run; nothing here ever crosses a pipe, so the
#: entries may be live objects (a Registry, a FlightRecorder, callables).
_RUN_OBS: dict[str, Any] = {}


@contextmanager
def _run_observation(**wiring: Any) -> Iterator[None]:
    """Wire the scenario runs inside the block to observers.

    ``registry``/``recorder`` enable the metrics and flight-recorder
    facets; ``heartbeat`` drives telemetry progress lines; and
    ``beat_hook`` receives every heartbeat's snapshot dict (the campaign
    worker uses it to ship live "beat" frames to the parent).
    """
    _RUN_OBS.update(wiring)
    try:
        yield
    finally:
        _RUN_OBS.clear()


def _build_observation():
    """The Observation a scenario run should attach (honours ``_RUN_OBS``)."""
    from ..obs import Observation

    obs = Observation(trace=False, profile=False, telemetry=True,
                      heartbeat=_RUN_OBS.get("heartbeat"),
                      metrics=_RUN_OBS.get("registry") or False,
                      recorder=_RUN_OBS.get("recorder"))
    hook = _RUN_OBS.get("beat_hook")
    if hook is not None and obs.telemetry is not None:
        obs.telemetry.beat_hook = hook
    return obs


def _observed_queue_run(simulate, params: dict, seed: int,
                        **model: Any) -> tuple[dict, dict]:
    """Shared tail for the queueing scenarios: run *simulate* on *model*
    for ``params["jobs"]`` jobs, truncate the warm-up, package."""
    from .stats import mser5

    n_jobs = params["jobs"]
    warmup = params.get("warmup", max(1, n_jobs // 10))
    obs = _build_observation()
    if warmup == "mser5":
        stats = simulate(n_jobs=n_jobs, warmup=0, seed=seed, obs=obs,
                         keep_series=True, **model)
        cut = mser5(stats.W_series)
        series = stats.W_series[cut:]
        metrics = stats.to_dict()
        # Replace the fixed-warmup W with the MSER-5 truncated mean; the
        # untruncated value stays visible for the truncation-effect column.
        metrics["W_raw"] = metrics["W"]
        metrics["W"] = (sum(series) / len(series)) if series else metrics["W"]
        metrics["mser5_cut"] = int(cut)
    else:
        stats = simulate(n_jobs=n_jobs, warmup=int(warmup), seed=seed,
                         obs=obs, **model)
        metrics = stats.to_dict()
    telemetry = (obs.telemetry.snapshot(obs.sim)
                 if obs.telemetry is not None else {})
    return metrics, telemetry


def _mm1k_theory(v, p: dict) -> dict:
    m = v.MM1K(p["rho"] * p["mu"], p["mu"], p["K"])
    return {"L": m.L, "Lq": m.Lq, "W": m.W, "Wq": m.Wq,
            "blocking": m.blocking_probability, "utilization": m.utilization}


#: what every queueing scenario assumes unless told otherwise
_QUEUE = {"mu": 1.0, "jobs": 20_000}


@register_scenario(
    "mm1", defaults={**_QUEUE, "rho": 0.6},
    theory=lambda v, p: v.MM1(p["rho"] * p["mu"], p["mu"]))
def mm1_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """M/M/1 run: params rho, mu, jobs, warmup (int or 'mser5')."""
    from ..validation import simulate_mm1

    rho, mu = params["rho"], params["mu"]
    if not 0 < rho < 1:
        raise ConfigurationError(f"mm1 needs rho in (0,1), got rho={rho}")
    return _observed_queue_run(simulate_mm1, params, seed, lam=rho * mu,
                               mu=mu)


@register_scenario(
    "mmc", defaults={**_QUEUE, "rho": 0.6, "c": 2},
    theory=lambda v, p: v.MMc(p["rho"] * p["c"] * p["mu"], p["mu"], p["c"]))
def mmc_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """M/M/c run: params rho (per-server), c, mu, jobs, warmup."""
    from ..validation import simulate_mmc

    rho, c, mu = params["rho"], params["c"], params["mu"]
    if not 0 < rho < 1 or c < 1:
        raise ConfigurationError(
            f"mmc needs rho in (0,1) and c >= 1, got rho={rho}, c={c}")
    metrics, telemetry = _observed_queue_run(
        simulate_mmc, params, seed, lam=rho * c * mu, mu=mu, c=c)
    metrics["servers"] = c
    return metrics, telemetry


@register_scenario("mm1k", defaults={**_QUEUE, "rho": 0.9, "K": 3},
                   theory=_mm1k_theory)
def mm1k_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """M/M/1/K run: params rho (offered load, any > 0), K, mu, jobs, warmup.

    Adds ``blocking`` — the share of the *jobs* arrivals that found the
    station full and left unserved."""
    from ..validation import simulate_mm1k

    rho, K, mu = params["rho"], params["K"], params["mu"]
    if not rho > 0 or K < 1:
        raise ConfigurationError(
            f"mm1k needs rho > 0 and K >= 1, got rho={rho}, K={K}")
    metrics, telemetry = _observed_queue_run(
        simulate_mm1k, params, seed, lam=rho * mu, mu=mu, K=K)
    metrics["blocking"] = 1.0 - metrics["completed"] / params["jobs"]
    return metrics, telemetry


@register_scenario("provision", defaults={
    "lam": 3.0, "mu": 1.0, "servers": 4, "policy": "pooled", "jobs": 8_000})
def provision_scenario(params: dict, seed: int) -> tuple[dict, dict]:
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
    from ..validation import simulate_mm1, simulate_mmc

    lam, mu, c = params["lam"], params["mu"], params["servers"]
    if c < 1:
        raise ConfigurationError(f"servers must be >= 1, got {c}")
    if lam >= c * mu:
        # Infeasible genome (offered load exceeds capacity): return a large
        # finite penalty instead of raising, so the search can explore past
        # the feasibility boundary without killing runs.
        return ({"W": 1e9, "Wq": 1e9, "L": 1e9, "Lq": 1e9,
                 "utilization": 1.0, "servers": c, "feasible": 0}, {})
    if params["policy"] == "pooled":
        metrics, telemetry = _observed_queue_run(
            simulate_mmc, params, seed, lam=lam, mu=mu, c=c)
    elif params["policy"] == "split":
        metrics, telemetry = _observed_queue_run(
            simulate_mm1, params, seed, lam=lam / c, mu=mu)
    else:
        raise ConfigurationError(f"unknown policy {params['policy']!r}")
    metrics["servers"] = c
    metrics["feasible"] = 1
    return metrics, telemetry


@register_scenario("quadratic",
                   defaults={"x": 0.0, "target": 3.0, "noise": 0.1})
def quadratic_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """Noisy parabola — a fast synthetic objective for search smoke tests.

    ``y = (x - target)² + noise·N(0,1)``; the optimum is known, so tests
    can assert the evolutionary loop actually converges.
    """
    x = params["x"]
    stream = StreamFactory(seed).stream("quadratic")
    y = ((x - params["target"]) ** 2
         + params["noise"] * stream.normal(0.0, 1.0))
    return ({"y": float(y), "x": x}, {})


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
def dependability_scenario(params: dict, seed: int) -> tuple[dict, dict]:
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

    from ..core.engine import Simulator
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

    sim = Simulator(seed=seed)
    obs = _build_observation()
    obs.attach(sim, track="dependability")

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
    if math.isnan(mttr_mean):
        mttr_mean = 0.0
    metrics = {
        "availability": injector.availability,
        "availability_min": min(graph.availability(t) for t in targets),
        "crashes": injector.crashes,
        "mttr_mean": mttr_mean,
        "jobs_completed": sum(m.completed for m in machines),
        "jobs_evicted": sum(m.evictions for m in machines),
        "transfers_completed": grid.transfers.completed,
        "transfer_retries": grid.transfers.retries,
        "transfers_failed": grid.transfers.failed,
        "flow_aborts": grid.network.aborted,
    }
    telemetry = (obs.telemetry.snapshot(sim)
                 if obs.telemetry is not None else {})
    return metrics, telemetry
