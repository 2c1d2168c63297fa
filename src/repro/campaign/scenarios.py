"""Campaign scenario registry — named, picklable-by-name run functions.

A scenario is a function ``(params: dict, seed: int) -> (metrics, telemetry)``
where *metrics* is a plain dict of deterministic numbers (same seed + params
⇒ byte-identical values, regardless of which process ran it) and *telemetry*
is a plain dict of wall-clock-dependent observability data (events/sec,
wall seconds) that is reported but never compared.

Workers receive only the scenario *name* and look the function up in this
registry after import, so nothing callable ever crosses the process
boundary — the worker→parent protocol stays plain tuples of builtins.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..core.errors import ConfigurationError
from ..core.rng import StreamFactory

__all__ = ["SCENARIOS", "register_scenario", "run_scenario", "theory_for",
           "configure_run_observation", "clear_run_observation"]

ScenarioFn = Callable[[dict, int], tuple[dict, dict]]

SCENARIOS: dict[str, ScenarioFn] = {}


def register_scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator registering a scenario under *name*."""
    def deco(fn: ScenarioFn) -> ScenarioFn:
        SCENARIOS[name] = fn
        return fn
    return deco


def run_scenario(name: str, params: Mapping[str, Any],
                 seed: int) -> tuple[dict, dict]:
    """Execute one registered scenario; returns (metrics, telemetry)."""
    fn = SCENARIOS.get(name)
    if fn is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}")
    return fn(dict(params), int(seed))


#: Process-local observation config applied to every scenario run in this
#: process.  The campaign runner (parent for serial runs, each worker for
#: pooled ones) sets it per run; nothing here ever crosses a pipe, so the
#: entries may be live objects (a Registry, a FlightRecorder, callables).
_RUN_OBS: dict[str, Any] = {}


def configure_run_observation(heartbeat: float | None = None,
                              beat_hook=None, registry=None,
                              recorder=None) -> None:
    """Install the observation wiring scenario runs should attach.

    ``registry``/``recorder`` enable the metrics and flight-recorder
    facets; ``heartbeat`` drives telemetry progress lines; and
    ``beat_hook`` receives every heartbeat's snapshot dict (the campaign
    worker uses it to ship live "beat" frames to the parent).
    """
    _RUN_OBS.clear()
    _RUN_OBS.update(heartbeat=heartbeat, beat_hook=beat_hook,
                    registry=registry, recorder=recorder)


def clear_run_observation() -> None:
    """Drop the per-run observation wiring (runs go back to bare telemetry)."""
    _RUN_OBS.clear()


def _build_observation():
    """The Observation a scenario run should attach (honours ``_RUN_OBS``)."""
    from ..obs import Observation

    cfg = _RUN_OBS
    obs = Observation(trace=False, profile=False, telemetry=True,
                      heartbeat=cfg.get("heartbeat"),
                      metrics=cfg.get("registry") or False,
                      recorder=cfg.get("recorder"))
    hook = cfg.get("beat_hook")
    if hook is not None and obs.telemetry is not None:
        obs.telemetry.beat_hook = hook
    return obs


def _observed_queue_run(simulate, kwargs: dict, warmup: Any,
                        n_jobs: int) -> tuple[dict, dict]:
    """Shared tail for the queueing scenarios: run, truncate, package."""
    from .stats import mser5

    obs = _build_observation()
    if warmup == "mser5":
        stats = simulate(n_jobs=n_jobs, warmup=0, seed=kwargs.pop("seed"),
                         obs=obs, keep_series=True, **kwargs)
        cut = mser5(stats.W_series)
        series = stats.W_series[cut:]
        metrics = stats.to_dict()
        # Replace the fixed-warmup W with the MSER-5 truncated mean; the
        # untruncated value stays visible for the truncation-effect column.
        metrics["W_raw"] = metrics["W"]
        metrics["W"] = (sum(series) / len(series)) if series else metrics["W"]
        metrics["mser5_cut"] = int(cut)
    else:
        stats = simulate(n_jobs=n_jobs, warmup=int(warmup),
                         seed=kwargs.pop("seed"), obs=obs, **kwargs)
        metrics = stats.to_dict()
    sim = obs.bindings[0].sim if obs.bindings else None
    telemetry = obs.telemetry.snapshot(sim) if obs.telemetry is not None else {}
    return metrics, telemetry


@register_scenario("mm1")
def mm1_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """M/M/1 run: params rho (required), mu, jobs, warmup (int or 'mser5')."""
    from ..validation import simulate_mm1

    rho = float(params.get("rho", 0.6))
    mu = float(params.get("mu", 1.0))
    if not 0 < rho < 1:
        raise ConfigurationError(f"mm1 rho must be in (0,1), got {rho}")
    jobs = int(params.get("jobs", 20_000))
    warmup = params.get("warmup", max(1, jobs // 10))
    return _observed_queue_run(
        simulate_mm1, {"lam": rho * mu, "mu": mu, "seed": seed},
        warmup, jobs)


@register_scenario("mmc")
def mmc_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """M/M/c run: params rho (per-server), c, mu, jobs, warmup."""
    from ..validation import simulate_mmc

    rho = float(params.get("rho", 0.6))
    c = int(params.get("c", 2))
    mu = float(params.get("mu", 1.0))
    if not 0 < rho < 1 or c < 1:
        raise ConfigurationError(f"mmc needs rho in (0,1) and c >= 1")
    jobs = int(params.get("jobs", 20_000))
    warmup = params.get("warmup", max(1, jobs // 10))
    metrics, telemetry = _observed_queue_run(
        simulate_mmc, {"lam": rho * c * mu, "mu": mu, "c": c, "seed": seed},
        warmup, jobs)
    metrics["servers"] = c
    return metrics, telemetry


@register_scenario("mm1k")
def mm1k_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """M/M/1/K run: params rho (offered load, any > 0), K, mu, jobs, warmup.

    Adds ``blocking`` — the share of the *jobs* arrivals that found the
    station full and left unserved."""
    from ..validation import simulate_mm1k

    rho = float(params.get("rho", 0.9))
    K = int(params.get("K", 3))
    mu = float(params.get("mu", 1.0))
    if not rho > 0 or K < 1:
        raise ConfigurationError(
            f"mm1k needs rho > 0 and K >= 1, got rho={rho}, K={K}")
    jobs = int(params.get("jobs", 20_000))
    warmup = params.get("warmup", max(1, jobs // 10))
    metrics, telemetry = _observed_queue_run(
        simulate_mm1k, {"lam": rho * mu, "mu": mu, "K": K, "seed": seed},
        warmup, jobs)
    metrics["blocking"] = 1.0 - metrics["completed"] / jobs
    return metrics, telemetry


@register_scenario("provision")
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

    lam = float(params.get("lam", 3.0))
    mu = float(params.get("mu", 1.0))
    c = int(params.get("servers", 4))
    policy = str(params.get("policy", "pooled"))
    jobs = int(params.get("jobs", 8_000))
    warmup = params.get("warmup", max(1, jobs // 10))
    if c < 1:
        raise ConfigurationError(f"servers must be >= 1, got {c}")
    if lam >= c * mu:
        # Infeasible genome (offered load exceeds capacity): return a large
        # finite penalty instead of raising, so the search can explore past
        # the feasibility boundary without killing runs.
        return ({"W": 1e9, "Wq": 1e9, "L": 1e9, "Lq": 1e9,
                 "utilization": 1.0, "servers": c, "feasible": 0}, {})
    if policy == "pooled":
        metrics, telemetry = _observed_queue_run(
            simulate_mmc, {"lam": lam, "mu": mu, "c": c, "seed": seed},
            warmup, jobs)
    elif policy == "split":
        metrics, telemetry = _observed_queue_run(
            simulate_mm1, {"lam": lam / c, "mu": mu, "seed": seed},
            warmup, jobs)
    else:
        raise ConfigurationError(f"unknown policy {policy!r}")
    metrics["servers"] = c
    metrics["feasible"] = 1
    return metrics, telemetry


@register_scenario("quadratic")
def quadratic_scenario(params: dict, seed: int) -> tuple[dict, dict]:
    """Noisy parabola — a fast synthetic objective for search smoke tests.

    ``y = (x - target)² + noise·N(0,1)``; the optimum is known, so tests
    can assert the evolutionary loop actually converges.
    """
    x = float(params.get("x", 0.0))
    target = float(params.get("target", 3.0))
    noise = float(params.get("noise", 0.1))
    stream = StreamFactory(seed).stream("quadratic")
    y = (x - target) ** 2 + noise * stream.normal(0.0, 1.0)
    return ({"y": float(y), "x": x}, {})


@register_scenario("dependability")
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

    n_sites = int(params.get("sites", 4))
    mtbf = float(params.get("mtbf", 50.0))
    mttr = float(params.get("mttr", 10.0))
    horizon = float(params.get("horizon", 2000.0))
    job_length = float(params.get("job_length", 500.0))
    rating = float(params.get("rating", 100.0))
    file_bytes = float(params.get("file_bytes", 2e6))
    bandwidth = float(params.get("bandwidth", 1e6))
    fetch_gap = float(params.get("fetch_gap", 5.0))
    attempts = int(params.get("attempts", 8))
    if n_sites < 1:
        raise ConfigurationError(f"sites must be >= 1, got {n_sites}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")

    sim = Simulator(seed=seed)
    obs = _build_observation()
    obs.attach(sim, track="dependability")

    leaves = [f"site{i}" for i in range(n_sites)]
    topo = star("hub", leaves, bandwidth, latency=0.01)
    sites = [Site(sim, "hub")]
    for name in leaves:
        sites.append(Site(sim, name, machines=[
            SpaceSharedMachine(sim, pes=1, rating=rating,
                               name=f"{name}-cpu",
                               restart_policy="checkpoint")]))
    grid = Grid(sim, topo, sites, transfer_attempts=attempts,
                transfer_backoff=1.0)
    graph = FaultGraph.from_grid(grid)
    targets = [f"site:{n}" for n in leaves]
    injector = CorrelatedFaultInjector(
        sim, graph, sim.streams.spawn("faults"), targets=targets,
        mtbf=mtbf, mttr=mttr, horizon=horizon)

    machines = [grid.site(n).machines[0] for n in leaves]

    def submit_chain(machine) -> None:
        run = machine.submit(job_length)
        run._subscribe(lambda _r, m=machine: submit_chain(m))

    def fetch_chain(leaf: str, k: int) -> None:
        ticket = grid.transfers.fetch(
            FileSpec(f"{leaf}-f{k}", file_bytes), "hub", leaf)
        ticket._subscribe(
            lambda _t, l=leaf, nk=k + 1: sim.schedule(
                fetch_gap, fetch_chain, l, nk, label="fetch_chain"))

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


def theory_for(scenario: str, params: Mapping[str, Any]):
    """The analytic model matching a queueing scenario point (or None).

    Returns an object with L/Lq/W/Wq/rho properties for ``mm1`` and
    ``mmc`` points — what the CI-contains-theory verdict compares against.
    ``mm1k`` and ``dependability`` get a mapping: an M/M/1/K's utilization
    is its busy fraction, which the verdict must not alias to ``rho`` (the
    offered load).
    """
    from ..validation import MM1, MM1K, MMc

    p = dict(params)
    mu = float(p.get("mu", 1.0))
    if scenario == "mm1":
        rho = float(p.get("rho", 0.6))
        return MM1(rho * mu, mu)
    if scenario == "mmc":
        c = int(p.get("c", 2))
        rho = float(p.get("rho", 0.6))
        return MMc(rho * c * mu, mu, c)
    if scenario == "mm1k":
        rho = float(p.get("rho", 0.9))
        m = MM1K(rho * mu, mu, int(p.get("K", 3)))
        return {"L": m.L, "Lq": m.Lq, "W": m.W, "Wq": m.Wq,
                "blocking": m.blocking_probability,
                "utilization": m.utilization}
    if scenario == "dependability":
        # Exponential UP/DOWN renewal: steady-state availability.  The
        # time-average bias over a finite horizon is O(tau/horizon) with
        # tau = mtbf*mttr/(mtbf+mttr) — negligible against the CI width.
        mtbf = float(p.get("mtbf", 50.0))
        mttr = float(p.get("mttr", 10.0))
        return {"availability": mtbf / (mtbf + mttr)}
    return None
