"""E9 — compile-time vs runtime scheduling (§4: "SimGrid can be used to
simulate compile time and running scheduling algorithms"): static HEFT
against runtime dispatch on layered DAGs, and the batch heuristics on a
heavy-tailed task farm."""

import functools

import pytest

from repro.campaign import run_scenario
from repro.campaign.scenarios import SIMGRID_HOSTS as HOSTS
from repro.core import Simulator
from repro.hosts import Grid, Site, SpaceSharedMachine
from repro.middleware import (GridRunner, MaxMinScheduler, MinMinScheduler,
                              SufferageScheduler, WorkQueueRunner)
from repro.network import Topology
from repro.workloads import task_farm

DAG_SEEDS = (13, 29, 47)


@functools.cache
def dag_makespan(mode, churn, seed):
    return run_scenario("simgrid", {"mode": mode, "churn": churn},
                        seed)[0]["makespan"]


@functools.cache
def farm_makespan(policy):
    sim = Simulator(seed=17)
    topo = Topology()
    topo.add_node("hub")
    for n in sorted(HOSTS):
        topo.add_link(n, "hub", 1e8, 0.002)
    sites = [Site(sim, n, machines=[SpaceSharedMachine(
        sim, pes=2, rating=HOSTS[n], name=f"{n}-m")]) for n in sorted(HOSTS)]
    grid = Grid(sim, topo, sites)
    # heavy-tailed farm: a few monsters among many small tasks
    jobs = task_farm(sim.stream("farm"), 60, mean_length=3000.0,
                     length_model="heavy")
    if policy == "workqueue":
        runner = WorkQueueRunner(sim, grid)
    else:
        batch = {"min-min": MinMinScheduler(), "max-min": MaxMinScheduler(),
                 "sufferage": SufferageScheduler()}[policy]
        runner = GridRunner(sim, grid, batch=batch)
    runner.submit_all(jobs)
    sim.run()
    assert len(runner.completed) == 60
    return runner.makespan


def runtime_over_static(churn):
    """Mean runtime makespan over mean static makespan, three DAGs."""
    def mean(mode):
        return (sum(dag_makespan(mode, churn, s) for s in DAG_SEEDS)
                / len(DAG_SEEDS))
    return mean("runtime") / mean("static")


@pytest.mark.parametrize("mode", ["static", "runtime"])
@pytest.mark.parametrize("churn", [False, True], ids=["quiet", "churn"])
def test_dag_makespan_positive(mode, churn):
    assert dag_makespan(mode, churn, 13) > 0


@pytest.mark.parametrize("policy", ["min-min", "max-min", "sufferage",
                                    "workqueue"])
def test_farm_makespan_positive(policy):
    assert farm_makespan(policy) > 0


def test_static_plan_competitive_when_quiet_and_eroded_by_churn():
    quiet = runtime_over_static(False)
    assert quiet > 0.9
    assert runtime_over_static(True) < quiet * 1.2


def test_max_min_does_not_lose_to_min_min_on_monsters():
    assert farm_makespan("max-min") <= farm_makespan("min-min") * 1.05
