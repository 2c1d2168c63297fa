"""E14 (extension) — simplification mechanisms (§5: the engine "can be
optimized ... by using various simplifications mechanisms"): a 24-site
data grid against its 6- and 2-super-site coarsenings."""

import functools

import pytest

from repro.core import Simulator
from repro.hosts import Disk, Grid, Site, SpaceSharedMachine, coarsen_grid
from repro.middleware import GridRunner, Job, LeastLoadedScheduler
from repro.network import FileSpec, Topology

N_SITES = 24
N_JOBS = 300


def detailed_grid(sim):
    """24 sites, one dataset stored per site (a data-grid workload)."""
    topo = Topology()
    topo.add_node("WAN")
    sites = []
    for i in range(N_SITES):
        name = f"s{i:02d}"
        topo.add_link(name, "WAN", 1e8, 0.01)
        site = Site(sim, name,
                    machines=[SpaceSharedMachine(
                        sim, pes=2, rating=400.0 + 50.0 * (i % 4),
                        name=f"{name}-m")],
                    disk=Disk(sim, 1e12, name=f"{name}-d"))
        site.store_file(FileSpec(f"dataset-{i:02d}", 2e7))
        sites.append(site)
    return Grid(sim, topo, sites)


@functools.cache
def run_model(groups):
    """(makespan, kernel events): detailed for ``groups=None``, else
    coarsened into *groups* super-sites.  Each job reads one scattered
    dataset, so the coarse model turns some WAN staging into local reads."""
    sim = Simulator(seed=5)
    if groups is None:
        grid = detailed_grid(sim)
    else:
        per = N_SITES // groups
        grid = coarsen_grid(sim, detailed_grid(Simulator()), {
            f"g{k}": [f"s{i:02d}" for i in range(k * per, (k + 1) * per)]
            for k in range(groups)})
    runner = GridRunner(sim, grid, scheduler=LeastLoadedScheduler())
    runner.submit_all([
        Job(id=i, length=2000.0, submitted=0.25 * i,
            input_files=(FileSpec(f"dataset-{(i * 7) % N_SITES:02d}", 2e7),))
        for i in range(N_JOBS)])
    sim.run()
    assert len(runner.completed) == N_JOBS
    return runner.makespan, sim.events_executed


@pytest.mark.parametrize("groups", [None, 6, 2],
                         ids=["detailed-24", "coarse-6", "coarse-2"])
def test_makespan_positive(groups):
    assert run_model(groups)[0] > 0


@pytest.mark.parametrize("groups", [6, 2])
def test_coarse_model_close_and_cheaper(groups):
    exact_ms, exact_events = run_model(None)
    ms, events = run_model(groups)
    assert abs(ms - exact_ms) / exact_ms < 0.25
    assert events <= exact_events


def test_pooling_bias_is_optimistic():
    # shared queues drain no later than split queues
    assert run_model(2)[0] <= run_model(None)[0] * 1.05
