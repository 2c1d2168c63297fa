"""E14 (extension) — simplification mechanisms: coarsened vs detailed models.

Paper source (§5): the engine "can be optimized ... by using various
simplifications mechanisms" — the third scale remedy next to better queues
and better entity scheduling.

Rows regenerated: detailed N-site grid vs the same system coarsened into
K super-sites, at several coarsening ratios, on the same scheduling
workload.  Shape targets: kernel-event count (and wall time) drops with
the coarsening ratio while the makespan estimate stays within a modest
error band — the accuracy/cost frontier a practitioner actually navigates.
"""

import time

import pytest

from conftest import once, print_table

from repro.core import Simulator
from repro.hosts import Disk, Grid, Site, SpaceSharedMachine, coarsen_grid
from repro.middleware import GridRunner, Job, LeastLoadedScheduler
from repro.network import FileSpec, Topology

N_SITES = 24
N_JOBS = 300


def detailed_grid(sim) -> Grid:
    """24 sites, one dataset scattered per site (data-grid workload)."""
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


def run_model(groups: int | None):
    """groups=None: detailed; groups=K: coarsened into K super-sites.

    Jobs each read one scattered dataset, so the detailed model pays WAN
    staging that the coarse model partly internalizes (intra-group data
    becomes local) — the fidelity the simplification trades away.
    """
    sim = Simulator(seed=5)
    if groups is None:
        grid = detailed_grid(sim)
    else:
        ref = detailed_grid(Simulator())
        per = N_SITES // groups
        grid = coarsen_grid(sim, ref, {
            f"g{k}": [f"s{i:02d}" for i in range(k * per, (k + 1) * per)]
            for k in range(groups)})
    runner = GridRunner(sim, grid, scheduler=LeastLoadedScheduler())
    jobs = [Job(id=i, length=2000.0, submitted=0.25 * i,
                input_files=(FileSpec(f"dataset-{(i * 7) % N_SITES:02d}", 2e7),))
            for i in range(N_JOBS)]
    runner.submit_all(jobs)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert len(runner.completed) == N_JOBS
    return runner.makespan, sim.events_executed, wall


@pytest.mark.parametrize("groups", [None, 6, 2],
                         ids=["detailed-24", "coarse-6", "coarse-2"])
def test_e14_models(benchmark, groups):
    benchmark.group = "simplification"
    makespan, _, _ = once(benchmark, run_model, groups)
    assert makespan > 0


def test_e14_shape_claims(benchmark):
    def run_all():
        return {label: run_model(g)
                for label, g in (("detailed (24 sites)", None),
                                 ("coarse (6 super-sites)", 6),
                                 ("coarse (2 super-sites)", 2))}

    results = once(benchmark, run_all)
    exact_ms, exact_events, _ = results["detailed (24 sites)"]
    print_table(
        "E14: coarsening accuracy vs cost (300 jobs, least-loaded)",
        ["model", "makespan", "error", "kernel events", "event savings"],
        [(label, f"{ms:.1f}s", f"{abs(ms - exact_ms) / exact_ms:.1%}",
          ev, f"{1 - ev / exact_events:.0%}")
         for label, (ms, ev, _) in results.items()])

    for label, (ms, ev, _) in results.items():
        if label.startswith("coarse"):
            # accuracy: within a modest band of the detailed model
            assert abs(ms - exact_ms) / exact_ms < 0.25, label
            # cost: strictly fewer kernel events than the detailed model
            assert ev <= exact_events, label
    # pooling bias is one-directional: the coarse models are optimistic
    # (shared queues drain no later than split queues)
    assert results["coarse (2 super-sites)"][0] <= exact_ms * 1.05
