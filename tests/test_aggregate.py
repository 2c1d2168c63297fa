"""Tests for model simplification (grid coarsening)."""

import pytest

from repro.core import ConfigurationError, Simulator
from repro.hosts import (
    Disk,
    Grid,
    Site,
    SpaceSharedMachine,
    coarsen_grid,
)
from repro.middleware import GridRunner, Job, LeastLoadedScheduler
from repro.network import FileSpec, Topology


def detailed_grid(sim, n_sites=4, pes=2, rating=500.0):
    topo = Topology()
    topo.add_node("WAN")
    sites = []
    for i in range(n_sites):
        name = f"s{i}"
        topo.add_link(name, "WAN", 1e8, 0.01)
        sites.append(Site(sim, name,
                          machines=[SpaceSharedMachine(sim, pes=pes,
                                                       rating=rating,
                                                       name=f"{name}-m")],
                          disk=Disk(sim, 1e12, name=f"{name}-d")))
    return Grid(sim, topo, sites)


class TestCoarsenGrid:
    def test_structure_and_capacity(self):
        sim_a = Simulator()
        grid = detailed_grid(sim_a, n_sites=4, pes=2, rating=500.0)
        sim_b = Simulator()
        coarse = coarsen_grid(sim_b, grid,
                              {"east": ["s0", "s1"], "west": ["s2", "s3"]})
        assert sorted(coarse.site_names) == ["east", "west"]
        assert coarse.site("east").total_pes == 4
        assert coarse.site("east").total_mips == pytest.approx(4 * 500.0)

    def test_disk_capacity_sums_and_files_carry(self):
        sim_a = Simulator()
        grid = detailed_grid(sim_a, n_sites=2)
        grid.site("s0").store_file(FileSpec("data", 100.0))
        sim_b = Simulator()
        coarse = coarsen_grid(sim_b, grid, {"all": ["s0", "s1"]})
        assert coarse.site("all").disk.capacity == pytest.approx(2e12)
        assert coarse.site("all").has_file("data")

    def test_bandwidth_sums(self):
        sim_a = Simulator()
        grid = detailed_grid(sim_a, n_sites=3)
        sim_b = Simulator()
        coarse = coarsen_grid(sim_b, grid, {"g": ["s0", "s1", "s2"]})
        link = coarse.topology.link("g", "AGG-WAN")
        assert link.bandwidth == pytest.approx(3e8)

    def test_duplicate_membership_rejected(self):
        sim_a = Simulator()
        grid = detailed_grid(sim_a, n_sites=2)
        with pytest.raises(ConfigurationError, match="two groups"):
            coarsen_grid(Simulator(), grid, {"a": ["s0"], "b": ["s0", "s1"]})

    def test_unknown_member_rejected(self):
        sim_a = Simulator()
        grid = detailed_grid(sim_a, n_sites=2)
        with pytest.raises(ConfigurationError):
            coarsen_grid(Simulator(), grid, {"a": ["ghost"]})

    def test_coarse_model_approximates_detailed_makespan(self):
        """The E14 claim in miniature: coarse != exact but close, cheaper."""
        def run(build):
            sim = Simulator(seed=9)
            grid = build(sim)
            runner = GridRunner(sim, grid, scheduler=LeastLoadedScheduler())
            jobs = [Job(id=i, length=1000.0, submitted=float(i)) for i in range(40)]
            runner.submit_all(jobs)
            sim.run()
            return runner.makespan, sim.events_executed

        def detailed(sim):
            return detailed_grid(sim, n_sites=8, pes=2, rating=500.0)

        def coarse(sim):
            ref_sim = Simulator()
            ref = detailed_grid(ref_sim, n_sites=8, pes=2, rating=500.0)
            return coarsen_grid(sim, ref, {
                "g0": [f"s{i}" for i in range(4)],
                "g1": [f"s{i}" for i in range(4, 8)]})

        exact_ms, exact_events = run(detailed)
        coarse_ms, coarse_events = run(coarse)
        assert coarse_ms == pytest.approx(exact_ms, rel=0.25)
