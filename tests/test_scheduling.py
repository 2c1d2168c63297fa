"""Tests for scheduler policies and execution harnesses."""

import math

import pytest

from repro.core import ConfigurationError, Simulator
from repro.hosts import Disk, Grid, Site, SpaceSharedMachine
from repro.middleware import (
    Dag,
    DagRunner,
    DataPresentScheduler,
    FastestSiteScheduler,
    GridRunner,
    HeftScheduler,
    Job,
    JobState,
    LeastLoadedScheduler,
    LocalScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    PredictiveScheduler,
    RandomScheduler,
    ReplicaCatalog,
    RoundRobinScheduler,
    SchedulingContext,
    SufferageScheduler,
    WorkQueueRunner,
)
from repro.network import FileSpec, Topology


def hetero_grid(sim, ratings=(100.0, 500.0), pes=(2, 2), bw=1e6):
    topo = Topology()
    names = [f"S{i}" for i in range(len(ratings))]
    for n in names:
        topo.add_node(n)
    for a in names:
        for b in names:
            if a < b:
                topo.add_link(a, b, bw, 0.001)
    sites = [Site(sim, n,
                  machines=[SpaceSharedMachine(sim, pes=p, rating=r, name=f"{n}-m")],
                  disk=Disk(sim, 1e9))
             for n, r, p in zip(names, ratings, pes)]
    return Grid(sim, topo, sites)


def jobs(lengths, **kw):
    return [Job(id=i, length=l, **kw) for i, l in enumerate(lengths)]


class TestOnlinePolicies:
    def test_round_robin_cycles(self):
        sim = Simulator()
        ctx = SchedulingContext(hetero_grid(sim))
        rr = RoundRobinScheduler()
        picks = [rr.select_site(Job(id=i, length=1.0), ctx) for i in range(4)]
        assert picks == ["S0", "S1", "S0", "S1"]

    def test_random_uses_stream(self):
        sim = Simulator(seed=1)
        ctx = SchedulingContext(hetero_grid(sim))
        rs = RandomScheduler(sim.stream("sched"))
        picks = {rs.select_site(Job(id=i, length=1.0), ctx) for i in range(30)}
        assert picks == {"S0", "S1"}

    def test_least_loaded_avoids_busy_site(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        ctx = SchedulingContext(grid)
        for _ in range(4):
            grid.site("S0").submit(1000.0)
        assert LeastLoadedScheduler().select_site(Job(id=1, length=1.0), ctx) == "S1"

    def test_fastest_picks_highest_mips(self):
        sim = Simulator()
        ctx = SchedulingContext(hetero_grid(sim))
        assert FastestSiteScheduler().select_site(Job(id=1, length=1.0), ctx) == "S1"

    def test_predictive_accounts_for_queue_and_speed(self):
        sim = Simulator()
        grid = hetero_grid(sim, ratings=(100.0, 500.0))
        ctx = SchedulingContext(grid)
        # S1 fast but swamped
        for _ in range(20):
            grid.site("S1").submit(10_000.0)
        pick = PredictiveScheduler().select_site(Job(id=1, length=100.0), ctx)
        assert pick == "S0"

    def test_data_present_prefers_input_holder(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        ctx = SchedulingContext(grid)
        f = FileSpec("big", 1000.0)
        grid.site("S0").store_file(f)
        j = Job(id=1, length=1.0, input_files=(f,))
        assert DataPresentScheduler().select_site(j, ctx) == "S0"

    def test_data_present_falls_back_to_load(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        ctx = SchedulingContext(grid)
        for _ in range(4):
            grid.site("S0").submit(1000.0)
        j = Job(id=1, length=1.0)  # no inputs: all sites tie at 0 bytes
        assert DataPresentScheduler().select_site(j, ctx) == "S1"

    def test_local_fixed_home(self):
        sim = Simulator()
        ctx = SchedulingContext(hetero_grid(sim))
        assert LocalScheduler("S1").select_site(Job(id=1, length=1.0), ctx) == "S1"


class TestBatchHeuristics:
    def test_minmin_prefers_fast_site(self):
        sim = Simulator()
        ctx = SchedulingContext(hetero_grid(sim, ratings=(100.0, 1000.0)))
        plan = MinMinScheduler().plan(jobs([100.0] * 4), ctx)
        # the fast site should get most of the work
        assert sum(1 for s in plan.values() if s == "S1") >= 3

    def test_maxmin_schedules_long_jobs_first_on_fast(self):
        sim = Simulator()
        ctx = SchedulingContext(hetero_grid(sim, ratings=(100.0, 1000.0)))
        batch = jobs([10.0, 10.0, 10_000.0])
        plan = MaxMinScheduler().plan(batch, ctx)
        assert plan[2] == "S1"  # the monster lands on the fast site

    def test_sufferage_balances(self):
        sim = Simulator()
        ctx = SchedulingContext(hetero_grid(sim, ratings=(100.0, 120.0)))
        plan = SufferageScheduler().plan(jobs([100.0] * 6), ctx)
        assert set(plan.values()) == {"S0", "S1"}  # near-homogeneous: spread

    def test_all_batch_plans_cover_all_jobs(self):
        sim = Simulator()
        ctx = SchedulingContext(hetero_grid(sim))
        batch = jobs([50.0, 100.0, 200.0, 400.0])
        for sched in (MinMinScheduler(), MaxMinScheduler(), SufferageScheduler()):
            plan = sched.plan(batch, ctx)
            assert sorted(plan) == [0, 1, 2, 3]
            assert all(s in ("S0", "S1") for s in plan.values())


class TestGridRunner:
    def test_requires_exactly_one_policy(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        with pytest.raises(ConfigurationError):
            GridRunner(sim, grid)
        with pytest.raises(ConfigurationError):
            GridRunner(sim, grid, scheduler=RoundRobinScheduler(),
                       batch=MinMinScheduler())

    def test_runs_jobs_to_completion(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        runner = GridRunner(sim, grid, scheduler=RoundRobinScheduler())
        batch = jobs([100.0, 100.0, 100.0])
        runner.submit_all(batch)
        sim.run()
        assert len(runner.completed) == 3
        assert all(j.state is JobState.DONE for j in batch)
        assert runner.makespan > 0

    def test_staging_fetches_remote_inputs(self):
        sim = Simulator()
        grid = hetero_grid(sim, bw=1000.0)
        f = FileSpec("data", 5000.0)
        grid.site("S0").store_file(f)
        cat = ReplicaCatalog(grid)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("S1"), catalog=cat)
        j = Job(id=1, length=100.0, input_files=(f,))
        runner.submit_all([j])
        sim.run()
        assert j.state is JobState.DONE
        # staged over the 1000 B/s link: >= 5 seconds before compute
        assert j.started >= 5.0 * 0.92 - 1e-6
        assert runner.monitor.counter("remote_fetches").count == 1

    def test_local_input_no_fetch(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        f = FileSpec("data", 5000.0)
        grid.site("S0").store_file(f)
        cat = ReplicaCatalog(grid)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("S0"), catalog=cat)
        runner.submit_all([Job(id=1, length=100.0, input_files=(f,))])
        sim.run()
        assert runner.monitor.counter("remote_fetches").count == 0
        assert runner.remote_fraction() == 0.0

    def test_output_stored_and_registered(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        cat = ReplicaCatalog(grid)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("S0"), catalog=cat)
        runner.submit_all([Job(id=7, length=10.0, output_size=123.0)])
        sim.run()
        assert grid.site("S0").has_file("out-7")
        assert cat.locations("out-7") == ["S0"]

    @pytest.mark.parametrize("also_at_s1", [True, False],
                             ids=["phantom-record", "last-copy"])
    def test_output_goes_through_the_landing_rule(self, also_at_s1):
        """S0's 100-byte disk holds 80-byte ``data``; a job there writes a
        50-byte output.  With a second copy at S1 ``data`` is evicted and
        the catalog says so; as the last copy it stays and the output is
        simply not stored."""
        sim = Simulator()
        grid = hetero_grid(sim)
        grid.site("S0").disk.capacity = 100.0
        data = FileSpec("data", 80.0)
        grid.site("S0").store_file(data)
        if also_at_s1:
            grid.site("S1").store_file(data)
        cat = ReplicaCatalog(grid)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("S0"), catalog=cat)
        runner.submit_all([Job(id=1, length=10.0, output_size=50.0)])
        sim.run()
        assert len(runner.completed) == 1
        if also_at_s1:
            assert cat.locations("data") == ["S1"]
            assert cat.locations("out-1") == ["S0"]
        else:
            assert cat.locations("data") == ["S0"]
            assert cat.locations("out-1") == []
        for name in cat.files:
            assert [s.name for s in grid.sites_with_file(name)] \
                == cat.locations(name)

    def test_batch_plan_execution(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        runner = GridRunner(sim, grid, batch=MinMinScheduler())
        batch = jobs([100.0] * 6)
        runner.submit_all(batch)
        sim.run()
        assert len(runner.completed) == 6

    def test_staggered_submissions(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        runner = GridRunner(sim, grid, scheduler=LeastLoadedScheduler())
        batch = jobs([100.0, 100.0])
        batch[1].submitted = 50.0
        runner.submit_all(batch)
        sim.run()
        assert batch[1].started >= 50.0


class TestWorkQueue:
    def test_pull_mode_drains_queue(self):
        sim = Simulator()
        grid = hetero_grid(sim, ratings=(100.0, 100.0), pes=(1, 1))
        runner = WorkQueueRunner(sim, grid)
        batch = jobs([100.0] * 6)
        runner.submit_all(batch)
        sim.run()
        assert len(runner.completed) == 6
        # 6 equal jobs over 2 single-PE equal sites: 3 rounds of 1s
        assert runner.makespan == pytest.approx(3.0)

    def test_fast_site_pulls_more_jobs(self):
        sim = Simulator()
        grid = hetero_grid(sim, ratings=(100.0, 400.0), pes=(1, 1))
        runner = WorkQueueRunner(sim, grid)
        runner.submit_all(jobs([100.0] * 10))
        sim.run()
        fast = runner.monitor.counter("jobs@S1").count
        slow = runner.monitor.counter("jobs@S0").count
        assert fast > slow


class TestNoDataNoJob:
    """A consumer whose input or edge fetch ends ``failed`` never runs."""

    def cut_grid(self):
        sim = Simulator()
        grid = hetero_grid(sim, pes=(1, 1))
        grid.topology.fail_link("S0", "S1")
        return sim, grid

    def never_ran(self, grid, runner, job):
        assert job.state is JobState.FAILED and job.started is None
        assert runner.failed == [job] and job not in runner.completed
        assert runner.monitor.counter("remote_fetches").count == 0
        assert grid.transfers.failed == 1

    def test_grid_runner_fails_the_job(self):
        sim, grid = self.cut_grid()
        f = FileSpec("data", 5000.0)
        grid.site("S0").store_file(f)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("S1"))
        job = Job(id=1, length=100.0, input_files=(f,))
        runner.submit_all([job])
        sim.run()
        self.never_ran(grid, runner, job)
        assert not grid.site("S1").has_file("data")
        assert grid.site("S1").machines[0].completed == 0

    def test_work_queue_gets_its_slot_back(self):
        sim, grid = self.cut_grid()
        f = FileSpec("data", 5000.0)
        grid.site("S0").store_file(f)
        runner = WorkQueueRunner(sim, grid)
        # S1 is the faster site, so it pulls the first job — and cannot
        # reach the data; the slot it held must serve the jobs behind it
        starved = Job(id=0, length=100.0, input_files=(f,))
        rest = jobs([100.0] * 4)
        for j in rest:
            j.id += 1
        runner.submit_all([starved] + rest)
        sim.run()
        self.never_ran(grid, runner, starved)
        assert len(runner.completed) == 4
        assert runner._free == {"S0": 1, "S1": 1}
        assert runner.monitor.counter("jobs@S1").count > 0

    @pytest.mark.parametrize("mode", ["runtime", "plan"])
    def test_dag_child_of_a_lost_edge_and_its_descendants(self, mode):
        sim, grid = self.cut_grid()
        dag = Dag()
        for i in range(4):
            dag.add_job(Job(id=i, length=100.0))
        dag.add_edge(0, 1, data=1000.0)   # S0 -> S1: the cut link
        dag.add_edge(1, 2, data=1000.0)
        dag.add_edge(0, 3, data=1000.0)   # S0 -> S0: unaffected
        plan = {0: "S0", 1: "S1", 2: "S0", 3: "S0"}
        if mode == "plan":
            runner = DagRunner(sim, grid, dag, plan=plan)
        else:
            class Fixed(LocalScheduler):
                def select_site(self, job, ctx):
                    return plan[job.id]
            runner = DagRunner(sim, grid, dag, scheduler=Fixed("S0"))
        runner.start()
        sim.run()
        self.never_ran(grid, runner, dag.job(1))
        assert sorted(j.id for j in runner.completed) == [0, 3]
        assert dag.job(2).state is JobState.CREATED  # never released
        assert math.isnan(runner.makespan)


class TestDagRunner:
    def chain_dag(self, lengths=(100.0, 100.0, 100.0), data=1000.0):
        d = Dag()
        for i, l in enumerate(lengths):
            d.add_job(Job(id=i, length=l))
        for i in range(len(lengths) - 1):
            d.add_edge(i, i + 1, data=data)
        return d

    def test_respects_precedence(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        dag = self.chain_dag()
        runner = DagRunner(sim, grid, dag, scheduler=FastestSiteScheduler())
        runner.start()
        sim.run()
        assert len(runner.completed) == 3
        j0, j1, j2 = (dag.job(i) for i in range(3))
        assert j0.finished <= j1.started and j1.finished <= j2.started

    def test_heft_plan_executes(self):
        sim = Simulator()
        grid = hetero_grid(sim, ratings=(100.0, 500.0))
        dag = self.chain_dag()
        ctx = SchedulingContext(grid)
        plan = HeftScheduler().plan(dag, ctx)
        assert sorted(plan) == [0, 1, 2]
        runner = DagRunner(sim, grid, dag, plan=plan)
        runner.start()
        sim.run()
        assert len(runner.completed) == 3
        assert runner.makespan > 0

    def test_heft_keeps_chain_on_one_site_when_comm_dominates(self):
        sim = Simulator()
        grid = hetero_grid(sim, ratings=(400.0, 500.0), bw=10.0)  # tiny bw
        dag = self.chain_dag(data=1e6)
        plan = HeftScheduler().plan(dag, SchedulingContext(grid))
        assert len(set(plan.values())) == 1  # all on one site: no transfers

    def test_cross_site_edge_ships_data(self):
        sim = Simulator()
        grid = hetero_grid(sim, bw=1000.0)
        dag = self.chain_dag(lengths=(100.0, 100.0), data=5000.0)
        plan = {0: "S0", 1: "S1"}  # force a transfer
        runner = DagRunner(sim, grid, dag, plan=plan)
        runner.start()
        sim.run()
        j1 = dag.job(1)
        # edge 5000B over ~920B/s effective: > 5s gap
        assert j1.started - dag.job(0).finished >= 5.0
        assert len(runner.completed) == 2

    def test_parallel_branches_overlap(self):
        sim = Simulator()
        grid = hetero_grid(sim, ratings=(100.0, 100.0))
        d = Dag()
        for i in range(4):
            d.add_job(Job(id=i, length=100.0))
        d.add_edge(0, 1)
        d.add_edge(0, 2)
        d.add_edge(1, 3)
        d.add_edge(2, 3)
        runner = DagRunner(sim, grid, d, scheduler=LeastLoadedScheduler())
        runner.start()
        sim.run()
        j1, j2 = d.job(1), d.job(2)
        # the two middle tasks ran concurrently on different sites
        assert j1.started < j2.finished and j2.started < j1.finished

    def test_start_twice_rejected(self):
        sim = Simulator()
        grid = hetero_grid(sim)
        runner = DagRunner(sim, grid, self.chain_dag(),
                           scheduler=FastestSiteScheduler())
        runner.start()
        with pytest.raises(ConfigurationError):
            runner.start()
