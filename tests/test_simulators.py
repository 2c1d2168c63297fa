"""Integration tests for the six rebuilt simulator models."""

import math

import pytest

from repro.core import ConfigurationError, Simulator
from repro.simulators import (
    BricksModel,
    ChicagoSimModel,
    GridSimModel,
    MonarcModel,
    OptorSimModel,
    SGTask,
    SimGridModel,
)
from repro.workloads import CMS_2005, ExperimentSpec, layered_dag


class TestBricks:
    def test_jobs_complete_and_response_recorded(self):
        sim = Simulator(seed=1)
        model = BricksModel(sim, n_clients=3, n_servers=2, job_rate=0.5,
                            background=None)
        model.run(horizon=200.0)
        assert len(model.completed) > 10
        assert model.mean_response_time > 0
        assert all(j.finished >= j.created for j in model.completed)

    def test_all_schedulers_run(self):
        for sched in ("random", "round-robin", "load-aware", "predictive"):
            sim = Simulator(seed=2)
            model = BricksModel(sim, n_clients=2, n_servers=2,
                                scheduler=sched, job_rate=0.3,
                                background=None)
            model.run(horizon=100.0)
            assert model.completed, sched

    def test_predictive_beats_random_under_load(self):
        """The Bricks design point: prediction pays when servers are noisy."""
        def mean_rt(sched):
            sim = Simulator(seed=7)
            # keep the offered load well under capacity: an unstable system
            # drowns the scheduling signal (and the event count)
            model = BricksModel(sim, n_clients=4, n_servers=3,
                                scheduler=sched, job_rate=0.25,
                                background=0.6)
            model.run(horizon=250.0)
            return model.mean_response_time

        assert mean_rt("predictive") < mean_rt("random")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            BricksModel(Simulator(), scheduler="oracle")

    def test_central_model_all_jobs_on_servers(self):
        sim = Simulator(seed=3)
        model = BricksModel(sim, n_clients=2, n_servers=2, job_rate=0.5,
                            background=None)
        model.run(horizon=100.0)
        assert all(j.server.startswith("server-") for j in model.completed)


class TestOptorSim:
    def test_jobs_complete(self):
        sim = Simulator(seed=4)
        model = OptorSimModel(sim, optimizer="lru", n_sites=3, n_files=10,
                              files_per_job=4)
        model.run(n_jobs=20)
        assert len(model.completed) == 20
        assert 0.0 <= model.remote_fraction() <= 1.0

    def test_replication_reduces_remote_reads(self):
        def remote_frac(optimizer):
            sim = Simulator(seed=5)
            model = OptorSimModel(sim, optimizer=optimizer, n_sites=3,
                                  n_files=10, files_per_job=5,
                                  access_pattern="zipf")
            model.run(n_jobs=40)
            return model.remote_fraction()

        assert remote_frac("lru") < remote_frac("none")

    def test_all_optimizers_and_patterns_run(self):
        for opt in ("none", "lru", "lfu", "economic"):
            for pat in ("sequential", "random", "unitary", "gaussian", "zipf"):
                sim = Simulator(seed=6)
                model = OptorSimModel(sim, optimizer=opt, access_pattern=pat,
                                      n_sites=2, n_files=6, files_per_job=3)
                model.run(n_jobs=6)
                assert len(model.completed) == 6, (opt, pat)

    def test_catalog_consistency_after_run(self):
        sim = Simulator(seed=7)
        model = OptorSimModel(sim, optimizer="lru", n_sites=3, n_files=8,
                              se_capacity=3e9)  # tight: forces eviction
        model.run(n_jobs=30)
        # every catalog entry is physically present
        for fname in model.catalog.files:
            for loc in model.catalog.locations(fname):
                assert model.grid.site(loc).has_file(fname)

    def test_master_copies_never_lost(self):
        sim = Simulator(seed=8)
        model = OptorSimModel(sim, optimizer="lru", n_sites=2, n_files=5,
                              se_capacity=2e9)
        model.run(n_jobs=20)
        for f in model.files:
            assert model.grid.site("CERN").has_file(f.name)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OptorSimModel(Simulator(), optimizer="magic")
        with pytest.raises(ConfigurationError):
            OptorSimModel(Simulator(), access_pattern="psychic")


    def test_failed_fetch_is_no_remote_read_and_leaves_no_replica(self):
        """CERN (the only holder) cut off: every job's first fetch aborts.
        None may count as a remote read or reach ``strategy.on_fetch``, and
        no job runs on data that never arrived."""
        from repro.faults import FaultGraph

        sim = Simulator(seed=4)
        model = OptorSimModel(sim, optimizer="lru", n_sites=3, n_files=10,
                              files_per_job=4)
        FaultGraph.from_grid(model.grid).fail("link:CERN->WAN")
        model.run(n_jobs=6)
        assert (len(model.completed), len(model.failed)) == (0, 6)
        assert model.grid.transfers.failed == 6
        assert model.grid.transfers.completed == 0
        assert all(m.completed == 0 for m in model.machines.values())
        assert not any(model._outstanding.values())
        assert model.strategy.replicas_created == 0
        assert all(model.catalog.locations(f.name) == ["CERN"]
                   for f in model.files)
        assert model.monitor.counter("remote_fetches").count == 0
        assert sum(j.remote_reads for j in model.failed) == 0


class TestSimGrid:
    def test_master_worker_agents(self):
        sim = Simulator(seed=9)
        model = SimGridModel(sim, {"h0": 1000.0, "h1": 500.0})
        results = []

        def worker(agent):
            while True:
                task = yield agent.recv()
                if task.name == "stop":
                    return
                yield agent.execute(task)
                agent.send("master", SGTask(f"done-{task.name}", data=100.0))

        def master(agent):
            for i in range(4):
                agent.send("w0", SGTask(f"t{i}", compute=1000.0, data=1e4))
            for _ in range(4):
                ack = yield agent.recv()
                results.append((sim.now, ack.name))
            agent.send("w0", SGTask("stop"))

        model.spawn("w0", "h1", worker)
        model.spawn("master", "h0", master)
        sim.run()
        assert len(results) == 4
        assert all(name.startswith("done-") for _, name in results)

    def test_compile_time_beats_runtime_on_quiet_platform(self):
        def makespans(seed):
            dag_a = layered_dag(Simulator(seed=seed).stream("dag"), 4, 4,
                                mean_edge_bytes=1e5)
            sim1 = Simulator(seed=seed)
            m1 = SimGridModel(sim1, {"h0": 1000.0, "h1": 600.0, "h2": 300.0})
            static = m1.run_compile_time(dag_a)
            dag_b = layered_dag(Simulator(seed=seed).stream("dag"), 4, 4,
                                mean_edge_bytes=1e5)
            sim2 = Simulator(seed=seed)
            m2 = SimGridModel(sim2, {"h0": 1000.0, "h1": 600.0, "h2": 300.0})
            dynamic = m2.run_runtime(dag_b)
            return static, dynamic

        static, dynamic = makespans(11)
        assert static > 0 and dynamic > 0
        # HEFT should not lose badly on a quiet platform
        assert static <= dynamic * 1.25

    def test_duplicate_agent_rejected(self):
        sim = Simulator()
        model = SimGridModel(sim, {"h0": 100.0})

        def body(agent):
            yield 1.0

        model.spawn("a", "h0", body)
        with pytest.raises(ConfigurationError):
            model.spawn("a", "h0", body)

    def test_unknown_host_rejected(self):
        sim = Simulator()
        model = SimGridModel(sim, {"h0": 100.0})
        with pytest.raises(ConfigurationError):
            model.spawn("a", "ghost", lambda agent: iter(()))

    def test_task_validation(self):
        with pytest.raises(ConfigurationError):
            SGTask("bad", compute=-1.0)


class TestGridSim:
    def test_dbc_time_vs_cost_tradeoff(self):
        sim_t = Simulator(seed=12)
        time_summary = GridSimModel(sim_t).run_dbc(
            n_gridlets=30, deadline=500.0, budget=1e6, strategy="time")
        sim_c = Simulator(seed=12)
        cost_summary = GridSimModel(sim_c).run_dbc(
            n_gridlets=30, deadline=500.0, budget=1e6, strategy="cost")
        assert time_summary["completed"] == 30
        assert cost_summary["completed"] == 30
        # the classic DBC shape: time-opt finishes earlier, cost-opt cheaper
        assert time_summary["makespan"] <= cost_summary["makespan"] + 1e-9
        assert cost_summary["spent"] <= time_summary["spent"] + 1e-9

    def test_multiple_brokers_coexist(self):
        sim = Simulator(seed=13)
        model = GridSimModel(sim)
        b1 = model.new_broker(deadline=1e6, budget=1e9, strategy="time")
        b2 = model.new_broker(deadline=1e6, budget=1e9, strategy="cost")
        b1.submit_all(model.farm(10, seed_name="u1"))
        b2.submit_all(model.farm(10, first_id=100, seed_name="u2"))
        sim.run()
        assert len(b1.completed) == 10 and len(b2.completed) == 10

    def test_tight_budget_fails_some(self):
        sim = Simulator(seed=14)
        model = GridSimModel(sim)
        summary = model.run_dbc(n_gridlets=20, deadline=1e6, budget=5000.0,
                                strategy="cost")
        assert summary["failed"] > 0
        assert summary["spent"] <= 5000.0


class TestChicagoSim:
    def test_jobs_complete_under_all_policy_combos(self):
        for jp in ("random", "least-loaded", "data-present", "local"):
            for dp in ("none", "push"):
                sim = Simulator(seed=15)
                model = ChicagoSimModel(sim, n_sites=3, n_datasets=6,
                                        job_policy=jp, data_policy=dp,
                                        n_schedulers=2)
                model.run(n_jobs=12)
                assert len(model.completed) == 12, (jp, dp)

    def test_data_present_lowers_remote_fraction(self):
        def remote(jp):
            sim = Simulator(seed=16)
            model = ChicagoSimModel(sim, n_sites=4, n_datasets=8,
                                    job_policy=jp, data_policy="none")
            model.run(n_jobs=40)
            return model.remote_fraction()

        assert remote("data-present") < remote("random")

    def test_push_creates_replicas(self):
        sim = Simulator(seed=17)
        model = ChicagoSimModel(sim, n_sites=4, n_datasets=4,
                                job_policy="random", data_policy="push",
                                push_threshold=2)
        model.run(n_jobs=40, zipf_s=1.5)
        assert model.strategy.pushes > 0

    def test_multiple_external_schedulers(self):
        sim = Simulator(seed=18)
        model = ChicagoSimModel(sim, n_schedulers=4, job_policy="local")
        assert len(model.runners) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChicagoSimModel(Simulator(), job_policy="bogus")
        with pytest.raises(ConfigurationError):
            ChicagoSimModel(Simulator(), data_policy="teleport")


class TestMonarc:
    SMALL = ExperimentSpec("MINI", rate_bytes_per_s=50e6, file_size=5e8)

    def test_agent_replicates_everything_with_ample_capacity(self):
        sim = Simulator(seed=19)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=30.0)
        result = model.run_t0_t1_study(horizon=300.0,
                                       experiments=[self.SMALL])
        assert result.produced_files > 0
        assert result.replicated_files == result.produced_files * 2
        assert result.final_backlog_files == 0
        assert not result.diverged

    def test_insufficient_uplink_diverges(self):
        """The study's headline: 2.5 Gbps can't carry full production."""
        # 2 experiments at 90 MB/s total to 3 T1s = 4.32 Gbps demand
        exps = [ExperimentSpec("A", 50e6, 5e8), ExperimentSpec("B", 40e6, 5e8)]
        sim = Simulator(seed=20)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=0.622)
        result = model.run_t0_t1_study(horizon=300.0, experiments=exps)
        assert result.peak_backlog_files > 5
        assert result.diverged

    def test_pull_mode_also_works(self):
        sim = Simulator(seed=21)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=30.0,
                            agent_enabled=False)
        result = model.run_t0_t1_study(horizon=200.0,
                                       experiments=[self.SMALL])
        assert not result.agent_enabled
        assert result.produced_files > 0
        assert result.final_backlog_files == 0

    def test_analysis_activity_runs(self):
        sim = Simulator(seed=22)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=30.0)
        model.production_activity([self.SMALL], horizon=100.0)
        model.analysis_activity("T1.0", n_jobs=5, think_time=30.0)
        sim.run()
        assert model.monitor.tally("analysis_turnaround").count == 5

    def test_backlog_series_sampled(self):
        sim = Simulator(seed=23)
        model = MonarcModel(sim, n_tier1=1, uplink_gbps=30.0)
        result = model.run_t0_t1_study(horizon=120.0,
                                       experiments=[self.SMALL],
                                       sample_period=30.0)
        assert len(result.backlog_series) >= 4
        times = [t for t, _ in result.backlog_series]
        assert times == sorted(times)

    @pytest.mark.parametrize("agent_enabled", [True, False])
    def test_full_t0_disk_archives_but_never_ships(self, agent_enabled):
        """T0's disk holds four files and a 0.1 Gbps uplink cannot drain
        them, so later production finds the disk full of last copies: those
        files go to tape only, counted unstored, and are neither announced
        to the agent nor pulled by a T1 (no data, no transfer)."""
        sim = Simulator(seed=24)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=0.1,
                            agent_enabled=agent_enabled)
        model.centres["T0"].site.disk.capacity = 4 * self.SMALL.file_size
        result = model.run_t0_t1_study(horizon=200.0,
                                       experiments=[self.SMALL])
        archived = model.tape.files
        at_t1 = [f for f in archived
                 if model.centres["T1.0"].site.has_file(f.name)]
        assert len(at_t1) == result.produced_files < len(archived)
        unstored = model.monitor.counter("files_unstored").count
        assert result.produced_files + unstored == len(archived)
        shipped = {f.name for f in model.produced}
        for f in archived:
            holders = model.catalog.locations(f.name)
            assert f.name in shipped or holders == [], (f.name, holders)
        assert result.replicated_files == 2 * result.produced_files
        assert model.grid.transfers.failed == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MonarcModel(Simulator(), n_tier1=0)
        with pytest.raises(ConfigurationError):
            MonarcModel(Simulator(), uplink_gbps=0.0)


    def test_pull_mode_failed_fetch_stays_outstanding(self):
        """T1.0's access link dies at t=15: its pulls abort, so nothing may
        be stored or registered there and its backlog keeps the files."""
        from repro.faults import FaultGraph

        sim = Simulator(seed=3)
        model = MonarcModel(sim, n_tier1=2, agent_enabled=False)
        graph = FaultGraph.from_grid(model.grid)
        sim.schedule(15.0, graph.fail, "link:T1.0->WAN")
        result = model.run_t0_t1_study(horizon=60.0, sample_period=20.0)
        n = result.produced_files
        assert n >= 2
        assert model.grid.network.aborted == model.grid.transfers.failed == n
        t1_0 = model.centres["T1.0"].site
        for f in model.produced:
            assert model.catalog.locations(f.name) == ["T0", "T1.1"]
            assert not t1_0.has_file(f.name)
        assert model._pull_backlogs == {"T1.0": n, "T1.1": 0}
        assert model.replication_backlog() == n

    def test_agent_gives_up_under_a_permanent_outage(self):
        """T1.0's uplink dies at t=60 for good: the run still ends, every
        (file, target) is either shipped or abandoned, and the abandoned
        ones are still reported as not replicated."""
        from repro.faults import FaultGraph
        from repro.middleware.replication import MAX_RESHIPS

        sim = Simulator(seed=3)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=30.0)
        graph = FaultGraph.from_grid(model.grid)
        sim.schedule(60.0, graph.fail, "link:T1.0->WAN")
        result = model.run_t0_t1_study(horizon=200.0,
                                       experiments=[self.SMALL])
        agent = model.agent
        assert agent.abandoned > 0 and agent.total_backlog == 0
        assert agent.shipped + agent.abandoned == 2 * result.produced_files
        assert agent.monitor.counter("files_abandoned").count == agent.abandoned
        assert model.grid.transfers.failed == agent.abandoned * (MAX_RESHIPS + 1)
        assert result.final_backlog_files == agent.abandoned
        assert model.replication_backlog() == agent.abandoned
        lost = [f.name for f in model.produced
                if model.catalog.locations(f.name) != ["T0", "T1.0", "T1.1"]]
        assert len(lost) == agent.abandoned
        assert all(model.catalog.locations(n) == ["T0", "T1.1"] for n in lost)


class TestOptorSimBroker:
    """The broker-policy axis added in the OptorSim evaluations."""

    def run_with(self, broker, n_jobs=30, inter_arrival=5.0):
        sim = Simulator(seed=44)
        model = OptorSimModel(sim, optimizer="lru", n_sites=4, n_files=12,
                              files_per_job=4, broker=broker)
        return model.run(n_jobs=n_jobs, inter_arrival=inter_arrival)

    def test_all_policies_complete(self):
        for broker in ("random", "queue-length", "access-cost"):
            model = self.run_with(broker)
            assert len(model.completed) == 30, broker

    def test_queue_length_balances_load(self):
        """Shortest-queue placement spreads jobs once queues actually form
        (under light load ties go to the first site — also correct)."""
        model = self.run_with("queue-length", n_jobs=40, inter_arrival=1.0)
        per_site = {}
        for j in model.completed:
            per_site[j.site] = per_site.get(j.site, 0) + 1
        assert len(per_site) == 4  # every site used
        assert max(per_site.values()) <= 2 * min(per_site.values())

    def test_access_cost_prefers_data_locality(self):
        """Once replicas exist, access-cost placement re-uses them."""
        model = self.run_with("access-cost", n_jobs=40)
        rand = self.run_with("random", n_jobs=40)
        assert model.remote_fraction() <= rand.remote_fraction() + 1e-9

    def test_access_cost_survives_an_unreachable_site(self):
        """Ranking a cut-off site costs ``inf``; it must not crash the
        broker, which then simply places every job elsewhere."""
        from repro.faults import FaultGraph

        sim = Simulator(seed=44)
        model = OptorSimModel(sim, optimizer="lru", n_sites=3, n_files=10,
                              files_per_job=4, broker="access-cost")
        FaultGraph.from_grid(model.grid).fail("link:site-0->WAN")
        model.run(n_jobs=12)
        assert len(model.completed) == 12 and not model.failed
        assert all(j.site != "site-0" for j in model.completed)

    def test_unknown_broker_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            OptorSimModel(sim, broker="psychic")


class TestMonarcTier2:
    """The tier model below T1: T2 centres reach data through their region."""

    SMALL = ExperimentSpec("MINI", rate_bytes_per_s=50e6, file_size=5e8)

    def test_t2_topology_routes_through_parent(self):
        sim = Simulator(seed=50)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=30.0,
                            n_tier2_per_t1=2)
        assert len(model.t2_names) == 4
        route = model.grid.topology.route("T2.0.1", "T0")
        assert route == ["T2.0.1", "T1.0", "WAN", "T0"]

    def test_t2_analysis_pulls_via_hierarchy(self):
        sim = Simulator(seed=51)
        model = MonarcModel(sim, n_tier1=2, uplink_gbps=30.0,
                            n_tier2_per_t1=1)
        model.production_activity([self.SMALL], horizon=120.0)
        model.analysis_activity("T2.0.0", n_jobs=4, think_time=40.0)
        sim.run()
        assert model.monitor.tally("analysis_turnaround").count == 4
        # the T2 fetched data (it produces nothing locally)
        assert model.monitor.counter("remote_fetches").count >= 1

    def test_analysis_failed_fetch_is_no_read_and_runs_no_job(self):
        """The region's uplink dies at t=60: files produced later never reach
        T1.0, so the T2's fetches for them fail — those are not remote
        reads, and no job may run on data that never arrived."""
        from repro.faults import FaultGraph

        sim = Simulator(seed=53)
        model = MonarcModel(sim, n_tier1=1, uplink_gbps=30.0,
                            n_tier2_per_t1=1, agent_enabled=False)
        tickets = []
        fetch = model.grid.transfers.fetch

        def recording_fetch(f, src, dst):
            ticket = fetch(f, src, dst)
            if dst == "T2.0.0":  # only the analysis activity fetches to a T2
                tickets.append(ticket)
            return ticket

        model.grid.transfers.fetch = recording_fetch
        graph = FaultGraph.from_grid(model.grid)
        sim.schedule(60.0, graph.fail, "link:T1.0->WAN")
        model.production_activity([self.SMALL], horizon=200.0)
        model.analysis_activity("T2.0.0", n_jobs=12, think_time=15.0)
        sim.run()
        failed = sum(t.failed for t in tickets)
        assert 1 <= failed < len(tickets)
        counter = model.monitor.counter
        assert counter("remote_fetches").count == len(tickets) - failed
        assert model.monitor.tally("analysis_turnaround").count == 12 - failed
        assert counter("analysis_failed_reads").count == failed

    def test_t2_prefers_regional_replica_over_t0(self):
        """Once the agent lands data at T1, a T2 fetches from its region."""
        sim = Simulator(seed=52)
        model = MonarcModel(sim, n_tier1=1, uplink_gbps=30.0,
                            n_tier2_per_t1=1)
        model.production_activity([self.SMALL], horizon=60.0)
        sim.run()  # production + replication complete
        f = model.produced[0]
        src = model.catalog.best_replica(f.name, "T2.0.0")
        assert src == "T1.0"  # regional copy beats crossing the WAN to T0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MonarcModel(Simulator(), n_tier2_per_t1=-1)
        with pytest.raises(ConfigurationError):
            MonarcModel(Simulator(), t2_link_gbps=0.0)


class TestBricksNetworkBackground:
    def test_cross_traffic_slows_responses(self):
        def mean_rt(noise):
            sim = Simulator(seed=61)
            model = BricksModel(sim, n_clients=3, n_servers=2,
                                scheduler="predictive", job_rate=0.2,
                                background=None, bandwidth=1e6,
                                mean_input=5e5, mean_output=2e5,
                                network_background_bytes=noise)
            model.run(horizon=200.0)
            return model.mean_response_time

        assert mean_rt(2e6) > mean_rt(None)

    def test_cross_traffic_bounded_run(self):
        sim = Simulator(seed=62)
        model = BricksModel(sim, n_clients=2, n_servers=2, job_rate=0.3,
                            background=None, network_background_bytes=1e5)
        model.run(horizon=100.0)  # must terminate
        assert model.cross_traffic is not None
        assert model.cross_traffic.flows_started > 0
