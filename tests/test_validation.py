"""Tests for analytic queueing models and the sim-vs-theory harness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ValidationError
from repro.validation import (
    MG1,
    MM1,
    MM1K,
    JacksonNetwork,
    MMc,
    check_flow_conservation,
    check_littles_law,
    compare,
    erlang_b,
    simulate_mg1,
    simulate_mm1,
    simulate_mm1k,
    simulate_mmc,
)


class TestMM1:
    def test_textbook_example(self):
        q = MM1(lam=2.0, mu=3.0)
        assert q.rho == pytest.approx(2 / 3)
        assert q.L == pytest.approx(2.0)
        assert q.W == pytest.approx(1.0)
        assert q.Wq == pytest.approx(2 / 3)
        assert q.Lq == pytest.approx(4 / 3)

    def test_littles_law_internal(self):
        q = MM1(lam=0.7, mu=1.0)
        assert q.L == pytest.approx(q.lam * q.W)
        assert q.Lq == pytest.approx(q.lam * q.Wq)

    def test_pn_sums_to_one(self):
        q = MM1(lam=1.0, mu=2.0)
        assert sum(q.p_n(n) for n in range(200)) == pytest.approx(1.0)

    def test_wait_tail(self):
        q = MM1(lam=1.0, mu=2.0)
        assert q.p_wait_exceeds(0.0) == 1.0
        assert q.p_wait_exceeds(1.0) == pytest.approx(math.exp(-1.0))

    def test_instability_rejected(self):
        with pytest.raises(ValidationError, match="unstable"):
            MM1(lam=2.0, mu=2.0)
        with pytest.raises(ValidationError):
            MM1(lam=0.0, mu=1.0)


class TestMMc:
    def test_reduces_to_mm1_when_c1(self):
        single = MM1(lam=0.5, mu=1.0)
        multi = MMc(lam=0.5, mu=1.0, c=1)
        assert multi.erlang_c == pytest.approx(single.rho)
        assert multi.L == pytest.approx(single.L)
        assert multi.W == pytest.approx(single.W)

    def test_textbook_mm2(self):
        # λ=3, μ=2, c=2: a=1.5, ρ=0.75; ErlangC = 0.6428..., Lq = 1.9286
        q = MMc(lam=3.0, mu=2.0, c=2)
        assert q.erlang_c == pytest.approx(0.642857, rel=1e-4)
        assert q.Lq == pytest.approx(1.928571, rel=1e-4)
        assert q.L == pytest.approx(q.lam * q.W)

    def test_more_servers_less_wait(self):
        w2 = MMc(lam=3.0, mu=2.0, c=2).Wq
        w4 = MMc(lam=3.0, mu=2.0, c=4).Wq
        assert w4 < w2

    def test_instability(self):
        with pytest.raises(ValidationError):
            MMc(lam=4.0, mu=2.0, c=2)


class TestMM1K:
    def test_pn_sums_to_one(self):
        q = MM1K(lam=1.0, mu=1.5, K=5)
        assert sum(q.p_n(n) for n in range(6)) == pytest.approx(1.0)

    def test_rho_equal_one_uniform(self):
        q = MM1K(lam=1.0, mu=1.0, K=4)
        assert q.p_n(0) == pytest.approx(0.2)
        assert q.L == pytest.approx(2.0)

    def test_blocking_grows_with_load(self):
        low = MM1K(lam=0.5, mu=1.0, K=3).blocking_probability
        high = MM1K(lam=2.0, mu=1.0, K=3).blocking_probability
        assert high > low

    def test_large_K_approaches_mm1(self):
        finite = MM1K(lam=0.5, mu=1.0, K=200)
        infinite = MM1(lam=0.5, mu=1.0)
        assert finite.L == pytest.approx(infinite.L, rel=1e-6)


class TestMG1:
    def test_exponential_service_matches_mm1(self):
        mm1 = MM1(lam=0.8, mu=2.0)
        # exponential: var = mean^2
        mg1 = MG1(lam=0.8, service_mean=0.5, service_var=0.25)
        assert mg1.Lq == pytest.approx(mm1.Lq)
        assert mg1.W == pytest.approx(mm1.W)

    def test_deterministic_service_halves_queue(self):
        exp = MG1(lam=0.8, service_mean=0.5, service_var=0.25)
        det = MG1(lam=0.8, service_mean=0.5, service_var=0.0)
        assert det.Lq == pytest.approx(exp.Lq / 2)

    def test_high_variance_hurts(self):
        lo = MG1(lam=0.5, service_mean=1.0, service_var=0.1)
        hi = MG1(lam=0.5, service_mean=1.0, service_var=10.0)
        assert hi.Wq > lo.Wq

    def test_instability(self):
        with pytest.raises(ValidationError):
            MG1(lam=2.0, service_mean=0.5, service_var=0.1)


class TestErlangB:
    def test_known_value(self):
        # classic table: a=2 Erlang, c=3 -> B ~ 0.2105
        assert erlang_b(2.0, 3) == pytest.approx(0.2105, rel=1e-3)

    def test_monotone_in_servers(self):
        assert erlang_b(5.0, 10) < erlang_b(5.0, 5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            erlang_b(0.0, 2)


class TestJackson:
    def test_tandem_network(self):
        """γ -> node0 -> node1 -> out: both see the same λ."""
        net = JacksonNetwork(gamma=[1.0, 0.0], mu=[3.0, 2.0],
                             routing=[[0.0, 1.0], [0.0, 0.0]])
        assert net.lam[0] == pytest.approx(1.0)
        assert net.lam[1] == pytest.approx(1.0)
        expected = MM1(1.0, 3.0).L + MM1(1.0, 2.0).L
        assert net.L_total == pytest.approx(expected)

    def test_feedback_amplifies_rate(self):
        """Node revisits itself with p=0.5: λ_eff = γ/(1-0.5)."""
        net = JacksonNetwork(gamma=[1.0], mu=[4.0], routing=[[0.5]])
        assert net.lam[0] == pytest.approx(2.0)

    def test_network_littles_law(self):
        net = JacksonNetwork(gamma=[0.5, 0.3], mu=[2.0, 2.0],
                             routing=[[0.1, 0.4], [0.2, 0.0]])
        assert net.W_total == pytest.approx(net.L_total / 0.8)

    def test_instability_detected(self):
        with pytest.raises(ValidationError, match="unstable"):
            JacksonNetwork(gamma=[1.5], mu=[1.0], routing=[[0.0]])

    def test_bad_routing_rejected(self):
        with pytest.raises(ValidationError):
            JacksonNetwork(gamma=[1.0], mu=[2.0], routing=[[1.1]])

    def test_multi_server_nodes(self):
        net = JacksonNetwork(gamma=[3.0], mu=[2.0], routing=[[0.0]],
                             servers=[2])
        assert isinstance(net.node(0), MMc)


class TestSimulationValidation:
    """The E4 experiment in unit-test form: sim within a few % of theory."""

    def test_mm1_converges_to_theory(self):
        model = MM1(lam=1.0, mu=2.0)
        stats = simulate_mm1(1.0, 2.0, n_jobs=15_000, seed=7)
        report = compare(model, stats)
        assert report.rel_errors["W"] < 0.08
        assert report.rel_errors["utilization"] < 0.05
        assert report.rel_errors["L"] < 0.10

    def test_mmc_converges_to_theory(self):
        model = MMc(lam=3.0, mu=2.0, c=2)
        stats = simulate_mmc(3.0, 2.0, 2, n_jobs=15_000, seed=11)
        report = compare(model, stats)
        assert report.rel_errors["W"] < 0.10
        assert report.rel_errors["Wq"] < 0.15

    def test_mg1_deterministic_service(self):
        from repro.core import StreamFactory

        model = MG1(lam=0.8, service_mean=1.0, service_var=0.0)
        stats = simulate_mg1(0.8, lambda: 1.0, n_jobs=15_000, seed=3)
        report = compare(model, stats)
        assert report.rel_errors["W"] < 0.08

    def test_report_rows_shape(self):
        model = MM1(lam=1.0, mu=2.0)
        stats = simulate_mm1(1.0, 2.0, n_jobs=3_000, seed=1)
        rows = compare(model, stats).to_rows()
        assert len(rows) == 5
        assert all(len(r) == 4 for r in rows)

    def test_simulated_littles_law(self):
        stats = simulate_mm1(1.0, 2.0, n_jobs=10_000, seed=5)
        lam_hat = 1.0  # configured arrival rate
        check = check_littles_law(stats.L, lam_hat, stats.W, tolerance=0.10)
        assert check.passed, str(check)

    @pytest.mark.parametrize("K", [1, 3, 10])
    def test_mm1k_against_theory(self, K):
        """Blocking probability, L and the admitted customers' W over ten
        seeds, each within 4 standard errors of :class:`MM1K`.  K = 1 (no
        room to wait) balks every arrival that finds the server busy and
        grants every other one at once."""
        lam, mu, n, seeds = 0.9, 1.0, 4_000, range(10)
        model = MM1K(lam, mu, K)
        runs = [simulate_mm1k(lam, mu, K, n_jobs=n, warmup=n // 10, seed=s)
                for s in seeds]
        measured = {"blocking": [1 - r.completed / n for r in runs],
                    "L": [r.L for r in runs], "W": [r.W for r in runs]}
        theory = {"blocking": model.blocking_probability, "L": model.L,
                  "W": model.W}
        for name, xs in measured.items():
            mean = sum(xs) / len(xs)
            sd = math.sqrt(sum((x - mean) ** 2 for x in xs) / (len(xs) - 1))
            assert abs(mean - theory[name]) <= 4 * sd / math.sqrt(len(xs)), \
                (name, mean, theory[name], sd)


class TestCheckers:
    def test_littles_law_pass_and_fail(self):
        assert check_littles_law(2.0, 1.0, 2.0).passed
        assert not check_littles_law(5.0, 1.0, 2.0).passed

    def test_littles_law_zero_system(self):
        assert check_littles_law(0.0, 0.0, 0.0).passed

    def test_littles_law_validation(self):
        with pytest.raises(ValidationError):
            check_littles_law(1.0, 1.0, 1.0, tolerance=0.0)
        with pytest.raises(ValidationError):
            check_littles_law(-1.0, 1.0, 1.0)

    def test_flow_conservation(self):
        assert check_flow_conservation(arrived=10, departed=7, in_system=3)
        with pytest.raises(ValidationError, match="imbalance"):
            check_flow_conservation(arrived=10, departed=7, in_system=2)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=0.05, max_value=0.9),
       mu=st.floats(min_value=1.0, max_value=10.0))
def test_property_mm1_internal_consistency(lam, mu):
    q = MM1(lam, mu)
    assert q.L == pytest.approx(q.Lq + q.rho)
    assert q.W == pytest.approx(q.Wq + 1 / mu)
    assert q.L == pytest.approx(lam * q.W)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(min_value=0.1, max_value=20.0),
       c=st.integers(min_value=1, max_value=30))
def test_property_erlang_b_is_probability(a, c):
    b = erlang_b(a, c)
    assert 0.0 <= b <= 1.0


class TestJacksonCrossValidation:
    """Simulate a two-node tandem with kernel primitives and compare the
    whole network's L against the Jackson product-form solution."""

    def test_tandem_network_matches_theory(self):
        from repro.core import Process, Resource, Simulator

        lam, mu1, mu2 = 0.6, 1.2, 1.0
        net = JacksonNetwork(gamma=[lam, 0.0], mu=[mu1, mu2],
                             routing=[[0.0, 1.0], [0.0, 0.0]])

        sim = Simulator(seed=31)
        arr = sim.stream("arr")
        s1 = sim.stream("svc1")
        s2 = sim.stream("svc2")
        st1 = Resource(sim, 1, name="node1")
        st2 = Resource(sim, 1, name="node2")
        from repro.core import Monitor

        mon = Monitor("tandem")
        in_system = mon.level("L", start_time=0.0)
        n_jobs = 12_000

        def customer():
            in_system.add(sim.now, +1)
            r1 = yield st1.request()
            yield s1.exponential(1 / mu1)
            st1.release(r1)
            r2 = yield st2.request()
            yield s2.exponential(1 / mu2)
            st2.release(r2)
            in_system.add(sim.now, -1)

        def source():
            for _ in range(n_jobs):
                Process(sim, customer)
                yield arr.exponential(1 / lam)

        Process(sim, source)
        sim.run()
        measured_L = in_system.mean(sim.now)
        assert measured_L == pytest.approx(net.L_total, rel=0.10)
        # per-node utilizations match the traffic equations too
        assert st1.utilization(sim.now) == pytest.approx(lam / mu1, rel=0.05)
        assert st2.utilization(sim.now) == pytest.approx(lam / mu2, rel=0.05)


class TestBitEqualityPins:
    """Exact values recorded at the commit before process resumes left the
    event list (PR 16).  A change to the process / resource / monitor layers
    that is meant to be speed-only must keep them to the bit: same draws,
    same same-instant order, same float arithmetic.  ``==``, not approx —
    except ``W_ci_halfwidth``, which multiplies in a Student-t quantile: that
    was scipy's when the values were recorded and is
    :func:`repro.core.student_t.t_ppf` now, an ulp apart."""

    N, WARMUP, SEED = 25_000, 2_500, 2009

    @staticmethod
    def stats(s):
        return (s.completed, s.W, s.L, s.Lq, s.Wq, s.utilization,
                s.W_ci_halfwidth)

    def test_mm1(self):
        s = simulate_mm1(0.8, 1.0, n_jobs=self.N, warmup=self.WARMUP,
                         seed=self.SEED)
        assert self.stats(s) == (
            25_000, 4.737243209881713, 3.7133236186740195, 2.919794669550521,
            3.7393061040001627, 0.7935289491234773,
            pytest.approx(0.45474847459135587, rel=1e-12))

    def test_mm1_fires_two_kernel_events_per_job(self):
        from repro.obs import Observation

        # one service hold + one inter-arrival hold per job and nothing
        # else (4 * n + 1 before PR 16): a spawn or a wake that became a
        # kernel event again shows here
        obs = Observation(metrics=True)
        simulate_mm1(0.8, 1.0, n_jobs=5_000, warmup=500, seed=1, obs=obs)
        assert obs.bindings[0].sim.events_executed == 2 * 5_000

    def test_mm1_resumes_once_per_spawn_and_grant(self):
        from repro.obs import Observation

        # the source's spawn, then per job its spawn and its grant: a grant
        # already done when yielded continues in place and still counts once
        obs = Observation(metrics=True)
        simulate_mm1(0.8, 1.0, n_jobs=5_000, warmup=500, seed=1, obs=obs)
        assert obs.bindings[0].sim.resumes_executed == 10_001

    def test_mmc(self):
        s = simulate_mmc(2.4, 1.0, 3, n_jobs=self.N, warmup=self.WARMUP,
                         seed=self.SEED)
        assert self.stats(s) == (
            25_000, 1.9926667619575889, 4.699046615804635, 2.3186991626542692,
            0.9947296560760468, 0.7934491510500824,
            pytest.approx(0.16148410292784013, rel=1e-12))

    def test_mg1_deterministic_service(self):
        s = simulate_mg1(0.8, lambda: 1.0, n_jobs=self.N, warmup=self.WARMUP,
                         seed=self.SEED)
        assert self.stats(s) == (
            25_000, 2.951446855170417, 2.330152279845408, 1.5344398734547393,
            1.9514468551704083, 0.7957124063906594,
            pytest.approx(0.21479431939134602, rel=1e-12))

    def test_jackson_tandem(self):
        from repro.core import Monitor, Process, Resource, Simulator

        lam, mu1, mu2, n_jobs = 0.6, 1.2, 1.0, 12_000
        sim = Simulator(seed=31)
        arr, s1, s2 = (sim.stream(n) for n in ("arr", "svc1", "svc2"))
        st1 = Resource(sim, 1, name="node1")
        st2 = Resource(sim, 1, name="node2")
        in_system = Monitor("tandem").level("L", start_time=0.0)

        def customer():
            in_system.add(sim.now, +1)
            r1 = yield st1.request()
            yield s1.exponential(1 / mu1)
            st1.release(r1)
            r2 = yield st2.request()
            yield s2.exponential(1 / mu2)
            st2.release(r2)
            in_system.add(sim.now, -1)

        def source():
            for _ in range(n_jobs):
                Process(sim, customer)
                yield arr.exponential(1 / lam)

        Process(sim, source)
        sim.run()
        assert (in_system.mean(sim.now), st1.utilization(sim.now),
                st2.utilization(sim.now), sim.now) == (
            2.369288941205675, 0.4925575910417391, 0.5937278665442861,
            20084.197889822382)
        assert sim.events_executed == 3 * n_jobs   # two services + one gap
