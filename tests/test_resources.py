"""Tests for the Resource station and the Store primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConfigurationError,
    Process,
    Resource,
    ResourceError,
    Simulator,
    Store,
)


def run_station(arrivals, capacity=1):
    """Run jobs (arrival, duration) through a FIFO station.

    Returns list of (job_index, start_time, end_time).
    """
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    log = []

    def job(i, dur):
        req = yield res.request(owner=i)
        start = sim.now
        yield dur
        res.release(req)
        log.append((i, start, sim.now))

    for i, (at, dur) in enumerate(arrivals):
        sim.schedule_at(at, Process, sim, job, i, dur)
    sim.run()
    return sorted(log, key=lambda r: (r[1], r[0]))


class TestResourceBasics:
    def test_immediate_grant_when_free(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        granted = []

        def body():
            req = yield res.request()
            granted.append(sim.now)
            yield 1.0
            res.release(req)

        Process(sim, body)
        sim.run()
        assert granted == [0.0]
        assert res.available == 2

    def test_fifo_service_order(self):
        log = run_station([(0.0, 10.0), (1.0, 1.0), (2.0, 1.0)])
        # arrivals are served strictly in arrival order
        assert [r[0] for r in log] == [0, 1, 2]
        assert log[1][1] == 10.0 and log[2][1] == 11.0

    def test_multi_server_parallelism(self):
        log = run_station([(0.0, 5.0), (0.0, 5.0), (0.0, 5.0)], capacity=2)
        ends = sorted(r[2] for r in log)
        assert ends == [5.0, 5.0, 10.0]

    def test_utilization_statistic(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def body():
            req = yield res.request()
            yield 5.0
            res.release(req)

        Process(sim, body)
        sim.run(until=10.0)
        assert res.utilization(10.0) == pytest.approx(0.5)

    def test_wait_time_tally(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def body(expected_wait):
            req = yield res.request()
            assert req.waited == pytest.approx(expected_wait)
            yield 4.0
            res.release(req)

        Process(sim, body, 0.0)
        Process(sim, body, 4.0)
        sim.run()
        assert res.monitor.tally("wait_time").mean == pytest.approx(2.0)


def test_request_ids_do_not_depend_on_earlier_models():
    """Request ids (named in every release error) count per Resource, not
    per interpreter: the same model built twice in one process gives the
    same ids."""
    def build():
        sim = Simulator()
        cpu, disk = Resource(sim, name="cpu"), Resource(sim, name="disk")
        reqs = [cpu.request(), cpu.request(), disk.request()]
        return [r.id for r in reqs]

    first = build()
    assert first == [1, 2, 1]
    assert build() == first


class TestResourceErrors:
    def test_double_release(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        reqs = []

        def body():
            req = yield res.request()
            reqs.append(req)
            yield 1.0
            res.release(req)

        Process(sim, body)
        sim.run()
        with pytest.raises(ResourceError, match="already released"):
            res.release(reqs[0])

    def test_release_foreign_request(self):
        sim = Simulator()
        r1 = Resource(sim, capacity=1, name="r1")
        r2 = Resource(sim, capacity=1, name="r2")
        req = r1.request()
        with pytest.raises(ResourceError, match="another resource"):
            r2.release(req)

    def test_release_ungranted(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()          # occupies the server
        queued = res.request()  # still queued
        with pytest.raises(ResourceError, match="never granted"):
            res.release(queued)

    def test_bad_configuration(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Resource(sim, capacity=0)


class TestBalkingAndReneging:
    def test_queue_limit_balks(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, queue_limit=1)
        res.request()            # served
        res.request()            # queued (1/1)
        balked = res.request()   # over the limit -> balks
        assert res.balked == 1
        assert balked.done and balked.result is None

    def test_balked_flag_marks_only_the_turned_away_request(self):
        sim = Simulator()
        res = Resource(sim, capacity=1, queue_limit=0)   # M/M/1/1: no room
        served = res.request()
        turned_away = res.request()
        assert served.result is served and not served.balked
        assert turned_away.balked and turned_away.result is None
        assert turned_away.granted_at is None and res.queue_length == 0
        res.release(served)
        again = res.request()                            # free again: granted
        assert again.result is again and not again.balked
        assert res.balked == 1


class TestQueueLengthLevel:
    @staticmethod
    def run_jobs(arrivals):
        sim = Simulator()
        res = Resource(sim)

        def job():
            req = yield res.request()
            yield 1.0
            res.release(req)

        for t in arrivals:
            sim.schedule_at(t, Process, sim, job)
        sim.run()
        return sim, res, res.monitor.levels["queue_length"]

    def test_uncontended_requests_never_read_as_queued(self):
        sim, res, q = self.run_jobs([0.0, 2.0, 4.0])
        assert q.maximum == 0 and q.mean(sim.now) == 0.0
        assert res.monitor.tally("wait_time").count == 3
        assert res.utilization(sim.now) == pytest.approx(3 / 5)

    def test_a_real_wait_reads_one(self):
        sim, res, q = self.run_jobs([0.0, 0.0])
        assert q.maximum == 1 and q.mean(sim.now) == pytest.approx(0.5)
        assert res.monitor.tally("wait_time").mean == pytest.approx(0.5)


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        Process(sim, consumer)
        sim.schedule(3.0, store.put, "widget")
        sim.run()
        assert got == [(3.0, "widget")]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        token = store.get()
        assert not token.done
        store.put(1)
        assert token.done and token.result == 1

    def test_fifo_item_order(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert store.get().result == "a"
        assert store.get().result == "b"

    def test_bounded_capacity_blocks_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        t1 = store.put("x")
        t2 = store.put("y")
        assert t1.done and not t2.done
        store.get()
        assert t2.done

    def test_occupancy_stat(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        assert store.items == 1
        store.get()
        assert store.items == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                          st.floats(min_value=0.01, max_value=10)),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=4))
def test_property_fifo_conservation(jobs, capacity):
    """Every job is served exactly once; nobody starts before arriving."""
    log = run_station(jobs, capacity=capacity)
    assert len(log) == len(jobs)
    assert {r[0] for r in log} == set(range(len(jobs)))
    by_id = {r[0]: r for r in log}
    for i, (at, dur) in enumerate(jobs):
        _, start, end = by_id[i]
        assert start >= at - 1e-9
        assert end == pytest.approx(start + dur)
