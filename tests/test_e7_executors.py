"""E7 — centralized vs distributed execution (§3: "the technology of
distributed simulations has not significantly impressed the general
simulation community").  The partitioned ring runs one LP per site."""

import functools

import pytest

from repro.core.optimistic import OptimisticExecutor
from repro.core.parallel import CMBExecutor, SequentialExecutor, WindowExecutor
from repro.workloads.partitioned import build_partitioned_ring

HORIZON = 400.0
JOBS_PER_SITE = 150
EXECUTORS = {"sequential": SequentialExecutor, "cmb": CMBExecutor,
             "window": WindowExecutor, "optimistic": OptimisticExecutor}


@functools.cache
def run(name, k, lookahead=1.0):
    """(stats, committed results) of one ring under one executor."""
    model = build_partitioned_ring(k=k, lookahead=lookahead, seed=0,
                                   jobs_per_site=JOBS_PER_SITE,
                                   horizon=HORIZON)
    stats = EXECUTORS[name]().run(model.lps, until=HORIZON)
    return stats, model.results()


@pytest.mark.parametrize("name", sorted(EXECUTORS))
@pytest.mark.parametrize("k", [2, 8])
def test_every_site_commits_its_jobs(name, k):
    stats, results = run(name, k)
    assert stats.events > 0 and len(results) >= k * JOBS_PER_SITE


def test_every_executor_commits_the_sequential_stream():
    ref = run("sequential", 4)[1]
    for name in EXECUTORS:
        assert run(name, 4)[1] == ref, f"{name} diverged from sequential"


def test_only_time_warp_rolls_back():
    assert all(run(name, 4)[0].rollbacks == 0
               for name in EXECUTORS if name != "optimistic")
    assert run("optimistic", 4)[0].rollbacks >= 1


def test_null_messages_grow_as_lookahead_shrinks():
    nulls = {la: run("cmb", 4, la)[0].null_messages
             for la in (2.0, 0.5, 0.125)}
    assert nulls[0.125] > nulls[2.0]
