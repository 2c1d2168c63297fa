"""Executor conformance matrix — one model, four executors, identical output.

The strongest claim the distributed layer makes (and the one the paper's
critical analysis says the field keeps failing to deliver cheaply): whatever
synchronization protocol runs the partitioned model — centralized
sequential, conservative CMB, synchronous windows, or
optimistic Time Warp — the *committed* event stream and the final monitor
statistics are identical, for every RNG seed.

The model is the shared partitioned ring from
:mod:`repro.workloads.partitioned` (also the E7 benchmark model), which has
genuine cross-LP traffic and is rollback-safe for the optimistic executor.
"""

import pytest

from repro.core.optimistic import OptimisticExecutor
from repro.core.parallel import (CMBExecutor, SequentialExecutor,
                                 WindowExecutor)
from repro.workloads.partitioned import build_partitioned_ring

SEEDS = [1, 7, 23]
K = 4
JOBS = 60
HORIZON = 200.0

EXECUTOR_FACTORIES = {
    "sequential": SequentialExecutor,
    "cmb": CMBExecutor,
    "window": WindowExecutor,
    "optimistic": OptimisticExecutor,
}


def run_one(name: str, seed: int):
    model = build_partitioned_ring(k=K, seed=seed, jobs_per_site=JOBS,
                                   horizon=HORIZON)
    stats = EXECUTOR_FACTORIES[name]().run(model.lps, until=HORIZON)
    return model.results(), model.monitor_stats(), stats


@pytest.fixture(scope="module")
def references():
    """Sequential runs, one per seed — the conformance oracle."""
    return {seed: run_one("sequential", seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name",
                         [n for n in sorted(EXECUTOR_FACTORIES)
                          if n != "sequential"])
def test_committed_stream_matches_sequential(name, seed, references):
    ref_results, ref_stats, _ = references[seed]
    results, mstats, _ = run_one(name, seed)
    # Byte-identical committed stream: repr equality, not approx-compare.
    assert repr(results) == repr(ref_results), (
        f"{name} seed={seed}: committed event stream diverged from "
        f"sequential execution")
    assert mstats == ref_stats, (
        f"{name} seed={seed}: final monitor statistics diverged")


@pytest.mark.parametrize("seed", SEEDS)
def test_seeds_give_distinct_trajectories(seed, references):
    """Sanity: the seeds actually vary the workload (no vacuous matrix)."""
    other = SEEDS[(SEEDS.index(seed) + 1) % len(SEEDS)]
    assert references[seed][0] != references[other][0]


def test_model_produces_cross_lp_traffic():
    """Sanity: the conformance model exercises real channel traffic."""
    _, _, stats = run_one("sequential", SEEDS[0])
    assert stats.real_messages > 0
    assert stats.events >= K * JOBS
