"""Differential fuzzing of the four executors on random LP graphs.

Each seed builds one random partitioned model (``executor_oracle.py``) five
times and runs it under the rescanning ``NaiveSequentialExecutor``, the heap
``SequentialExecutor``, CMB, synchronous windows and Time Warp:

* naive vs heap sequential must agree on everything an observer can see —
  committed log, ``events``, ``epochs`` (steps), ``real_messages`` and every
  LP's ``(events_executed_total, sim.now)``;
* the other three must commit the same log;
* Time Warp must also conserve work and messages: ``committed_events`` is
  the sequential ``events``, and sends minus anti-messages the sequential
  ``real_messages``.

The conformance matrix only ever ran the ring, where every LP has one input,
lookaheads are equal and ``extra_delay`` is always 0.

Seeds: a fixed set always runs; ``REPRO_FUZZ_RANDOM=1`` runs a burst of fresh
ones, ``REPRO_FUZZ_SEED=<n>`` replays one (it is in the failure message).
"""

import os
import random

import pytest

from repro.core.optimistic import OptimisticExecutor
from repro.core.parallel import (CMBExecutor, SequentialExecutor,
                                 WindowExecutor)

from .executor_oracle import NaiveSequentialExecutor, build_random_model
from .flow_oracle import fuzz_seeds

FIXED_SEEDS = list(range(2009, 2009 + 64))


def run_under(seed: int, executor):
    model = build_random_model(seed)
    return model, executor.run(model.lps, model.until)


def run_differential(seed: int) -> None:
    tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
    naive, naive_stats = run_under(seed, NaiveSequentialExecutor())
    assert sum(map(len, naive.logs.values())) > 0, f"{tag}: empty model"
    heap, heap_stats = run_under(seed, SequentialExecutor())
    assert heap.logs == naive.logs, f"{tag}: sequential log != naive"
    for field in ("events", "epochs", "real_messages", "null_messages"):
        assert getattr(heap_stats, field) == getattr(naive_stats, field), \
            f"{tag}: sequential {field} != naive"
    assert heap.per_lp() == naive.per_lp(), f"{tag}: per-LP counts/clocks"

    for executor in (CMBExecutor(max_rounds=100_000), WindowExecutor()):
        model, stats = run_under(seed, executor)
        assert model.logs == naive.logs, f"{tag}: {executor.name} log"
        assert stats.events == naive_stats.events, f"{tag}: {executor.name}"

    # Time Warp knobs vary with the seed: tight and loose interleaving,
    # frequent and rare checkpoints (coast-forwards that span many rounds,
    # snapshots restored more than once)
    knobs = random.Random(seed)
    optimistic = OptimisticExecutor(
        batch=knobs.choice([1, 4, 32]),
        checkpoint_every=knobs.choice([1, 3, 8, 1000]), max_rounds=100_000)
    model, stats = run_under(seed, optimistic)
    assert model.logs == naive.logs, f"{tag}: optimistic log"
    assert stats.committed_events == naive_stats.events, \
        f"{tag}: optimistic committed_events"
    assert 0 < stats.efficiency <= 1, f"{tag}: optimistic efficiency"
    assert (stats.real_messages - stats.anti_messages
            == naive_stats.real_messages), f"{tag}: optimistic messages"


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_differential_fixed_seeds(seed):
    run_differential(seed)


@pytest.mark.skipif(not os.environ.get("REPRO_FUZZ_RANDOM")
                    and not os.environ.get("REPRO_FUZZ_SEED"),
                    reason="randomized burst: set REPRO_FUZZ_RANDOM=1 "
                           "(or REPRO_FUZZ_SEED=<n> to replay one seed)")
def test_differential_random_burst():
    """A burst of fresh seeds; any failure prints the seed to replay."""
    for seed in fuzz_seeds([], burst=40):
        run_differential(seed)
