"""Differential fuzzing of the virtual-time processor-sharing machine.

Seeded random job schedules — Poisson arrivals at a random offered load,
bursts of equal-length jobs submitted at one instant (equal finish keys),
re-used lengths, ``pes > 1`` with fewer jobs than PEs (the per-PE cap), and
background-load steps — are driven through ``TimeSharedMachine`` (one
virtual clock, one heap of finish keys, one timer) and through
``cpu_oracle.NaiveTimeSharedMachine`` (settle every job, cancel and
reschedule every completion, on every change).  Both runs execute the
*identical* schedule, so job by job the completion times must agree to
rel 1e-12 and the completion order must be the same.

Seeds: a fixed set always runs in tier-1; ``REPRO_FUZZ_RANDOM=1`` runs a
short randomized burst and ``REPRO_FUZZ_SEED=<n>`` replays one seed
(``flow_oracle.fuzz_seeds``; a failing seed is in the message).
"""

import math
import os
import random

import pytest

from repro.core import Simulator
from repro.hosts import TimeSharedMachine

from .cpu_oracle import NaiveTimeSharedMachine
from .flow_oracle import fuzz_seeds

FIXED_SEEDS = [2009, 40962, 777216, 1106]

N_JOBS = 120
REL_TOL = 1e-12


def build_schedule(rng: random.Random) -> tuple[int, float, list]:
    """``(pes, rating, rows)``; a row is ``(time, "job", length)`` or
    ``(time, "load", fraction)``, in time order."""
    pes = rng.choice([1, 2, 4])
    rating = rng.uniform(50.0, 2000.0)
    mean_len = rating * rng.uniform(0.5, 3.0)
    # offered load per PE: light (jobs < PEs, the cap binds) to overloaded
    arrival_rate = rng.uniform(0.2, 1.2) * pes * rating / mean_len
    rows, lengths, now = [], [], 0.0
    while len(lengths) < N_JOBS:
        now += rng.expovariate(arrival_rate)
        kind = rng.random()
        if kind < 0.10:
            rows.append((now, "load", rng.choice(
                [0.0, 0.3, 0.6, rng.uniform(0.0, 0.95)])))
            continue
        if kind < 0.25:        # a burst: equal lengths, one instant
            burst = [rng.uniform(0.1, 2.0) * mean_len] * rng.randint(2, 3)
        elif kind < 0.45 and lengths:
            burst = [rng.choice(lengths)]
        else:
            burst = [rng.uniform(0.1, 2.0) * mean_len]
        for length in burst[:N_JOBS - len(lengths)]:
            lengths.append(length)
            rows.append((now, "job", length))
    return pes, rating, rows


def run_machine(machine: type, pes: int, rating: float, rows: list):
    """One full run; returns (machine, completion order, {id: finished})."""
    sim = Simulator()
    m = machine(sim, pes=pes, rating=rating)
    order, finished = [], {}

    def done(run):
        order.append(run.id)
        finished[run.id] = run.finished

    def submit(length):
        m.submit(length)._subscribe(done)

    for t, kind, x in rows:
        sim.schedule_at(t, submit if kind == "job" else
                        m.set_background_load, x)
    sim.run()
    return m, order, finished


def run_differential(seed: int) -> None:
    """Drive both machines through one seeded schedule; raises on divergence."""
    tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
    pes, rating, rows = build_schedule(random.Random(seed))
    fast, order, got = run_machine(TimeSharedMachine, pes, rating, rows)
    naive, ref_order, want = run_machine(NaiveTimeSharedMachine, pes,
                                         rating, rows)
    assert len(got) == len(want) == N_JOBS, tag
    for run_id, t in want.items():
        assert math.isclose(got[run_id], t, rel_tol=REL_TOL), (
            f"{tag} job #{run_id}: finished {got[run_id]!r} (virtual time) "
            f"!= {t!r} (settle-everything)")
    assert order == ref_order, f"{tag}: completion order differs"
    assert fast.running == naive.running == 0, tag
    end = max(want.values())
    assert math.isclose(fast.monitor.levels["busy_pes"].mean(end),
                        naive.monitor.levels["busy_pes"].mean(end),
                        rel_tol=1e-9), f"{tag}: busy-PE level differs"


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_differential_fixed_seeds(seed):
    run_differential(seed)


@pytest.mark.skipif(not os.environ.get("REPRO_FUZZ_RANDOM")
                    and not os.environ.get("REPRO_FUZZ_SEED"),
                    reason="randomized burst: set REPRO_FUZZ_RANDOM=1 "
                           "(or REPRO_FUZZ_SEED=<n> to replay one seed)")
def test_differential_random_burst():
    """A short burst of fresh seeds; any failure prints the seed to replay."""
    for seed in fuzz_seeds([]):
        run_differential(seed)
