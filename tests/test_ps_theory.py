"""The theory ring around the two sharing owners: the M/G/1-PS law.

Egalitarian processor sharing of one server of capacity C under Poisson
arrivals at load ρ has mean sojourn ``E[x] / (C (1 − ρ))`` — and this is
*insensitive* to the size distribution beyond its mean.  Two owners in
the package are such a server: a one-PE ``TimeSharedMachine`` (C = the
PE's rating) and a ``FlowNetwork`` over a single zero-latency link (max-min
on one link is an equal split; C = bandwidth × efficiency).  Both are run
with exponential and with deterministic sizes at ρ = 0.5.

Reduced size and a fixed seed, so the test is deterministic.  The
tolerance is 4 σ, σ being the standard error of the mean sojourn from
20 batch means after a 1 000-job warm-up (σ ≈ 1–2% of theory here); σ
itself must stay under 5% of theory so the check cannot go vacuous.  A
disagreement is a model bug: fix the model, not the tolerance.
"""

import math
import random
import statistics

import pytest

from repro.core import Simulator
from repro.hosts import TimeSharedMachine
from repro.network import FlowNetwork, Topology

SEED = 2009
RHO = 0.5
CAPACITY = 100.0                 #: MIPS, or bytes/s after efficiency
MEAN_SIZE = 100.0                #: MI, or bytes
N_JOBS, WARMUP, BATCHES = 20_000, 1_000, 20
THEORY = MEAN_SIZE / (CAPACITY * (1.0 - RHO))   # 2.0 s


def arrivals(sizes: str) -> list[tuple[float, float]]:
    """``(arrival time, size)`` rows: Poisson at rate ρ C / E[x]."""
    rng = random.Random(SEED)
    rate = RHO * CAPACITY / MEAN_SIZE
    rows, t = [], 0.0
    for _ in range(N_JOBS):
        t += rng.expovariate(rate)
        rows.append((t, rng.expovariate(1.0 / MEAN_SIZE)
                     if sizes == "exponential" else MEAN_SIZE))
    return rows


def machine_sojourns(rows) -> list[float]:
    sim = Simulator()
    m = TimeSharedMachine(sim, pes=1, rating=CAPACITY)
    runs = []
    for t, size in rows:
        sim.schedule_at(t, lambda z=size: runs.append(m.submit(z)))
    sim.run()
    return [r.finished - r.submitted for r in runs]


def link_sojourns(rows) -> list[float]:
    topo = Topology()
    topo.add_link("a", "b", 125.0, 0.0)      # 125 × 0.8 = 100 bytes/s
    sim = Simulator()
    net = FlowNetwork(sim, topo, efficiency=0.8)
    flows = []
    for t, size in rows:
        sim.schedule_at(t, lambda z=size: flows.append(
            net.transfer("a", "b", z)))
    sim.run()
    return [f.duration for f in flows]


@pytest.mark.parametrize("sizes", ["exponential", "deterministic"])
@pytest.mark.parametrize("owner", [machine_sojourns, link_sojourns],
                         ids=["time-shared-machine", "single-link"])
def test_mean_sojourn_is_the_mg1_ps_law(owner, sizes):
    kept = owner(arrivals(sizes))[WARMUP:]
    n = len(kept) // BATCHES
    means = [statistics.fmean(kept[k * n:(k + 1) * n])
             for k in range(BATCHES)]
    mean = statistics.fmean(means)
    sigma = statistics.stdev(means) / math.sqrt(BATCHES)
    assert sigma <= 0.05 * THEORY, f"σ = {sigma:.4f}: too noisy to judge"
    assert abs(mean - THEORY) <= 4 * sigma, (
        f"mean sojourn {mean:.4f} s vs M/G/1-PS {THEORY:.4f} s: off by "
        f"{abs(mean - THEORY) / sigma:.1f} σ (σ = {sigma:.4f} s)")
