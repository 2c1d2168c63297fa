"""E4 — validation against queueing theory (§5: queueing models as "an
analytical model to the problem of testing the randomness introduced by
various mathematical distributions").  Simulated L, Lq, W, Wq and
utilization stay close to the closed forms."""

import functools

import pytest

from repro.core import StreamFactory
from repro.validation import (MG1, MM1, MMc, compare, simulate_mg1,
                              simulate_mm1, simulate_mmc)

N_JOBS = 12_000


def mm1(rho):
    n = N_JOBS if rho < 0.8 else 4 * N_JOBS
    return compare(MM1(rho, 1.0), simulate_mm1(rho, 1.0, n_jobs=n, seed=5))


def pareto():
    svc = StreamFactory(8).stream("pareto-svc")
    # Pareto(3) scaled to mean 1: var = xmin² α / ((α − 1)² (α − 2)) = 1/3
    alpha, xmin = 3.0, 2.0 / 3.0
    var = (xmin ** 2 * alpha) / ((alpha - 1) ** 2 * (alpha - 2))
    return compare(MG1(0.6, 1.0, var),
                   simulate_mg1(0.6, lambda: svc.pareto(alpha, xmin),
                                n_jobs=2 * N_JOBS, seed=8))


# name → (bound on the largest relative error, the run); heavy traffic
# converges as 1/(1 − ρ)², and moderate-load M/M/1 is the tight anchor
SYSTEMS = {
    "M/M/1 rho=0.3": (0.05, lambda: mm1(0.3)),
    "M/M/1 rho=0.6": (0.12, lambda: mm1(0.6)),
    "M/M/1 rho=0.9": (0.22, lambda: mm1(0.9)),
    "M/M/3 rho=0.8": (0.12, lambda: compare(
        MMc(2.4, 1.0, 3), simulate_mmc(2.4, 1.0, 3, n_jobs=N_JOBS, seed=6))),
    "M/D/1 rho=0.8": (0.12, lambda: compare(
        MG1(0.8, 1.0, 0.0),
        simulate_mg1(0.8, lambda: 1.0, n_jobs=N_JOBS, seed=7))),
    "M/Pareto/1 rho=0.6": (0.12, pareto),
}


@functools.cache
def report(name):
    return SYSTEMS[name][1]()


@pytest.mark.parametrize("name", SYSTEMS)
def test_simulation_matches_theory(name):
    rep = report(name)
    assert rep.max_rel_error < SYSTEMS[name][0], rep.rel_errors


def test_deterministic_service_halves_the_queue():
    # Pollaczek–Khinchine: M/D/1's Lq is half of M/M/1's at equal ρ
    assert report("M/D/1 rho=0.8").analytic["Lq"] == pytest.approx(
        MM1(0.8, 1.0).Lq / 2, rel=1e-9)
