#!/usr/bin/env python
"""Queueing-theory validation of the kernel (the paper's Section-5 demand).

"A scientist wanting to use a simulator to evaluate a specific technology
needs to have increased confidence in the obtained results ... the use of
queuing theory [provides] an analytical model."

This example simulates M/M/1 (three loads), M/M/3, M/M/1/3 and M/G/1
(deterministic and heavy-tailed service) with kernel primitives, and prints
analytic vs measured for L, Lq, W, Wq, utilization.  Every relative error
should land within a few percent.

Run:  python examples/validate_against_theory.py
"""

from repro.core import StreamFactory
from repro.validation import (
    MG1,
    MM1,
    MM1K,
    MMc,
    compare,
    simulate_mg1,
    simulate_mm1,
    simulate_mm1k,
    simulate_mmc,
)

N_JOBS = 25_000


def show(title: str, report) -> float:
    print(f"\n{title}")
    print(f"  {'qty':<12} {'analytic':>10} {'measured':>10} {'rel.err':>8}")
    for qty, analytic, measured, err in report.to_rows():
        print(f"  {qty:<12} {analytic:>10.4f} {measured:>10.4f} {err:>7.2%}")
    return report.max_rel_error


def main() -> None:
    worst = 0.0
    for rho in (0.3, 0.6, 0.9):
        lam, mu = rho, 1.0
        # heavy traffic converges like 1/(1-ρ)²: give ρ=0.9 a longer run
        n = N_JOBS if rho < 0.8 else 4 * N_JOBS
        rep = compare(MM1(lam, mu), simulate_mm1(lam, mu, n_jobs=n, seed=5))
        worst = max(worst, show(f"M/M/1  ρ={rho}", rep))

    rep = compare(MMc(lam=2.4, mu=1.0, c=3),
                  simulate_mmc(2.4, 1.0, 3, n_jobs=N_JOBS, seed=6))
    worst = max(worst, show("M/M/3  ρ=0.8", rep))

    # M/M/1/K: an arrival finding K=3 in the system is lost
    rep = compare(MM1K(0.9, 1.0, 3),
                  simulate_mm1k(0.9, 1.0, 3, n_jobs=N_JOBS, seed=9))
    worst = max(worst, show("M/M/1/3  ρ=0.9", rep))

    # M/G/1, deterministic service (the P-K variance term at its minimum)
    rep = compare(MG1(lam=0.8, service_mean=1.0, service_var=0.0),
                  simulate_mg1(0.8, lambda: 1.0, n_jobs=N_JOBS, seed=7))
    worst = max(worst, show("M/D/1  ρ=0.8", rep))

    # M/G/1, heavy-ish service (lognormal, cv^2 ≈ 1.7)
    svc = StreamFactory(8).stream("svc")
    mean, sigma = 1.0, 1.0
    import math

    var = (math.exp(sigma**2) - 1) * mean**2
    rep = compare(MG1(lam=0.5, service_mean=mean, service_var=var),
                  simulate_mg1(0.5, lambda: svc.lognormal(mean, sigma),
                               n_jobs=N_JOBS, seed=8))
    worst = max(worst, show(f"M/G/1 lognormal cv²={var:.2f}", rep))

    print(f"\nworst relative error across all systems: {worst:.2%}")
    assert worst < 0.15, "simulation should track theory within 15% everywhere"
    print("Kernel validated against queueing theory.")


if __name__ == "__main__":
    main()
