#!/usr/bin/env python
"""OptorSim-style replication-optimizer comparison.

"The objective of OptorSim is to investigate the stability and transient
behavior of replication optimization methods."  This example runs the same
Zipf-popular workload on an EU-DataGrid-like grid under the four pull
optimizers and reports mean job time and the fraction of reads that had to
cross the WAN.  Expected shape: any replication beats none; the economic
optimizer resists the cache churn that hurts LRU when disks are tight.

Run:  python examples/replica_optimization.py
"""

from repro.campaign import run_scenario
from repro.simulators import OPTIMIZERS

N_JOBS = 120


def run(optimizer: str, pattern: str = "zipf") -> dict:
    # five sites whose disks hold ~8 of the 30 files: real pressure
    return run_scenario("optorsim", {"optimizer": optimizer,
                                     "pattern": pattern, "jobs": N_JOBS},
                        11)[0]


def main() -> None:
    print(f"{'optimizer':<10} {'mean job time':>14} {'remote reads':>13} "
          f"{'replicas made':>14} {'evictions':>10}")
    times = {}
    for name in sorted(OPTIMIZERS):
        m = run(name)
        times[name] = m["mean_job_time"]
        print(f"{name:<10} {m['mean_job_time']:>12.1f} s "
              f"{m['remote_fraction']:>12.1%} "
              f"{m['replicas_created']:>14} {m['replicas_evicted']:>10}")

    assert times["lru"] < times["none"], "replication must beat streaming"
    print("\nReplication beats no-replication on Zipf-popular access — "
          "the OptorSim result's shape holds.")

    print("\nAccess-pattern sensitivity (LRU optimizer):")
    for pattern in ("sequential", "random", "unitary", "gaussian", "zipf"):
        m = run("lru", pattern)
        print(f"  {pattern:<11} mean job time {m['mean_job_time']:>8.1f} s, "
              f"remote {m['remote_fraction']:.1%}")


if __name__ == "__main__":
    main()
