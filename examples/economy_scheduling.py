#!/usr/bin/env python
"""GridSim-style deadline/budget-constrained (DBC) economy scheduling.

"GridSim is mainly used to study cost-time optimization algorithms for
scheduling task farming applications on heterogeneous Grids, considering
economy based distributed resource management, dealing with deadline and
budget constraints."

This example farms 60 gridlets over four priced resources under both DBC
strategies at several (deadline, budget) corners.  Expected shape:
time-optimization finishes earlier but spends more; cost-optimization is
cheaper but slower; the infeasible corner fails jobs under both.

Run:  python examples/economy_scheduling.py
"""

from repro.campaign import run_scenario

N = 60
CORNERS = [
    ("loose D, big B", 2000.0, 1e6),
    ("tight D, big B", 120.0, 1e6),
    ("loose D, small B", 2000.0, 8e4),
    ("infeasible", 5.0, 2e3),
]


def run(strategy: str, deadline: float, budget: float) -> dict:
    return run_scenario("gridsim", {"strategy": strategy, "gridlets": N,
                                    "deadline": deadline, "budget": budget},
                        21)[0]


def main() -> None:
    print(f"{'corner':<18} {'strategy':<6} {'done':>5} {'spent':>10} "
          f"{'makespan':>9} {'misses':>7}")
    for label, deadline, budget in CORNERS:
        for strategy in ("time", "cost"):
            s = run(strategy, deadline, budget)
            print(f"{label:<18} {strategy:<6} "
                  f"{s['completed']:>3}/{N} {s['spent']:>10.0f} "
                  f"{s['makespan']:>9.1f} {s['deadline_misses']:>7}")

    t = run("time", 2000.0, 1e6)
    c = run("cost", 2000.0, 1e6)
    assert t["makespan"] <= c["makespan"] + 1e-9
    assert c["spent"] <= t["spent"] + 1e-9
    print("\nTime-opt finished no later; cost-opt spent no more — "
          "the DBC trade-off holds.")


if __name__ == "__main__":
    main()
