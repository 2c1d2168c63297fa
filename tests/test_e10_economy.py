"""E10 — GridSim's "cost-time optimization algorithms ... dealing with
deadline and budget constraints" (§4): the Nimrod-G/GridSim DBC matrix of
deadline x budget corners under the time- and cost-optimizing brokers."""

import functools

import pytest

from repro.campaign import run_scenario

N = 40
CORNERS = {
    "loose-D/big-B": (2000.0, 1e6),
    "tight-D/big-B": (120.0, 1e6),
    "loose-D/small-B": (2000.0, 6e4),
    # cheapest offer is 1 G$/MI and the shortest gridlet is ~100 MI, so a
    # 50 G$ budget can never admit anything: truly infeasible
    "infeasible": (4.0, 50.0),
}


@functools.cache
def corner(name, strategy):
    deadline, budget = CORNERS[name]
    return run_scenario("gridsim", {"strategy": strategy, "deadline": deadline,
                                    "budget": budget}, 21)[0]


@pytest.mark.parametrize("strategy", ["time", "cost"])
@pytest.mark.parametrize("name", sorted(CORNERS))
def test_every_gridlet_accounted_within_budget(name, strategy):
    summary = corner(name, strategy)
    assert summary["completed"] + summary["failed"] == N
    assert summary["spent"] <= CORNERS[name][1] + 1e-6
    # admission keeps its promise: no accepted gridlet misses its deadline
    assert summary["deadline_misses"] == 0


def test_time_opt_no_later_cost_opt_no_dearer():
    base_t = corner("loose-D/big-B", "time")
    base_c = corner("loose-D/big-B", "cost")
    assert base_t["makespan"] <= base_c["makespan"] + 1e-9
    assert base_c["spent"] <= base_t["spent"] + 1e-9
    assert base_t["completed"] == N and base_c["completed"] == N


def test_small_budget_starves_the_time_optimizer():
    small_b = corner("loose-D/small-B", "time")
    assert small_b["failed"] > 0
    # the cost optimizer stretches the same budget at least as far
    assert corner("loose-D/small-B", "cost")["completed"] \
        >= small_b["completed"]


@pytest.mark.parametrize("strategy", ["time", "cost"])
def test_infeasible_corner_completes_nothing(strategy):
    assert corner("infeasible", strategy)["completed"] == 0
