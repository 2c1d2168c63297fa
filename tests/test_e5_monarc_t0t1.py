"""E5 — the MONARC T0/T1 replication study (Legrand et al. 2005, §5): it
"showed that the existing capacity of 2.5 Gbps was not sufficient" and
"indicated the role of using a data replication agent".  CMS+ATLAS
production to three Tier-1s over one T0 uplink; E5b is agent against pull.
"""

import functools

import pytest

from repro.campaign import run_scenario

CAPACITIES = [0.622, 1.25, 2.5, 10.0, 30.0]


@functools.cache
def study(uplink_gbps, agent=True):
    return run_scenario("t0t1", {"uplink_gbps": uplink_gbps, "agent": agent},
                        7)[0]


@pytest.mark.parametrize("capacity", CAPACITIES)
def test_every_capacity_produces_files(capacity):
    assert study(capacity)["produced_files"] > 0


def test_2_5_gbps_not_sufficient_and_upgrade_keeps_up():
    assert study(2.5)["diverged"]
    assert study(1.25)["diverged"] and study(0.622)["diverged"]
    assert not study(30.0)["diverged"]
    assert not study(10.0)["diverged"]
    assert study(30.0)["final_backlog_files"] == 0


def test_more_capacity_never_a_worse_peak_backlog():
    peaks = [study(c)["peak_backlog_files"] for c in CAPACITIES]
    assert all(a >= b for a, b in zip(peaks, peaks[1:]))


def test_e5b_agent_vs_pull():
    agent, pull = study(10.0), study(10.0, agent=False)
    # both deliver everything at ample capacity...
    assert agent["final_backlog_files"] == 0
    assert pull["final_backlog_files"] == 0
    # ...and the agent's bounded window never stretches transfers more
    assert agent["mean_transfer_time"] <= pull["mean_transfer_time"] * 1.05
