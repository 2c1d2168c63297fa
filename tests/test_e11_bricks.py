"""E11 — Bricks: scheduling with monitoring and prediction in the central model.

Paper source (§4): Bricks investigates "resource scheduling algorithms,
programming modules for scheduling, network topology of clients and
servers in global computing systems".  Under bursty background server
load, better monitoring pays monotonically: predictive placement beats
random, round-robin and plain load-awareness, and load-awareness alone
beats random placement.

Each claim is a paired verdict of the campaign engine: the four schedulers
are the grid points of one campaign, every replication runs all four on
one seed (common random numbers), and a claim holds when the confidence
interval of the per-replication difference lies below zero.  The count of
replications below was fixed before the first run and is not tuned.
"""

import pytest

from repro.campaign import CampaignSpec, paired_summaries, run_campaign
from repro.simulators import BRICKS_SCHEDULERS

REPLICATIONS = 8


@pytest.fixture(scope="module")
def runs() -> dict[str, list]:
    """The records of each scheduler, one per replication."""
    spec = CampaignSpec("bricks",
                        grid={"scheduler": list(BRICKS_SCHEDULERS)},
                        replications=REPLICATIONS)
    result = run_campaign(spec, workers=1)
    assert result.n_ok == len(result.records)
    return {s: [r for r in result.records if r.point == p]
            for p, s in enumerate(BRICKS_SCHEDULERS)}


@pytest.mark.parametrize("scheduler", BRICKS_SCHEDULERS)
def test_every_run_completes_jobs(runs, scheduler):
    for rec in runs[scheduler]:
        assert rec.metrics["tally.response_time.n"] > 50
        assert rec.metrics["tally.response_time.mean"] > 0


@pytest.mark.parametrize("better, worse", [
    ("predictive", "random"),
    ("predictive", "round-robin"),
    ("predictive", "load-aware"),   # prediction subsumes load-awareness
    ("load-aware", "random"),
])
def test_better_information_lowers_response_time(runs, better, worse):
    diff = paired_summaries(runs[better], runs[worse],
                            ["tally.response_time.mean"]
                            )["tally.response_time.mean"]
    assert diff.n == REPLICATIONS
    assert diff.hi < 0, (f"{better} - {worse}: {diff.mean:+.3f} s "
                         f"[{diff.lo:+.3f}, {diff.hi:+.3f}] not resolved")
