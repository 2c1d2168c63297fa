#!/usr/bin/env python
"""Statistically sound policy comparison across replicated runs.

The taxonomy's top *output analyzer* tier includes "comparison between
different sets of results, often from different simulation runs".  A single
seed can flatter either policy; this example replicates the Bricks
scheduler experiment as a two-point campaign.  Both points run every
replication on the same seed (common random numbers), so the paired
difference predictive − random of each statistic the model's monitor
collects cancels the noise the two runs share, and the confidence interval
of the mean response time decides whether predictive scheduling *really*
beats random placement.

Run:  python examples/run_comparison.py
"""

from repro.campaign import (CampaignSpec, paired_summaries,
                            register_scenario, run_campaign)
from repro.core import Simulator
from repro.simulators import BricksModel

SEEDS = 8


@register_scenario("bricks-comparison", defaults={"scheduler": "random"})
def bricks_comparison(params: dict, seed: int) -> tuple[dict, dict]:
    """Every statistic of one Bricks run's monitor, as ``collector.stat``."""
    model = BricksModel(Simulator(seed=seed), n_clients=5, n_servers=3,
                        scheduler=params["scheduler"], job_rate=0.3,
                        background=0.6).run(horizon=300.0)
    return ({f"{key}.{stat}": value
             for key, stats in model.monitor.summary().items()
             for stat, value in stats.items()}, {})


def main() -> None:
    spec = CampaignSpec("bricks-comparison",
                        grid={"scheduler": ["predictive", "random"]},
                        replications=SEEDS)
    result = run_campaign(spec, workers=1)
    paired = paired_summaries(*([r for r in result.records if r.point == p]
                                for p in (0, 1)))
    print(f"predictive - random, paired over {SEEDS} seeds (95% CI):")
    for name, diff in sorted(paired.items()):
        print(f"  {name:<30} {diff.mean:>+9.3f}  "
              f"[{diff.lo:>+9.3f}, {diff.hi:>+9.3f}]")
    assert paired["tally.response_time.mean"].hi < 0, \
        "prediction should win significantly across seeds"


if __name__ == "__main__":
    main()
