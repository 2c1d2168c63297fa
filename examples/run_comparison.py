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

from repro.campaign import CampaignSpec, paired_summaries, run_campaign

SEEDS = 8


def main() -> None:
    spec = CampaignSpec("bricks", base={"clients": 5, "servers": 3,
                                        "job_rate": 0.3, "horizon": 300.0},
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
