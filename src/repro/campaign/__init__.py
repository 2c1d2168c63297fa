"""repro.campaign — Monte Carlo ensembles, cross-run statistics, and search.

The paper's Section-5 trends (validation, scalability, distributed
execution) all demand *ensembles*, not single trajectories.  This package
turns one scenario into a campaign:

* **spec** (:mod:`repro.campaign.spec`) — seed ranges × parameter grids
  expanded into a deterministic run matrix, with per-replication RNG
  universes spawned from one root seed (common random numbers across grid
  points by construction);
* **runner** (:mod:`repro.campaign.runner`) — a process-pool executor with
  an explicit worker protocol: chunked dispatch, per-run timeout/retry,
  and results reassembled in matrix order so parallel output is
  byte-identical to serial;
* **stats** (:mod:`repro.campaign.stats`) — cross-run means, variances,
  Student-t confidence intervals, paired differences between two grid
  points, MSER-5 warm-up truncation, and CI-contains-theory verdicts
  feeding :mod:`repro.validation`;
* **telemetry** (:mod:`repro.campaign.telemetry`) — fleet rollups of the
  per-run observability every record ships home: per-worker and per-point
  rates, merged metrics registries, slowest runs, incident counters;
* **search** (:mod:`repro.campaign.search`) — an evolutionary loop
  (tournament selection + crossover + mutation) over scenario parameters,
  scored by a metric expression.

Surface: ``python -m repro campaign`` and ``repro validate --runs N``.
"""

from .scenarios import SCENARIOS, register_scenario, run_scenario, theory_for
from .search import (Axis, EvolutionResult, evaluate_objective, evolve,
                     parse_space)
from .spec import CampaignSpec, RunSpec, describe_params, point_key
from .runner import CampaignResult, RunRecord, run_campaign, run_specs
from .stats import (MetricSummary, coverage_verdict, mser5,
                    paired_summaries, summarize, summarize_points, t_quantile)
from .telemetry import CampaignTelemetry, aggregate_telemetry

__all__ = [
    "CampaignSpec",
    "RunSpec",
    "point_key",
    "describe_params",
    "CampaignTelemetry",
    "aggregate_telemetry",
    "CampaignResult",
    "RunRecord",
    "run_campaign",
    "run_specs",
    "SCENARIOS",
    "register_scenario",
    "run_scenario",
    "theory_for",
    "MetricSummary",
    "summarize",
    "summarize_points",
    "paired_summaries",
    "mser5",
    "t_quantile",
    "coverage_verdict",
    "Axis",
    "parse_space",
    "evaluate_objective",
    "evolve",
    "EvolutionResult",
]
