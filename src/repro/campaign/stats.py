"""Cross-run statistics — means, variance, Student-t CIs, MSER-5 truncation.

One simulated trajectory is an anecdote; the paper's Section-5 validation
trend (and every MTTR/availability table in the dependability follow-up)
rests on *ensembles*.  This module reduces a set of independent replications
to the statistics that give theory comparisons teeth:

* :func:`summarize` — per-metric mean, unbiased variance, and a Student-t
  confidence interval across runs (replications are independent by seed
  construction, so the plain t interval is exact-model-correct, unlike
  within-run batch means which only approximate independence);
* :func:`mser5` — White's MSER-5 warm-up truncation: delete the initial
  transient that biases steady-state estimators, chosen as the truncation
  point minimizing the standard error of the remaining batch means;
* :func:`paired_summaries` — the same reduction of the per-replication
  differences between two grid points, which share each replication's seed
  (common random numbers): the one way two sets of results are compared;
* :func:`coverage_verdict` — does the CI contain the analytic value?  The
  campaign upgrade of ``repro validate``'s point-tolerance check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.student_t import t_ppf as t_quantile  # the one Monitor CIs use

__all__ = ["MetricSummary", "summarize", "summarize_points",
           "paired_summaries", "mser5", "t_quantile", "coverage_verdict"]


@dataclass(frozen=True, slots=True)
class MetricSummary:
    """Cross-run reduction of one metric over n independent replications."""

    metric: str
    n: int
    mean: float
    variance: float
    level: float
    halfwidth: float

    @property
    def lo(self) -> float:
        """Lower CI bound."""
        return self.mean - self.halfwidth

    @property
    def hi(self) -> float:
        """Upper CI bound."""
        return self.mean + self.halfwidth

    def contains(self, value: float) -> bool:
        """Is *value* inside the confidence interval?"""
        return self.lo <= value <= self.hi


def _summary(metric: str, values: Sequence[float],
             level: float) -> MetricSummary:
    n = len(values)
    if n == 0:
        return MetricSummary(metric, 0, math.nan, math.nan, level, math.inf)
    mean = sum(values) / n
    if n == 1:
        return MetricSummary(metric, 1, mean, math.nan, level, math.inf)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_quantile(0.5 + level / 2.0, n - 1) * math.sqrt(var / n)
    return MetricSummary(metric, n, mean, var, level, half)


def summarize(records: Iterable, metrics: Sequence[str] | None = None,
              level: float = 0.95) -> dict[str, MetricSummary]:
    """Reduce successful run records to per-metric cross-run summaries.

    *records* are campaign :class:`~repro.campaign.runner.RunRecord` objects
    (or anything with ``.status`` and ``.metrics``); failed runs are
    excluded.  With ``metrics=None`` every numeric key present in the first
    successful record is summarized.
    """
    return _reduce([r.metrics for r in records
                    if getattr(r, "status", "ok") == "ok"], metrics, level)


def paired_summaries(a: Iterable, b: Iterable,
                     metrics: Sequence[str] | None = None,
                     level: float = 0.95) -> dict[str, MetricSummary]:
    """Per-metric summaries of the paired differences ``a − b``.

    *a* and *b* are the records of two grid points.  Records pair by
    ``replication``, and a pair counts only when both of its runs are
    ``ok``.  The two runs of a pair must share a seed — that is what makes
    their difference free of the noise they have in common — else
    :class:`ConfigurationError`.  *metrics* and *level* mean what they mean
    in :func:`summarize`.
    """
    partner = {r.replication: r for r in b}
    rows = []
    for ra in a:
        rb = partner.get(ra.replication)
        if rb is None:
            continue
        if ra.seed != rb.seed:
            raise ConfigurationError(
                f"replication {ra.replication} ran on seeds {ra.seed} and "
                f"{rb.seed}: the pair shares no random numbers")
        if ra.status == rb.status == "ok":
            rows.append({m: float(v) - float(rb.metrics[m])
                         for m, v in ra.metrics.items()
                         if m in rb.metrics and _numeric(v)})
    return _reduce(rows, metrics, level)


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_level(level: float) -> None:
    """Reject a confidence level outside (0, 1)."""
    if not 0 < level < 1:
        raise ConfigurationError(f"CI level must be in (0,1), got {level}")


def _reduce(rows: list[dict], metrics: Sequence[str] | None,
            level: float) -> dict[str, MetricSummary]:
    """Summaries of the metric dicts *rows*, one per named metric."""
    check_level(level)
    if not rows:
        return {}
    if metrics is None:
        metrics = [k for k, v in rows[0].items() if _numeric(v)]
    return {m: _summary(m, [float(row[m]) for row in rows if m in row], level)
            for m in metrics}


def summarize_points(records: Iterable, metrics: Sequence[str] | None = None,
                     level: float = 0.95) -> dict[int, dict[str, MetricSummary]]:
    """Per-grid-point summaries: {point index: {metric: summary}}."""
    by_point: dict[int, list] = {}
    for r in records:
        by_point.setdefault(r.point, []).append(r)
    return {p: summarize(rs, metrics, level)
            for p, rs in sorted(by_point.items())}


def mser5(series: Sequence[float], batch: int = 5) -> int:
    """MSER-5 warm-up truncation point (index into *series*).

    Averages the series into batches of *batch* observations, then picks
    the truncation d* minimizing ``var(z[d:]) / (n-d)²``-style standard
    error of the remaining batch means (White's MSER statistic).  The
    search is capped at half the batches — the standard guard against the
    statistic's endpoint degeneracy — and returns ``d* × batch`` raw
    observations to delete.
    """
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    n_batches = len(series) // batch
    if n_batches < 4:
        return 0
    z = [sum(series[i * batch:(i + 1) * batch]) / batch
         for i in range(n_batches)]
    # Prefix sums make each candidate truncation O(1): mser(d) =
    # sum((z_i - mean_d)^2 for i >= d) / (n - d)^2.
    best_d, best_stat = 0, math.inf
    total = sum(z)
    total_sq = sum(v * v for v in z)
    removed = 0.0
    removed_sq = 0.0
    for d in range(n_batches // 2):
        m = n_batches - d
        s = total - removed
        sq = total_sq - removed_sq
        mean = s / m
        stat = max(0.0, sq - m * mean * mean) / (m * m)
        if stat < best_stat:
            best_stat = stat
            best_d = d
        removed += z[d]
        removed_sq += z[d] * z[d]
    return best_d * batch


def coverage_verdict(summaries: Mapping[str, MetricSummary],
                     theory) -> dict[str, dict]:
    """CI-contains-theory verdict per metric.

    *theory* is an analytic model exposing the metric names as attributes
    (``MM1``/``MMc``: L, Lq, W, Wq, rho) or a plain mapping.  Metrics with
    no analytic counterpart are skipped, and so are metrics from fewer
    than two runs: their unbounded interval would contain any value.
    """
    out: dict[str, dict] = {}
    for name, summ in summaries.items():
        attr = "rho" if name == "utilization" else name
        if isinstance(theory, Mapping):
            value = theory.get(name, theory.get(attr))
        else:
            value = getattr(theory, attr, None)
        # bool is an int subclass: a True/False theory entry would silently
        # become a nonsense 0/1 coverage check, so reject it explicitly.
        if (summ.n < 2 or value is None or isinstance(value, bool)
                or not isinstance(value, (int, float))):
            continue
        out[name] = {"theory": float(value), "lo": summ.lo, "hi": summ.hi,
                     "mean": summ.mean, "n": summ.n,
                     "contains": summ.contains(float(value))}
    return out
