"""Campaign-level telemetry — fold per-run observability into a fleet view.

Every run ships its :meth:`Telemetry.snapshot` dict and its metrics
registry dump back with its :class:`~repro.campaign.runner.RunRecord`;
the parent folds them here, beside the accounting only it can see (worker
deaths, stall flags, retries), which the
:class:`~repro.campaign.runner.CampaignResult` holds.  The result answers
the operator questions a bare ``k/N`` progress line cannot: how fast is
each worker really going, which grid point is the expensive one, where
did the wall-clock go, and which runs are the outliers worth a look.

Aggregation uses only the *final* record of each run index — a run that
timed out once and then succeeded contributes exactly one record (its
successful one) to the rollups, while the earlier attempt shows up in
the result's ``timeouts``/``retries_used``/``worker_deaths`` instead.
That is what keeps the per-worker run counts summing to ``len(records)``
with no double counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..obs.metrics import Registry
from .spec import describe_params

__all__ = ["CampaignTelemetry", "aggregate_telemetry"]

#: rows in the report's slowest-runs table
SLOWEST_RUNS = 5


def _rate_stats(rates: list[float]) -> dict[str, float]:
    if not rates:
        return {"min": 0.0, "mean": 0.0, "max": 0.0}
    return {"min": min(rates), "mean": sum(rates) / len(rates),
            "max": max(rates)}


@dataclass
class CampaignTelemetry:
    """Cross-run observability rollups for one campaign execution.

    Attributes
    ----------
    result:
        The :class:`~repro.campaign.runner.CampaignResult` folded; its wall
        seconds and incident counts head the report.
    per_worker:
        ``worker id -> rollup dict`` (runs/ok/failed/timeout, events, wall
        seconds, events-per-second stats) from each run's final record.
        Parent-side records (serial runs, give-ups) live under worker -1.
    per_point:
        ``grid point -> rollup dict`` with a human label and the same
        rate statistics, for spotting the expensive corner of the grid.
    slowest:
        The longest-running final records, longest first.
    metrics:
        One :class:`~repro.obs.metrics.Registry` holding every run's
        shipped registry dump merged together (counters/histograms add).
    """

    result: Any
    per_worker: dict[int, dict] = field(default_factory=dict)
    per_point: dict[int, dict] = field(default_factory=dict)
    slowest: list[dict] = field(default_factory=list)
    metrics: Registry = field(default_factory=Registry)
    events: int = 0

    def report(self) -> str:
        """The ``repro campaign --report`` table (plain text)."""
        r = self.result
        lines = ["campaign telemetry", "==================",
                 f"events={self.events:,} wall={r.wall_seconds:.2f}s "
                 f"timeouts={r.timeouts} retries={r.retries_used} "
                 f"worker_deaths={r.worker_deaths} stalls={r.stalls}"]
        if self.per_worker:
            lines.append("")
            lines.append(f"{'worker':>6} {'runs':>5} {'ok':>4} {'fail':>4} "
                         f"{'tout':>4} {'events':>10} {'wall_s':>8} "
                         f"{'eps(mean)':>10}")
            for wid in sorted(self.per_worker):
                w = self.per_worker[wid]
                label = "serial" if wid == -1 else str(wid)
                lines.append(
                    f"{label:>6} {w['runs']:>5} {w['ok']:>4} "
                    f"{w['failed']:>4} {w['timeout']:>4} "
                    f"{w['events']:>10,} {w['wall_seconds']:>8.2f} "
                    f"{w['eps']['mean']:>10,.0f}")
        if self.per_point:
            lines.append("")
            lines.append(f"{'point':>5} {'runs':>5} {'ok':>4} "
                         f"{'wall_s':>8} {'eps(mean)':>10}  label")
            for point in sorted(self.per_point):
                p = self.per_point[point]
                lines.append(
                    f"{point:>5} {p['runs']:>5} {p['ok']:>4} "
                    f"{p['wall_seconds']:>8.2f} {p['eps']['mean']:>10,.0f}"
                    f"  {p['label']}")
        if self.slowest:
            lines.append("")
            lines.append("slowest runs:")
            for s in self.slowest:
                lines.append(
                    f"  run {s['index']} ({s['scenario']} point {s['point']}"
                    f" rep {s['replication']}): {s['wall_seconds']:.3f}s "
                    f"[{s['status']}] worker {s['worker']}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CampaignTelemetry workers={len(self.per_worker)} "
                f"points={len(self.per_point)} events={self.events:,}>")


def aggregate_telemetry(result: Any) -> CampaignTelemetry:
    """Build a :class:`CampaignTelemetry` from a campaign result's final
    run records."""
    agg = CampaignTelemetry(result)
    records = result.records
    worker_rates: dict[int, list[float]] = {}
    point_rates: dict[int, list[float]] = {}
    for rec in records:
        tele = rec.telemetry or {}
        events = int(tele.get("events", 0))
        eps = float(tele.get("events_per_sec", 0.0))
        agg.events += events

        w = agg.per_worker.setdefault(
            rec.worker, {"runs": 0, "ok": 0, "failed": 0, "timeout": 0,
                         "events": 0, "wall_seconds": 0.0})
        w["runs"] += 1
        w[rec.status if rec.status in ("ok", "failed", "timeout")
          else "failed"] += 1
        w["events"] += events
        w["wall_seconds"] += rec.wall_seconds
        if eps > 0:
            worker_rates.setdefault(rec.worker, []).append(eps)

        p = agg.per_point.setdefault(
            rec.point, {"runs": 0, "ok": 0, "events": 0, "wall_seconds": 0.0,
                        "label": describe_params(rec.params)})
        p["runs"] += 1
        p["ok"] += 1 if rec.status == "ok" else 0
        p["events"] += events
        p["wall_seconds"] += rec.wall_seconds
        if eps > 0:
            point_rates.setdefault(rec.point, []).append(eps)

        if rec.obs_metrics:
            agg.metrics.merge(rec.obs_metrics)

    for wid, w in agg.per_worker.items():
        w["eps"] = _rate_stats(worker_rates.get(wid, []))
    for point, p in agg.per_point.items():
        p["eps"] = _rate_stats(point_rates.get(point, []))
    ranked = sorted(records, key=lambda r: -r.wall_seconds)[:SLOWEST_RUNS]
    agg.slowest = [{"index": r.index, "scenario": r.scenario,
                    "point": r.point, "replication": r.replication,
                    "wall_seconds": r.wall_seconds, "status": r.status,
                    "worker": r.worker}
                   for r in ranked]
    return agg
