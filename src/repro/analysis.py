"""Output analysis: comparing simulation runs (the taxonomy's top UI tier).

The taxonomy's *visual output analyzer* axis distinguishes tools that only
plot from tools offering "analysis of the original output results of the
simulation, with possible comparison between different sets of results,
often from different simulation runs".  This module is that second
category, headless: run-to-run statistical comparison with proper
hypothesis tests, series reduction, and report rendering.

Typical use — is scheduler A really better than scheduler B, or is the
difference seed noise?::

    a = [run("predictive", seed).mean_response_time for seed in range(10)]
    b = [run("random", seed).mean_response_time for seed in range(10)]
    verdict = compare_samples("predictive", a, "random", b)
    print(verdict.render())
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core.errors import ValidationError
from .core.monitor import Monitor, ascii_plot
from .core.student_t import t_sf

__all__ = ["SampleComparison", "compare_samples", "compare_monitors",
           "reduce_series", "welch_t"]


def welch_t(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Welch's unequal-variance t-test; returns (t statistic, p value).
    Two constant groups give ``(nan, nan)`` when equal, else ``(±inf, 0)``."""
    xa, xb = np.asarray(a, float), np.asarray(b, float)
    if len(xa) < 2 or len(xb) < 2:
        raise ValidationError("need >= 2 samples per group for a t-test")
    diff = float(xa.mean() - xb.mean())
    va, vb = float(xa.var(ddof=1)) / len(xa), float(xb.var(ddof=1)) / len(xb)
    if va + vb == 0:
        return ((math.nan, math.nan) if diff == 0
                else (math.copysign(math.inf, diff), 0.0))
    t = diff / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (len(xa) - 1) + vb**2 / (len(xb) - 1))
    return t, 2.0 * t_sf(abs(t), df)  # df: Welch–Satterthwaite


@dataclass(frozen=True)
class SampleComparison:
    """Outcome of one two-sample comparison."""

    name_a: str
    name_b: str
    mean_a: float
    mean_b: float
    diff: float
    rel_diff: float
    t_stat: float
    p_value: float
    significant: bool

    @property
    def winner(self) -> str:
        """The smaller-mean side when significant, else 'tie'."""
        if not self.significant:
            return "tie"
        return self.name_a if self.mean_a < self.mean_b else self.name_b

    def render(self) -> str:
        """One-line human-readable verdict."""
        verdict = (f"{self.winner} is lower (p={self.p_value:.4f})"
                   if self.significant else
                   f"no significant difference (p={self.p_value:.4f})")
        return (f"{self.name_a}: {self.mean_a:.6g}  vs  "
                f"{self.name_b}: {self.mean_b:.6g}  "
                f"(Δ={self.diff:+.6g}, {self.rel_diff:+.2%}) — {verdict}")


def compare_samples(name_a: str, a: Sequence[float], name_b: str,
                    b: Sequence[float], alpha: float = 0.05) -> SampleComparison:
    """Welch-test two replication sets (e.g. per-seed means of two policies)."""
    if not 0 < alpha < 1:
        raise ValidationError("alpha must be in (0,1)")
    t, p = welch_t(a, b)
    ma, mb = float(np.mean(a)), float(np.mean(b))
    base = abs(mb) if mb else (abs(ma) or 1.0)
    return SampleComparison(name_a, name_b, ma, mb, ma - mb,
                            (ma - mb) / base, t, p, p < alpha)


def compare_monitors(a: Monitor, b: Monitor,
                     label_a: str = "A", label_b: str = "B") -> list[str]:
    """Line-by-line comparison of two monitors' shared collectors.

    Returns rendered lines — one per tally/level/counter present in both —
    with the relative change from *a* to *b*.  Collectors present in only
    one monitor are listed as such (a model change, worth noticing).
    """
    lines = [f"monitor comparison: {label_a} vs {label_b}"]
    sa, sb = a.summary(), b.summary()
    for key in sorted(set(sa) | set(sb)):
        if key not in sa:
            lines.append(f"  {key:<36} only in {label_b}")
            continue
        if key not in sb:
            lines.append(f"  {key:<36} only in {label_a}")
            continue
        for stat in sa[key]:
            va = sa[key][stat]
            vb = sb[key].get(stat, math.nan)
            if isinstance(va, float) and isinstance(vb, float) \
                    and not (math.isnan(va) or math.isnan(vb)):
                rel = (vb - va) / abs(va) if va else math.inf
                rel_s = f"{rel:+.1%}" if math.isfinite(rel) else "n/a"
                lines.append(f"  {key + '.' + stat:<36} "
                             f"{va:>12.6g} -> {vb:>12.6g}  ({rel_s})")
    return lines


def reduce_series(series: Sequence[tuple[float, float]], buckets: int = 20,
                  ) -> list[tuple[float, float]]:
    """Downsample a (time, value) step series to ~buckets points (bucket means).

    Simulation series can hold millions of points; plots and diffs only
    need the envelope.  Bucket boundaries are uniform in time; empty
    buckets inherit the previous value (step semantics).
    """
    if buckets < 1:
        raise ValidationError("buckets must be >= 1")
    pts = list(series)
    if len(pts) <= buckets:
        return pts
    t0, t1 = pts[0][0], pts[-1][0]
    if t1 <= t0:
        return [pts[-1]]
    width = (t1 - t0) / buckets
    out: list[tuple[float, float]] = []
    acc: list[float] = []
    edge = t0 + width
    last = pts[0][1]
    for t, v in pts:
        while t > edge and len(out) < buckets - 1:
            out.append((edge - width / 2, sum(acc) / len(acc) if acc else last))
            if acc:
                last = acc[-1]
            acc = []
            edge += width
        acc.append(v)
    out.append((t1 - width / 2, sum(acc) / len(acc) if acc else last))
    return out


def plot_series(series: Sequence[tuple[float, float]], label: str = "",
                width: int = 60, height: int = 15) -> str:
    """ASCII plot of a (time, value) series, downsampled to fit."""
    pts = reduce_series(series, buckets=width)
    return ascii_plot([t for t, _ in pts], [v for _, v in pts],
                      width=width, height=height, label=label)
