"""Output statistics collection — tallies, time-weighted series, summaries.

The taxonomy's *visual output analyzer* axis observes that "generally a
simulation generates huge amounts of data" that is "difficult to be analyzed
using a pure text format".  This module is the headless equivalent: it
collects the numbers every surveyed simulator reports (utilization, queue
lengths, response times), reduces them with sound statistics (time-weighted
means, batch means, Student-t confidence intervals), and renders them as
quick ASCII plots.

Three collector kinds
---------------------
:class:`Tally`
    Observation-based statistic (one value per completed job, transfer...).
:class:`TimeWeighted`
    Level statistic integrated over time (queue length, number in service);
    the mean is ∫level·dt / T, *not* the mean of recorded points.
:class:`Counter`
    Monotone event counts with rate reporting.

A :class:`Monitor` bundles named collectors for one model and produces their
summary.  All hot-path updates are O(1) appends; numpy reductions run
only at report time, per the optimization guides (vectorize the analysis,
keep the inner loop lean).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .student_t import t_ppf

__all__ = ["Tally", "TimeWeighted", "Counter", "Monitor", "ascii_plot"]


class Tally:
    """Observation-based statistic with optional raw-sample retention.

    Moments use Welford's online algorithm, which stays accurate where the
    textbook sum-of-squares formula cancels catastrophically (large means,
    small variances — exactly what simulation response times look like).
    """

    def __init__(self, name: str, keep_samples: bool = True) -> None:
        self.name = name
        self.keep_samples = keep_samples
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0  # sum of squared deviations from the running mean
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._samples: list[float] = []

    def record(self, value: float) -> None:
        """Add one observation."""
        v = float(value)
        self._n += 1
        self._sum += v
        delta = v - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (v - self._mean)
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if self.keep_samples:
            self._samples.append(v)

    # -- reductions ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (Welford)."""
        if self._n < 2:
            return math.nan
        return max(0.0, self._m2 / (self._n - 1))

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation (NaN when empty)."""
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation (NaN when empty)."""
        return self._max if self._n else math.nan

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Student-t CI half-width around the mean: (mean, halfwidth)."""
        if not 0 < level < 1:
            raise ConfigurationError(f"CI level must be in (0, 1), got {level}")
        if self._n < 2:
            return (self.mean, math.inf)
        t = t_ppf(0.5 + level / 2.0, self._n - 1)
        return (self.mean, t * self.std / math.sqrt(self._n))

    def batch_means(self, nbatches: int = 10) -> tuple[float, float]:
        """Batch-means CI (mean, halfwidth) — the standard cure for the
        autocorrelation in steady-state simulation output."""
        if not self.keep_samples:
            raise ConfigurationError(f"tally {self.name!r} does not retain samples")
        if self._n < 2 * nbatches:
            return self.confidence_interval()
        arr = np.asarray(self._samples)
        usable = (len(arr) // nbatches) * nbatches
        means = arr[:usable].reshape(nbatches, -1).mean(axis=1)
        t = t_ppf(0.975, nbatches - 1)
        half = t * means.std(ddof=1) / math.sqrt(nbatches)
        return (float(means.mean()), float(half))

    @property
    def samples(self) -> np.ndarray:
        """Retained raw observations as an array (empty if not retained)."""
        return np.asarray(self._samples, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tally {self.name!r} n={self._n} mean={self.mean:.4g}>"


class TimeWeighted:
    """Level statistic integrated over simulation time.

    ``set(t, level)`` records a level change at time *t*; the time-average
    up to *t_end* weights each level by how long it persisted.  The classic
    use is L (number in system) for Little's-law checks.
    """

    def __init__(self, name: str, initial: float = 0.0, start_time: float = 0.0,
                 keep_series: bool = False) -> None:
        self.name = name
        self.keep_series = keep_series
        self._level = float(initial)
        self._last_t = float(start_time)
        self._start_t = float(start_time)
        self._area = 0.0
        self._areasq = 0.0
        self._min = float(initial)
        self._max = float(initial)
        self._series: list[tuple[float, float]] = [(start_time, initial)] if keep_series else []

    def set(self, t: float, level: float) -> None:
        """Record that the level becomes *level* at time *t*."""
        t = float(t)
        last = self._last_t
        if t != last:  # at the same instant the area gains level * 0
            if t < last:
                raise ConfigurationError(
                    f"time-weighted stat {self.name!r}: time went backwards "
                    f"({t} < {last})"
                )
            dt = t - last
            old = self._level
            self._area += old * dt
            self._areasq += old * old * dt
            self._last_t = t
        self._level = level = float(level)
        if level < self._min:
            self._min = level
        if level > self._max:
            self._max = level
        if self.keep_series:
            self._series.append((t, level))

    def add(self, t: float, delta: float) -> None:
        """Increment the level by *delta* at time *t*."""
        self.set(t, self._level + delta)

    @property
    def level(self) -> float:
        """Current level."""
        return self._level

    def mean(self, t_end: float | None = None) -> float:
        """Time-average level over [start, t_end] (default: last update)."""
        t = self._last_t if t_end is None else float(t_end)
        span = t - self._start_t
        if span <= 0:
            return self._level
        area = self._area + self._level * (t - self._last_t)
        return area / span

    def variance(self, t_end: float | None = None) -> float:
        """Time-weighted variance of the level."""
        t = self._last_t if t_end is None else float(t_end)
        span = t - self._start_t
        if span <= 0:
            return 0.0
        area = self._area + self._level * (t - self._last_t)
        areasq = self._areasq + self._level ** 2 * (t - self._last_t)
        m = area / span
        return max(0.0, areasq / span - m * m)

    @property
    def minimum(self) -> float:
        """Lowest level ever held."""
        return self._min

    @property
    def maximum(self) -> float:
        """Highest level ever held."""
        return self._max

    @property
    def series(self) -> list[tuple[float, float]]:
        """(time, level) step series; empty unless ``keep_series=True``."""
        return list(self._series)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeWeighted {self.name!r} level={self._level:.4g} mean={self.mean():.4g}>"


class Counter:
    """Monotone event counter with rate reporting."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._first_t: float | None = None
        self._last_t: float | None = None

    def increment(self, t: float, by: int = 1) -> None:
        """Count *by* events at time *t* (by must be >= 0)."""
        if by < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease")
        self._count += by
        if self._first_t is None:
            self._first_t = float(t)
        self._last_t = float(t)

    @property
    def count(self) -> int:
        """Total events counted."""
        return self._count

    def rate(self, t_end: float | None = None) -> float:
        """Events per unit time over the observed span."""
        if self._first_t is None:
            return 0.0
        end = self._last_t if t_end is None else float(t_end)
        span = end - self._first_t
        return self._count / span if span > 0 else math.inf

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name!r} n={self._count}>"


class Monitor:
    """Named bundle of collectors for one simulation model.

    Collectors are created on first use, so models write
    ``monitor.tally("response_time").record(w)`` without registration
    boilerplate.
    """

    def __init__(self, name: str = "monitor") -> None:
        self.name = name
        self._tallies: dict[str, Tally] = {}
        self._levels: dict[str, TimeWeighted] = {}
        self._counters: dict[str, Counter] = {}

    def tally(self, name: str, keep_samples: bool = True) -> Tally:
        """Get-or-create the named observation tally."""
        t = self._tallies.get(name)
        if t is None:
            t = Tally(name, keep_samples=keep_samples)
            self._tallies[name] = t
        return t

    def level(self, name: str, initial: float = 0.0, start_time: float = 0.0,
              keep_series: bool = False) -> TimeWeighted:
        """Get-or-create the named time-weighted level."""
        lv = self._levels.get(name)
        if lv is None:
            lv = TimeWeighted(name, initial=initial, start_time=start_time,
                              keep_series=keep_series)
            self._levels[name] = lv
        return lv

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        return c

    @property
    def levels(self) -> dict[str, TimeWeighted]:
        """Shallow copy of the level map."""
        return dict(self._levels)

    # -- reporting -----------------------------------------------------------

    def summary(self, t_end: float | None = None) -> dict[str, dict[str, float]]:
        """Flat dict-of-dicts summary, JSON/CSV-friendly.

        Values are coerced to builtin ``int``/``float`` (never numpy scalars
        or live collector references), so a summary survives
        ``pickle``/``json`` round-trips across process boundaries — campaign
        workers ship these dicts back over the result queue.
        """
        out: dict[str, dict[str, float]] = {}
        for name, t in sorted(self._tallies.items()):
            out[f"tally.{name}"] = {
                "n": int(t.count), "mean": float(t.mean), "std": float(t.std),
                "min": float(t.minimum), "max": float(t.maximum),
            }
        for name, lv in sorted(self._levels.items()):
            out[f"level.{name}"] = {
                "mean": float(lv.mean(t_end)), "min": float(lv.minimum),
                "max": float(lv.maximum), "final": float(lv.level),
            }
        for name, c in sorted(self._counters.items()):
            out[f"counter.{name}"] = {"n": int(c.count),
                                      "rate": float(c.rate(t_end))}
        return out


def ascii_plot(xs: Iterable[float], ys: Iterable[float], width: int = 60,
               height: int = 15, label: str = "") -> str:
    """Minimal ASCII scatter/line plot for terminal-only environments.

    A stand-in for the *visual output analyzer* taxonomy axis: good enough
    to eyeball backlog growth or makespan curves in CI logs.
    """
    x = np.asarray(list(xs), dtype=float)
    y = np.asarray(list(ys), dtype=float)
    if x.size == 0 or x.size != y.size:
        return "(no data)"
    grid = [[" "] * width for _ in range(height)]
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    for xi, yi in zip(x, y):
        c = min(width - 1, int((xi - x0) / xspan * (width - 1)))
        r = min(height - 1, int((yi - y0) / yspan * (height - 1)))
        grid[height - 1 - r][c] = "*"
    lines = ["".join(row) for row in grid]
    header = f"{label}  [y: {y0:.4g}..{y1:.4g}]  [x: {x0:.4g}..{x1:.4g}]"
    return header + "\n" + "\n".join(lines)
