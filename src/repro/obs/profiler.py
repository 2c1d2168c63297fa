"""Handler profiling — where the kernel's wall time actually goes.

The ROADMAP's "fast as the hardware allows" goal is unverifiable without a
profile; this module aggregates per-callback wall time (``perf_counter_ns``
around each firing) and firing counts, keyed by the callback's
``module.qualname`` — so ten thousand ``Process._step`` firings collapse
into one row, exactly the granularity a hot-spot hunt needs.  Anonymous
callables are the exception: each lambda keys on its definition site
(``mod.<lambda>@file.py:42``, see :func:`~repro.obs.spans.callback_name`),
so distinct lambdas never melt into one unattributable ``<lambda>`` row.

Aggregation is O(1) per firing: one dict lookup on the *callback object*
(an identity-keyed memo resolves the display key once per distinct
callable, not once per firing) plus four scalar updates.
"""

from __future__ import annotations

from typing import Any

from .spans import callback_name

__all__ = ["HandlerStats", "HandlerProfiler"]


class HandlerStats:
    """Aggregate wall-time statistics for one handler key."""

    __slots__ = ("key", "count", "total_ns", "max_ns", "min_ns")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0
        self.min_ns: int | None = None

    def add(self, dur_ns: int) -> None:
        """Fold one firing's duration into the aggregate."""
        self.count += 1
        self.total_ns += dur_ns
        if dur_ns > self.max_ns:
            self.max_ns = dur_ns
        if self.min_ns is None or dur_ns < self.min_ns:
            self.min_ns = dur_ns

    @property
    def mean_ns(self) -> float:
        """Mean firing duration in nanoseconds."""
        return self.total_ns / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HandlerStats {self.key!r} n={self.count} total={self.total_ns}ns>"


class HandlerProfiler:
    """Aggregates firing counts and wall time by callback identity."""

    def __init__(self) -> None:
        self._stats: dict[str, HandlerStats] = {}
        #: memo: callable id -> display key (avoids getattr chains per firing)
        self._key_memo: dict[int, str] = {}
        self.total_ns = 0
        self.firings = 0

    def add(self, fn: Any, dur_ns: int) -> None:
        """Record one firing of *fn* that took *dur_ns* wall nanoseconds."""
        memo = self._key_memo
        fid = id(fn)
        key = memo.get(fid)
        if key is None:
            # Bound methods are created fresh per call site in some models,
            # so memo on the underlying function when there is one — its id
            # is stable and the display key identical.
            func = getattr(fn, "__func__", fn)
            fid2 = id(func)
            key = memo.get(fid2)
            if key is None:
                key = callback_name(fn)
                memo[fid2] = key
        stats = self._stats.get(key)
        if stats is None:
            stats = HandlerStats(key)
            self._stats[key] = stats
        stats.add(dur_ns)
        self.total_ns += dur_ns
        self.firings += 1

    # -- reductions ----------------------------------------------------------

    def rows(self) -> list[HandlerStats]:
        """All aggregates, hottest (most total wall time) first."""
        return sorted(self._stats.values(),
                      key=lambda s: (-s.total_ns, s.key))

    def share(self, stats: HandlerStats) -> float:
        """Fraction of all profiled wall time spent in *stats*' handler."""
        return stats.total_ns / self.total_ns if self.total_ns else 0.0

    def __len__(self) -> int:
        return len(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HandlerProfiler handlers={len(self._stats)} "
                f"firings={self.firings} total={self.total_ns / 1e6:.3f}ms>")
