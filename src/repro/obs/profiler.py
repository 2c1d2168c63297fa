"""Handler profiling — where the kernel's wall time actually goes.

The ROADMAP's "fast as the hardware allows" goal is unverifiable without a
profile; this module aggregates per-callback wall time (``perf_counter_ns``
around each firing) and firing counts, keyed by the callback's
``module.qualname`` — so ten thousand ``Process._step`` firings collapse
into one row, exactly the granularity a hot-spot hunt needs.  Anonymous
callables are the exception: each lambda keys on its definition site
(``mod.<lambda>@file.py:42``, see :func:`~repro.obs.spans.callback_name`),
so distinct lambdas never melt into one unattributable ``<lambda>`` row.

Aggregation is O(1) per firing: one dict lookup finds the row (a memo keyed
by the callable's ``id()`` that holds a weak reference to it, so a callable
reusing a freed one's address is not mistaken for it) plus four updates.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Any
from weakref import ref

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
        #: memo: id(callable) -> (weak reference to it, its row)
        self._memo: dict[int, tuple[Any, HandlerStats]] = {}

    def add(self, fn: Any, dur_ns: int) -> None:
        """Record one firing of *fn* that took *dur_ns* wall nanoseconds."""
        # Bound methods are created fresh per scheduling, so memo on the
        # underlying function when there is one (same display key).
        func = getattr(fn, "__func__", fn)
        hit = self._memo.get(id(func))
        if hit is not None and hit[0]() is func:
            stats = hit[1]
        else:
            key = callback_name(fn)
            stats = self._stats.setdefault(key, HandlerStats(key))
            with suppress(TypeError):  # not weakly referenceable: no memo
                self._memo[id(func)] = (ref(func), stats)
        stats.add(dur_ns)

    @property
    def total_ns(self) -> int:
        """Wall nanoseconds profiled, over every handler."""
        return sum(s.total_ns for s in self._stats.values())

    # -- reductions ----------------------------------------------------------

    def rows(self) -> list[HandlerStats]:
        """All aggregates, hottest (most total wall time) first."""
        return sorted(self._stats.values(),
                      key=lambda s: (-s.total_ns, s.key))

    def __len__(self) -> int:
        return len(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HandlerProfiler handlers={len(self._stats)} "
                f"total={self.total_ns / 1e6:.3f}ms>")
