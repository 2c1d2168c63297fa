"""Metrics registry — labeled counters, gauges, and fixed-bucket histograms.

The single-run facets (tracer/profiler/telemetry) answer "what happened in
*this* run"; fleet-scale operation needs the complementary question — "what
is happening across *all* runs" — answered in a format existing tooling
scrapes.  This module is that layer: a :class:`Registry` of named,
label-partitioned instruments whose state is

* **cheap to update** — an instrument handle is resolved once (at
  ``Observation.attach`` time, never per event) and ``Counter.inc`` is one
  attribute add; :class:`Histogram` defaults to power-of-two buckets so an
  observation is an ``int.bit_length()`` index, no bisect;
* **plain data** — :meth:`Registry.dump` emits builtins only, so a campaign
  worker ships its registry through a pipe and the parent folds it into a
  fleet-wide view with :meth:`Registry.merge`;
* **scrapeable** — :meth:`Registry.prometheus_text` renders the Prometheus
  text exposition format (``# TYPE`` / ``# HELP`` / ``name{label="v"} v``)
  and :meth:`Registry.jsonl` one JSON object per instrument per line.

There is no process-wide registry: whoever wants metrics creates a
:class:`Registry` and passes it (the campaign runner uses one per run, so
per-run dumps stay attributable).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "Registry",
           "POW2_BUCKET_MAX_EXP"]

#: highest power-of-two bucket exponent; values with a longer bit length
#: land in the overflow bucket (index ``POW2_BUCKET_MAX_EXP + 1``).
POW2_BUCKET_MAX_EXP = 62


class Counter:
    """Monotonically increasing count (events fired, retries, timeouts)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (default 1) to the count."""
        self.value += amount

    def _state(self) -> dict:
        return {"value": self.value}

    def _merge(self, state: Mapping[str, Any]) -> None:
        self.value += state["value"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}{dict(self.labels)} {self.value}>"


class Gauge:
    """A value that goes up and down (queue depth, GVT, live workers)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Shift the level by *amount*."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Shift the level by ``-amount``."""
        self.value -= amount

    def _state(self) -> dict:
        return {"value": self.value}

    def _merge(self, state: Mapping[str, Any]) -> None:
        # Gauges are levels, not totals: a merged dump reports the most
        # recent observation (dumps are merged in completion order).
        self.value = state["value"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}{dict(self.labels)} {self.value}>"


class Histogram:
    """Fixed-bucket distribution (handler nanoseconds, rollback depths).

    With the default (``buckets=None``) the bucket edges are the powers of
    two: bucket *i* counts observations whose integer part has bit length
    *i*, i.e. values in ``[2**(i-1), 2**i - 1]`` — so the hot-path cost of
    :meth:`observe` is one ``int.bit_length()`` call, no search.  Explicit
    ``buckets`` (a sorted sequence of inclusive upper bounds) fall back to a
    binary search per observation.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple,
                 buckets: Iterable[float] | None = None) -> None:
        self.name = name
        self.labels = labels
        if buckets is None:
            self.bounds = None  # power-of-two fast path
            self.counts = [0] * (POW2_BUCKET_MAX_EXP + 2)
        else:
            self.bounds = sorted(float(b) for b in buckets)
            self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the distribution."""
        self.count += 1
        self.sum += value
        if self.bounds is None:
            idx = int(value).bit_length() if value > 0 else 0
            if idx > POW2_BUCKET_MAX_EXP:
                idx = POW2_BUCKET_MAX_EXP + 1
            self.counts[idx] += 1
        else:
            self.counts[bisect_left(self.bounds, value)] += 1

    def bucket_bounds(self) -> list[float]:
        """Inclusive upper bound of every non-overflow bucket."""
        if self.bounds is not None:
            return list(self.bounds)
        return [float(2 ** i - 1) for i in range(POW2_BUCKET_MAX_EXP + 1)]

    @property
    def mean(self) -> float:
        """Mean observed value (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def _state(self) -> dict:
        return {"sum": self.sum, "count": self.count,
                "counts": list(self.counts),
                "bounds": None if self.bounds is None else list(self.bounds)}

    def _merge(self, state: Mapping[str, Any]) -> None:
        theirs = state["counts"]
        if len(theirs) != len(self.counts):
            raise ValueError(
                f"histogram {self.name!r}: bucket layouts differ "
                f"({len(self.counts)} vs {len(theirs)})")
        self.sum += state["sum"]
        self.count += state["count"]
        for i, n in enumerate(theirs):
            self.counts[i] += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Histogram {self.name}{dict(self.labels)} "
                f"n={self.count} mean={self.mean:.1f}>")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Registry:
    """A named collection of instruments, partitioned by label sets.

    ``registry.counter("repro_events_fired_total", track="lp0")`` returns
    the one counter for that (name, labels) pair, creating it on first use;
    a second call with the same labels returns the same object — resolve
    once, hold the handle, update it on the hot path.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # -- instrument resolution -----------------------------------------------

    def _get(self, kind: str, name: str, help: str, labels: dict,
             **extra: Any) -> Any:
        key = (name, tuple(sorted(labels.items())))
        inst = self._instruments.get(key)
        if inst is None:
            seen = self._kinds.get(name)
            if seen is not None and seen != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {seen}, "
                    f"cannot re-register as a {kind}")
            self._kinds[name] = kind
            if help:
                self._help[name] = help
            inst = _KINDS[kind](name, key[1], **extra)
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter for (*name*, *labels*), created on first use."""
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """The gauge for (*name*, *labels*), created on first use."""
        return self._get("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] | None = None,
                  **labels: Any) -> Histogram:
        """The histogram for (*name*, *labels*), created on first use."""
        return self._get("histogram", name, help, labels, buckets=buckets)

    # -- introspection -------------------------------------------------------

    def instruments(self) -> list[Any]:
        """Every instrument, sorted by (name, labels) for stable output."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def value(self, name: str, **labels: Any) -> float | None:
        """Scalar value of a counter/gauge, or a histogram's count; None
        when the (name, labels) pair was never registered."""
        inst = self._instruments.get((name, tuple(sorted(labels.items()))))
        if inst is None:
            return None
        return inst.count if inst.kind == "histogram" else inst.value

    def __len__(self) -> int:
        return len(self._instruments)

    def __bool__(self) -> bool:
        return True

    # -- cross-process transport ---------------------------------------------

    def dump(self) -> list[dict]:
        """Plain-builtin snapshot of every instrument (pickle/JSON-safe)."""
        out = []
        for inst in self.instruments():
            entry = {"name": inst.name, "kind": inst.kind,
                     "labels": dict(inst.labels),
                     "help": self._help.get(inst.name, "")}
            entry.update(inst._state())
            out.append(entry)
        return out

    def merge(self, dump: Iterable[Mapping[str, Any]]) -> "Registry":
        """Fold a :meth:`dump` (typically from another process) into this
        registry: counters and histograms add, gauges take the dumped level.
        Chainable."""
        for entry in dump:
            kind = entry["kind"]
            extra = {}
            if kind == "histogram":
                bounds = entry.get("bounds")
                extra["buckets"] = bounds  # None keeps the pow-2 layout
            inst = self._get(kind, entry["name"], entry.get("help", ""),
                             dict(entry["labels"]), **extra)
            inst._merge(entry)
        return self

    # -- exporters -----------------------------------------------------------

    def prometheus_text(self) -> str:
        """The Prometheus text exposition format for every instrument."""
        by_name: dict[str, list] = {}
        for inst in self.instruments():
            by_name.setdefault(inst.name, []).append(inst)
        lines: list[str] = []
        for name in sorted(by_name):
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            for inst in by_name[name]:
                base = dict(inst.labels)
                if inst.kind == "histogram":
                    cum = 0
                    for bound, n in zip(inst.bucket_bounds(), inst.counts):
                        if n == 0 and inst.bounds is None:
                            continue  # elide empty pow-2 buckets (63 of them)
                        cum += n
                        lines.append(_prom_sample(
                            f"{name}_bucket", {**base, "le": _prom_num(bound)},
                            cum))
                    lines.append(_prom_sample(
                        f"{name}_bucket", {**base, "le": "+Inf"}, inst.count))
                    lines.append(_prom_sample(f"{name}_sum", base, inst.sum))
                    lines.append(_prom_sample(f"{name}_count", base,
                                              inst.count))
                else:
                    lines.append(_prom_sample(name, base, inst.value))
        return "\n".join(lines) + ("\n" if lines else "")

    def jsonl(self) -> str:
        """One JSON object per instrument per line (machine-mergeable)."""
        lines = [json.dumps(entry, sort_keys=True) for entry in self.dump()]
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry instruments={len(self._instruments)}>"


def _prom_num(value: float) -> str:
    """Render a number the way Prometheus samples expect (no float noise
    for integral values)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_sample(name: str, labels: Mapping[str, Any], value: float) -> str:
    if labels:
        body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
        return f"{name}{{{body}}} {_prom_num(value)}"
    return f"{name} {_prom_num(value)}"

