"""Correlated fault injector: exponential UP/DOWN cycling over a fault graph.

One renewal process per target component — TTF ~ Exp(mtbf) while up,
TTR ~ Exp(mttr) while down — where a target is typically a *site*, so one
drawn failure takes down the site's machines and access links together
(the correlation Dobre/Pop/Cristea's dependability model calls for).

Determinism contract
--------------------
Every draw comes from child streams spawned off one
:class:`~repro.core.rng.StreamFactory` with stable keys
(``spawn("fault:<component>")`` → streams ``ttf``/``ttr``), so:

* per-target timelines are independent of registration order and of every
  other stream in the run (common random numbers discipline);
* the same root seed reproduces the same outage schedule byte-for-byte,
  which is what lets the campaign runner's serial-vs-parallel
  ``metrics_bytes()`` gate hold under fault churn.

The analytic steady state of each cycle is ``A = mtbf / (mtbf + mttr)``;
campaign replications check the measured availability's confidence
interval against it (``theory_for("dependability", ...)``).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.rng import StreamFactory
from .graph import FaultGraph

__all__ = ["CorrelatedFaultInjector"]


class CorrelatedFaultInjector:
    """Drive fault-graph components through exponential outage cycles.

    Parameters
    ----------
    graph:
        The fault graph whose components are cycled (cascade semantics —
        site targets take their children down with them).
    factory:
        Root stream factory; per-target child universes are spawned off it
        with stable keys, keeping runs byte-reproducible.
    targets:
        Component names to cycle.  Default: the graph's root components
        (sites, plus any host/link not owned by a site).
    mtbf / mttr:
        Mean up / mean down durations.  Either a scalar applied to every
        target or a ``{kind: value}`` mapping (kinds: host, link, site).
    horizon:
        No new failures are injected at or past this time (pending repairs
        still complete), keeping bounded runs bounded.
    """

    def __init__(self, sim: Simulator, graph: FaultGraph,
                 factory: StreamFactory,
                 targets: Iterable[str] | None = None,
                 mtbf: "float | Mapping[str, float]" = 1000.0,
                 mttr: "float | Mapping[str, float]" = 50.0,
                 horizon: float = math.inf) -> None:
        self.sim = sim
        self.graph = graph
        self.horizon = horizon
        if targets is None:
            names = [c.name for c in graph.roots()]
        else:
            names = [graph.component(t).name for t in targets]
        if not names:
            raise ConfigurationError("fault injector has no targets")
        self.targets = names
        self._mtbf = {t: self._rate_for(mtbf, t, "mtbf") for t in names}
        self._mttr = {t: self._rate_for(mttr, t, "mttr") for t in names}
        self._ttf = {}
        self._ttr = {}
        self.crashes = 0
        for name in names:
            child = factory.spawn(f"fault:{name}")
            self._ttf[name] = child.stream("ttf")
            self._ttr[name] = child.stream("ttr")
            self._arm(name)

    def _rate_for(self, value, target: str, what: str) -> float:
        if isinstance(value, Mapping):
            kind = self.graph.component(target).kind
            if kind not in value:
                raise ConfigurationError(
                    f"{what} mapping has no entry for kind {kind!r} "
                    f"(target {target!r})")
            value = value[kind]
        v = float(value)
        if v <= 0:
            raise ConfigurationError(f"{what} must be > 0, got {v}")
        return v

    # -- the renewal cycle ---------------------------------------------------

    def _arm(self, name: str) -> None:
        ttf = self._ttf[name].exponential(self._mtbf[name])
        if self.sim.now + ttf < self.horizon:
            self.sim.schedule(ttf, self._crash, name,
                              label=f"fault_crash:{name}")

    def _crash(self, name: str) -> None:
        if self.graph.is_down(name):
            # Held down by someone else (an external fail(), a cascaded
            # site outage): never stack a second outage cycle — whoever
            # opened the fault owns its repair — but keep this target's
            # renewal process alive.
            self._arm(name)
            return
        ttr = self._ttr[name].exponential(self._mttr[name])
        self.graph.fail(name, repair_eta=self.sim.now + ttr)
        self.crashes += 1
        self.sim.schedule(ttr, self._repair, name,
                          label=f"fault_repair:{name}")

    def _repair(self, name: str) -> None:
        self.graph.repair(name)
        self._arm(name)

    # -- reporting -----------------------------------------------------------

    @property
    def availability(self) -> float:
        """Mean availability over the injector's targets."""
        if not self.targets:
            return 1.0
        return sum(self.graph.availability(t)
                   for t in self.targets) / len(self.targets)

    @property
    def mttr_observed(self) -> float:
        """Mean observed repair time across all closed outages."""
        return self.graph.mttr_observed

    def theoretical_availability(self, target: str | None = None) -> float:
        """Steady-state ``mtbf / (mtbf + mttr)`` for one target (or the
        mean over all targets)."""
        names = [target] if target is not None else self.targets
        vals = [self._mtbf[t] / (self._mtbf[t] + self._mttr[t])
                for t in names]
        return sum(vals) / len(vals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CorrelatedFaultInjector targets={len(self.targets)} "
                f"crashes={self.crashes}>")
