"""Computational economy: GridSim's deadline-and-budget-constrained broker.

The paper's GridSim section: "GridSim focuses on Grid economy, where the
scheduling involves the notions of producers (resource owners), consumers
(end-users) and brokers ... mainly used to study cost-time optimization
algorithms for scheduling task farming applications on heterogeneous Grids,
considering economy based distributed resource management, dealing with
deadline and budget constraints."

This module reproduces Buyya's two DBC strategies:

* **time optimization** — finish as early as possible while total spend
  stays within budget: each gridlet goes to the resource with the earliest
  predicted completion the remaining budget can still afford.
* **cost optimization** — spend as little as possible while finishing by
  the deadline: each gridlet goes to the *cheapest* resource whose
  predicted completion meets the deadline.

Gridlets that cannot be placed within (deadline, budget) fail — the broker
never overspends (tested invariant: ``spent <= budget`` always).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, EconomyError
from ..hosts.site import Grid
from .jobs import Job, JobState

__all__ = ["ResourceOffer", "EconomyBroker"]


@dataclass(frozen=True, slots=True)
class ResourceOffer:
    """A priced resource: running one MI at *site* costs ``price_per_mi``."""

    site: str
    price_per_mi: float

    def __post_init__(self) -> None:
        if self.price_per_mi < 0:
            raise ConfigurationError(
                f"offer for {self.site!r}: price must be >= 0")

    def job_cost(self, length: float) -> float:
        """Price of running *length* MI at this resource."""
        return length * self.price_per_mi


class EconomyBroker:
    """Deadline/budget-constrained task-farm broker.

    Parameters
    ----------
    offers:
        The priced resources (sites must exist in *grid* and have machines).
    deadline:
        Absolute completion deadline for every gridlet.
    budget:
        Total spend allowed across the whole farm.
    strategy:
        ``"time"`` or ``"cost"`` (the two DBC optimizations).
    """

    def __init__(self, sim: Simulator, grid: Grid,
                 offers: Sequence[ResourceOffer], deadline: float,
                 budget: float, strategy: str = "time") -> None:
        if strategy not in ("time", "cost"):
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        if deadline <= 0 or budget < 0:
            raise ConfigurationError("deadline must be > 0 and budget >= 0")
        if not offers:
            raise ConfigurationError("need at least one resource offer")
        seen = set()
        for o in offers:
            if o.site in seen:
                raise ConfigurationError(f"duplicate offer for {o.site!r}")
            seen.add(o.site)
            if not grid.site(o.site).machines:
                raise ConfigurationError(f"offer site {o.site!r} has no machines")
        self.sim = sim
        self.grid = grid
        self.offers = {o.site: o for o in offers}
        self.deadline = float(deadline)
        self.budget = float(budget)
        self.strategy = strategy
        self.spent = 0.0
        self.committed = 0.0
        self.completed: list[Job] = []
        self.failed: list[Job] = []
        #: admitted jobs that finished after the deadline (should be 0)
        self.deadline_misses = 0

    # -- dispatch ---------------------------------------------------------------

    def submit_all(self, jobs: Sequence[Job]) -> None:
        """Schedule each gridlet's dispatch at its submission time."""
        for job in jobs:
            self.sim.schedule_at(max(job.submitted, self.sim.now),
                                 self._dispatch, job, label="econ_dispatch")

    def _affordable(self, job: Job, offer: ResourceOffer) -> bool:
        return self.committed + offer.job_cost(job.length) <= self.budget + 1e-9

    def _feasible(self, job: Job, offer: ResourceOffer) -> bool:
        site = self.grid.site(offer.site)
        return site.estimated_completion(job.length) <= self.deadline + 1e-9

    def _dispatch(self, job: Job) -> None:
        candidates = [o for o in self.offers.values()
                      if self._affordable(job, o) and self._feasible(job, o)]
        if not candidates:
            job.transition(JobState.FAILED, self.sim.now)
            self.failed.append(job)
            return
        if self.strategy == "time":
            offer = min(candidates, key=lambda o: (
                self.grid.site(o.site).estimated_completion(job.length),
                o.price_per_mi, o.site))
        else:
            offer = min(candidates, key=lambda o: (
                o.price_per_mi,
                self.grid.site(o.site).estimated_completion(job.length),
                o.site))
        cost = offer.job_cost(job.length)
        self.committed += cost
        job.site = offer.site
        job.cost = cost
        job.transition(JobState.QUEUED, self.sim.now)
        job.transition(JobState.RUNNING, self.sim.now)
        run = self.grid.site(offer.site).submit(job)
        run._subscribe(lambda _r, j=job: self._done(j))

    def _done(self, job: Job) -> None:
        job.transition(JobState.DONE, self.sim.now)
        self.spent += job.cost
        if self.spent > self.budget + 1e-6:  # pragma: no cover - invariant
            raise EconomyError(
                f"broker overspent: {self.spent} > budget {self.budget}")
        self.completed.append(job)
        if not job.met_deadline:
            self.deadline_misses += 1

    # -- outcome metrics -------------------------------------------------------------

    @property
    def completion_rate(self) -> float:
        """Completed fraction of all dispatched-or-rejected gridlets."""
        total = len(self.completed) + len(self.failed)
        return len(self.completed) / total if total else math.nan

    @property
    def makespan(self) -> float:
        """Completion time of the last finished gridlet."""
        if not self.completed:
            return math.nan
        return max(j.finished for j in self.completed)

    def summary(self) -> dict[str, float]:
        """The experiment row: completion/spend/makespan/misses."""
        return {
            "strategy": self.strategy,
            "completed": len(self.completed),
            "failed": len(self.failed),
            "completion_rate": self.completion_rate,
            "spent": self.spent,
            "budget": self.budget,
            "makespan": self.makespan,
            "deadline_misses": self.deadline_misses,
        }
