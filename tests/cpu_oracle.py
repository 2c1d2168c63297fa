"""What the time-shared machine is checked against.

``NaiveTimeSharedMachine`` is the settle-everything formulation of the
processor sharing ``TimeSharedMachine`` does in virtual time: every
arrival, departure and capacity change settles each active job's
remaining work at its old rate, then cancels its completion event and
schedules a new one at the new share — O(n) work and O(n) event churn per
change.  It keeps its own per-run ``rate`` / ``_last_update`` and shares
only the ``Machine`` base (ids, tallies, capacity) with
``repro.hosts.cpu``, so ``tests/test_cpu_fuzz.py`` can hold the two to the
same completion times (rel 1e-12) and the same completion order.
"""

import math

from repro.hosts.cpu import JobRun, Machine


class NaiveTimeSharedMachine(Machine):
    """Processor sharing: every job runs at ``min(rating, total/n)`` MIPS,
    rates recomputed and completions rescheduled on every change."""

    kind = "time-shared"

    def __init__(self, sim, pes: int = 1, rating: float = 1000.0,
                 name: str = "time-shared") -> None:
        super().__init__(sim, pes, rating, name)
        self._active: list[JobRun] = []

    def submit(self, job) -> JobRun:
        run = self._new_run(job)
        run.started = self.sim.now  # PS admits immediately
        run.rate = 0.0
        run._last_update = self.sim.now
        self._active.append(run)
        self._busy_level.set(self.sim.now, min(len(self._active), self.pes))
        self._reallocate()
        return run

    @property
    def running(self) -> int:
        return len(self._active)

    @property
    def queued(self) -> int:
        return 0

    def _settle(self, run: JobRun) -> None:
        dt = self.sim.now - run._last_update
        if dt > 0:
            run.remaining = max(0.0, run.remaining - run.rate * dt)
        run._last_update = self.sim.now

    def _reallocate(self) -> None:
        n = len(self._active)
        if n == 0:
            return
        per_pe = self.rating * (1.0 - self._background)
        share = min(per_pe, self.total_mips / n)
        for run in self._active:
            self._settle(run)
            run.rate = share
            if run._completion is not None:
                run._completion.cancel()
            eta = run.remaining / share if share > 0 else math.inf
            run._completion = self.sim.schedule(eta, self._depart, run,
                                                label=f"job_done:{self.name}")

    def _depart(self, run: JobRun) -> None:
        self._settle(run)
        self._active.remove(run)
        self._busy_level.set(self.sim.now, min(len(self._active), self.pes))
        self._finish_run(run)
        self._reallocate()

    def _on_capacity_change(self, fraction: float) -> None:
        super()._on_capacity_change(fraction)
        self._reallocate()
