"""Entity-to-execution-context mapping policies.

Taxonomy axis: "the mapping of the simulation jobs on the underlying threads
or processes.  Reusing threads, using advanced mapping schemes in which
multiple jobs can be simulated running in the same thread context ... can
yield higher simulation performances."

In this kernel there are no OS threads to map onto — a *context* is a Python
generator frame (a :class:`~repro.core.process.Process`) or a bare event
callback.  The policies below execute the *same* logical workload (a stream
of jobs through a ``capacity``-server station) under three mappings:

:class:`DedicatedContextPolicy`
    One process per job — MONARC's thread-per-active-object style.  Maximum
    modeling convenience, maximum context overhead (a generator frame and
    two run-queue resumes per job).
:class:`SharedContextPolicy`
    Zero processes: the whole station is a handful of event callbacks over
    shared state — the classic hand-optimized event-oriented style.
:class:`PooledContextPolicy`
    ``capacity`` long-lived worker processes pull jobs from a
    :class:`~repro.core.resources.Store` — thread-pool reuse.

All three produce **identical job completion times** (asserted in tests —
they model the same FIFO station) and, since only holds are kernel events,
the same kernel-event count; they differ in context switches (run-queue
resumes: spawns and wakes) and allocations — the overhead E6 ablates.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

from .engine import Simulator
from .process import Process
from .resources import Resource, Store

__all__ = [
    "JobSpec",
    "MappingResult",
    "MappingPolicy",
    "DedicatedContextPolicy",
    "SharedContextPolicy",
    "PooledContextPolicy",
    "MAPPING_POLICIES",
]


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One unit of work: arrives at *arrival*, needs *duration* of service."""

    arrival: float
    duration: float
    id: int = 0


@dataclass(slots=True)
class MappingResult:
    """Outcome of running a workload under one mapping policy."""

    policy: str
    completions: dict[int, float] = field(default_factory=dict)
    kernel_events: int = 0
    context_switches: int = 0  #: ``Simulator.resumes_executed``

    @property
    def makespan(self) -> float:
        """Latest completion time across all jobs."""
        return max(self.completions.values()) if self.completions else 0.0


class MappingPolicy(abc.ABC):
    """Executes a job stream through a ``capacity``-server FIFO station."""

    name = "abstract"

    @abc.abstractmethod
    def execute(self, sim: Simulator, jobs: Sequence[JobSpec], capacity: int) -> MappingResult:
        """Run *jobs* to completion on *sim*; returns completion times."""

    def run(self, jobs: Sequence[JobSpec], capacity: int = 1,
            queue: str = "heap") -> MappingResult:
        """Convenience wrapper: fresh simulator, run to quiescence."""
        sim = Simulator(queue=queue)
        result = self.execute(sim, jobs, capacity)
        sim.run()
        result.kernel_events = sim.events_executed
        result.context_switches = sim.resumes_executed
        return result


class DedicatedContextPolicy(MappingPolicy):
    """One generator frame ("thread") per job."""

    name = "dedicated"

    def execute(self, sim: Simulator, jobs: Sequence[JobSpec], capacity: int) -> MappingResult:
        result = MappingResult(self.name)
        station = Resource(sim, capacity=capacity, name="station")

        def job_body(spec: JobSpec):
            req = yield station.request(owner=spec)
            yield spec.duration
            station.release(req)
            result.completions[spec.id] = sim.now

        def launch(spec: JobSpec) -> None:
            Process(sim, job_body, spec, name=f"job-{spec.id}")

        for spec in jobs:
            sim.schedule_at(spec.arrival, launch, spec, label="arrival")
        return result


class SharedContextPolicy(MappingPolicy):
    """All jobs share one callback-driven context (no process objects)."""

    name = "shared"

    def execute(self, sim: Simulator, jobs: Sequence[JobSpec], capacity: int) -> MappingResult:
        result = MappingResult(self.name)
        waiting: list[JobSpec] = []
        busy = [0]  # one-slot mutable cell shared by the closures

        def finish(spec: JobSpec) -> None:
            result.completions[spec.id] = sim.now
            busy[0] -= 1
            if waiting:
                start(waiting.pop(0))

        def start(spec: JobSpec) -> None:
            busy[0] += 1
            sim.schedule(spec.duration, finish, spec, label="service_end")

        def arrive(spec: JobSpec) -> None:
            if busy[0] < capacity:
                start(spec)
            else:
                waiting.append(spec)

        for spec in jobs:
            sim.schedule_at(spec.arrival, arrive, spec, label="arrival")
        return result


class PooledContextPolicy(MappingPolicy):
    """A fixed pool of ``capacity`` worker processes pulls jobs from a store."""

    name = "pooled"

    def execute(self, sim: Simulator, jobs: Sequence[JobSpec], capacity: int) -> MappingResult:
        result = MappingResult(self.name)
        inbox = Store(sim, name="job-queue")
        total = len(jobs)

        def worker():
            # Workers loop forever; once all jobs are done they block on an
            # empty store, which holds no kernel events, so the run drains.
            while True:
                spec = yield inbox.get()
                yield spec.duration
                result.completions[spec.id] = sim.now
                if len(result.completions) >= total:
                    return

        for w in range(capacity):
            Process(sim, worker, name=f"worker-{w}")
        for spec in jobs:
            sim.schedule_at(spec.arrival, inbox.put, spec, label="arrival")
        return result


#: Registry used by benchmarks and the taxonomy classifier.
MAPPING_POLICIES: dict[str, type[MappingPolicy]] = {
    p.name: p for p in (DedicatedContextPolicy, SharedContextPolicy, PooledContextPolicy)
}
