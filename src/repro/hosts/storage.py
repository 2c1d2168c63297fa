"""Storage devices: disks and mass storage (tape).

Taxonomy *host characteristics* names "the types of data storage facilities"
as a classification point; MONARC's regional centres combine disk farms
with tape-backed mass storage, and OptorSim's replication strategies turn
on the question of *which file to evict from a full disk*.

:class:`Disk`
    Finite capacity, distinct read/write rates, one I/O channel (transfers
    serialize), named-file inventory with pluggable eviction support.
:class:`MassStorage`
    Tape-like: large, slow, plus a per-access mount latency.
"""

from __future__ import annotations

from typing import Optional

from ..core.engine import Simulator
from ..core.errors import CapacityError, ConfigurationError
from ..core.monitor import Monitor
from ..core.process import Waitable
from ..core.resources import Resource
from ..network.transfer import FileSpec

__all__ = ["Disk", "MassStorage"]


class _IoTicket(Waitable):
    """Completes when the device finishes moving the file's bytes."""

    def __init__(self, file: FileSpec, op: str, requested: float) -> None:
        self.file = file
        self.op = op
        self.requested = requested
        self.finished: Optional[float] = None

    @property
    def duration(self) -> float:
        """Queueing plus transfer time (NaN while pending)."""
        return (self.finished - self.requested) if self.finished is not None else float("nan")


class Disk:
    """A finite disk with serialized I/O and a named-file inventory.

    ``read``/``write`` return waitables timed at ``size / rate`` behind one
    I/O channel (a capacity-1 :class:`Resource`), so concurrent accesses
    queue — the contention MONARC's database servers model.
    """

    def __init__(self, sim: Simulator, capacity: float,
                 read_rate: float = 100e6, write_rate: float = 80e6,
                 name: str = "disk", access_latency: float = 0.0) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        if read_rate <= 0 or write_rate <= 0:
            raise ConfigurationError("read/write rates must be > 0")
        if access_latency < 0:
            raise ConfigurationError("access latency must be >= 0")
        self.sim = sim
        self.capacity = float(capacity)
        self.read_rate = float(read_rate)
        self.write_rate = float(write_rate)
        self.access_latency = float(access_latency)
        self.name = name
        self._files: dict[str, FileSpec] = {}
        self._last_access: dict[str, float] = {}
        self._access_count: dict[str, int] = {}
        self._used = 0.0
        self._channel = Resource(sim, capacity=1, name=f"{name}-io")
        self.monitor = Monitor(name)

    # -- inventory ----------------------------------------------------------------

    @property
    def used(self) -> float:
        """Bytes currently stored."""
        return self._used

    @property
    def free(self) -> float:
        """Remaining capacity in bytes."""
        return self.capacity - self._used

    @property
    def files(self) -> list[FileSpec]:
        """All stored :class:`FileSpec` records."""
        return list(self._files.values())

    def has(self, name: str) -> bool:
        """True when the named file is on disk."""
        return name in self._files

    def get(self, name: str) -> Optional[FileSpec]:
        """The stored :class:`FileSpec`, or None."""
        return self._files.get(name)

    def store(self, file: FileSpec) -> None:
        """Register *file* on disk (bookkeeping only — no I/O time).

        Raises :class:`CapacityError` when it does not fit; callers wanting
        eviction use :meth:`evict_lru` / :meth:`evict_lfu` first.
        """
        if file.name in self._files:
            return  # idempotent: same logical file
        if file.size > self.free:
            raise CapacityError(
                f"{self.name}: {file.name} ({file.size:.3g}B) exceeds free "
                f"space ({self.free:.3g}B)")
        self._files[file.name] = file
        self._used += file.size
        self._last_access[file.name] = self.sim.now
        self._access_count[file.name] = 0

    def delete(self, name: str) -> bool:
        """Remove a file; returns False when absent."""
        f = self._files.pop(name, None)
        if f is None:
            return False
        self._used -= f.size
        self._last_access.pop(name, None)
        self._access_count.pop(name, None)
        return True

    def touch(self, name: str) -> None:
        """Record an access (drives LRU/LFU eviction order)."""
        if name in self._files:
            self._last_access[name] = self.sim.now
            self._access_count[name] = self._access_count.get(name, 0) + 1

    def access_count(self, name: str) -> int:
        """Recorded accesses of a file (drives LFU)."""
        return self._access_count.get(name, 0)

    def evict_lru(self) -> Optional[FileSpec]:
        """Delete and return the least-recently-used file (None if empty)."""
        if not self._files:
            return None
        victim = min(self._last_access, key=lambda n: (self._last_access[n], n))
        f = self._files[victim]
        self.delete(victim)
        return f

    def evict_lfu(self) -> Optional[FileSpec]:
        """Delete and return the least-frequently-used file (None if empty)."""
        if not self._files:
            return None
        victim = min(self._access_count,
                     key=lambda n: (self._access_count[n], self._last_access[n], n))
        f = self._files[victim]
        self.delete(victim)
        return f

    def make_room(self, nbytes: float, policy: str = "lru") -> list[FileSpec]:
        """Evict files (by *policy*) until *nbytes* fit; returns the victims.

        Raises :class:`CapacityError` if the disk is too small outright.
        """
        if nbytes > self.capacity:
            raise CapacityError(
                f"{self.name}: {nbytes:.3g}B can never fit capacity "
                f"{self.capacity:.3g}B")
        evicted = []
        while self.free < nbytes:
            victim = self.evict_lru() if policy == "lru" else self.evict_lfu()
            assert victim is not None  # free < nbytes <= capacity => files exist
            evicted.append(victim)
        return evicted

    # -- timed I/O ------------------------------------------------------------------

    def read(self, name: str) -> _IoTicket:
        """Timed read of a stored file; completes after queue + transfer."""
        f = self._files.get(name)
        if f is None:
            raise ConfigurationError(f"{self.name}: no such file {name!r}")
        self.touch(name)
        return self._io(f, "read", self.read_rate)

    def write(self, file: FileSpec, evict_policy: str | None = None) -> _IoTicket:
        """Timed write; optionally evicts (*evict_policy*) to make room."""
        if not self.has(file.name):
            if evict_policy is not None:
                self.make_room(file.size, evict_policy)
            self.store(file)
        return self._io(file, "write", self.write_rate)

    def _io(self, file: FileSpec, op: str, rate: float) -> _IoTicket:
        ticket = _IoTicket(file, op, self.sim.now)

        def on_grant(req) -> None:
            duration = self.access_latency + file.size / rate

            def done() -> None:
                self._channel.release(req)
                ticket.finished = self.sim.now
                self.monitor.tally(f"{op}_time").record(ticket.duration)
                ticket._complete(ticket)

            self.sim.schedule(duration, done, label=f"{op}:{self.name}")

        self._channel.request(on_grant=on_grant)
        return ticket

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Disk {self.name!r} {self._used:.3g}/{self.capacity:.3g}B "
                f"files={len(self._files)}>")


class MassStorage(Disk):
    """Tape-like mass storage: huge, slow, with per-access mount latency."""

    def __init__(self, sim: Simulator, capacity: float = 1e15,
                 read_rate: float = 30e6, write_rate: float = 30e6,
                 mount_latency: float = 30.0, name: str = "tape") -> None:
        super().__init__(sim, capacity, read_rate, write_rate, name=name,
                         access_latency=mount_latency)
