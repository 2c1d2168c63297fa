"""Data replication strategies: pull (OptorSim), push (ChicagoSim), agent (MONARC).

The paper contrasts three replication philosophies among the surveyed
simulators:

* OptorSim investigates "the stability and transient behavior of replication
  optimization methods" with **pull** strategies — a site decides, at the
  moment it fetches a remote file, whether to keep a local replica and what
  to evict;
* ChicagoSim "allows for data replication but with a **push** model in
  which, when a site contains a popular data file, it will replicate it to
  remote sites";
* MONARC's LHC study showed "the role of using a **data replication agent**
  for the intelligent transferring of the produced data" from T0 to the T1
  centres.

None of them touches a disk: every replica is placed by
:meth:`ReplicaCatalog.land <repro.middleware.catalog.ReplicaCatalog.land>`,
which evicts by the strategy's ranking but never a file's *last* copy (the
data-loss guard OptorSim's economics implicitly rely on), and the catalog
reads the disks, so what it reports is what is stored — by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..hosts.site import Grid
from ..network.transfer import FileSpec
from .catalog import ReplicaCatalog

__all__ = [
    "ReplicationStrategy",
    "NoReplication",
    "LruReplication",
    "LfuReplication",
    "EconomicReplication",
    "PushReplication",
    "DataReplicationAgent",
]

#: Times the agent re-ships one file to one target after a failed transfer
#: before it gives the copy up, so a permanent outage ends the run.  At the
#: default ``retry_delay`` that rides out an outage of at least 500 s.
MAX_RESHIPS = 100


class ReplicationStrategy:
    """Base class: hooks the job runners call.

    ``on_access``  — every logical input read (hit or miss) at a site.
    ``on_fetch``   — a remote fetch just completed ``src -> dst``; the
    strategy decides whether *dst* keeps a replica.
    """

    name = "abstract"

    def __init__(self, sim: Simulator, grid: Grid, catalog: ReplicaCatalog,
                 protected: Iterable[str] = ()) -> None:
        self.sim = sim
        self.grid = grid
        self.catalog = catalog
        self.protected = set(protected)
        self.replicas_created = 0
        self.replicas_evicted = 0

    def on_access(self, fname: str, site: str) -> None:
        """Default: no bookkeeping."""

    def on_fetch(self, file: FileSpec, src: str, dst: str) -> None:
        """Default: do nothing (stream-only)."""

    # -- shared machinery ---------------------------------------------------------

    def _store_replica(self, file: FileSpec, dst: str, key=None) -> bool:
        """Land *file* at *dst* (unless protected), evicting by *key*."""
        evicted = (None if dst in self.protected
                   else self.catalog.land(file, dst, key))
        if evicted is None:
            return False
        self.replicas_evicted += len(evicted)
        self.replicas_created += 1
        return True


class NoReplication(ReplicationStrategy):
    """Stream remote reads; never keep a copy.  The paper's baseline."""

    name = "none"


class LruReplication(ReplicationStrategy):
    """Always replicate; evict the least-recently-used replica."""

    name = "lru"

    def on_fetch(self, file: FileSpec, src: str, dst: str) -> None:
        self._store_replica(file, dst)


class LfuReplication(ReplicationStrategy):
    """Always replicate; evict the least-frequently-used replica."""

    name = "lfu"

    def on_fetch(self, file: FileSpec, src: str, dst: str) -> None:
        disk = self.grid.site(dst).disk
        self._store_replica(
            file, dst,
            key=lambda n: (disk.access_count(n), disk._last_access.get(n, 0.0), n))  # noqa: SLF001


class EconomicReplication(ReplicationStrategy):
    """OptorSim's economic model, simplified: replicate only when the new
    file's predicted value exceeds the victim's.

    Value of a file at a site = number of accesses in the trailing
    ``window`` of simulated time (the binomial-prediction surrogate: recent
    popularity predicts near-future demand).  Eviction of a victim worth
    more than the incoming file is vetoed — which is exactly how the
    economic optimizer stabilizes replica placement where LRU/LFU churn.
    """

    name = "economic"

    def __init__(self, sim: Simulator, grid: Grid, catalog: ReplicaCatalog,
                 protected: Iterable[str] = (), window: float = 500.0) -> None:
        super().__init__(sim, grid, catalog, protected)
        if window <= 0:
            raise ConfigurationError("window must be > 0")
        self.window = float(window)
        self._events: dict[str, deque[tuple[float, str]]] = {}

    def on_access(self, fname: str, site: str) -> None:
        q = self._events.setdefault(site, deque())
        q.append((self.sim.now, fname))
        cutoff = self.sim.now - self.window
        while q and q[0][0] < cutoff:
            q.popleft()

    def value(self, fname: str, site: str) -> int:
        """Accesses to *fname* at *site* within the trailing window."""
        cutoff = self.sim.now - self.window
        return sum(1 for t, n in self._events.get(site, ())
                   if n == fname and t >= cutoff)

    def on_fetch(self, file: FileSpec, src: str, dst: str) -> None:
        new_value = self.value(file.name, dst)

        def key(victim: str):
            v = self.value(victim, dst)
            if v >= new_value and new_value > 0:
                return None  # veto: victim is worth at least as much
            if new_value == 0 and v > 0:
                return None
            return (v, victim)

        self._store_replica(file, dst, key=key)


class PushReplication(ReplicationStrategy):
    """ChicagoSim's push model: popular files propagate from their holder.

    Remote fetches of a file *from* a site are counted; when a file's
    popularity crosses ``threshold``, the holder pushes copies to the
    ``fanout`` sites with compute that do not yet hold it (closest first by
    network cost).  Pushed copies are stored with LRU eviction at the
    receiver.
    """

    name = "push"

    def __init__(self, sim: Simulator, grid: Grid, catalog: ReplicaCatalog,
                 protected: Iterable[str] = (), threshold: int = 3,
                 fanout: int = 2) -> None:
        super().__init__(sim, grid, catalog, protected)
        if threshold < 1 or fanout < 1:
            raise ConfigurationError("threshold and fanout must be >= 1")
        self.threshold = threshold
        self.fanout = fanout
        self._remote_reads: dict[str, int] = {}
        self._pushed: set[str] = set()
        self.pushes = 0

    def on_fetch(self, file: FileSpec, src: str, dst: str) -> None:
        n = self._remote_reads.get(file.name, 0) + 1
        self._remote_reads[file.name] = n
        if n < self.threshold or file.name in self._pushed:
            return
        self._pushed.add(file.name)
        targets = self._push_targets(file)
        for t in targets:
            ticket = self.grid.transfers.fetch(file, src, t)
            ticket._subscribe(lambda tk, f=file, d=t: self._push_arrived(tk, f, d))

    def _push_targets(self, file: FileSpec) -> list[str]:
        holders = self.catalog.locations(file.name)
        candidates = [s.name for s in self.grid.sites.values()
                      if s.machines and s.disk is not None
                      and s.name not in holders]
        if not holders:
            return sorted(candidates)[: self.fanout]
        src = holders[0]
        candidates.sort(key=lambda c: (
            self.catalog.fetch_cost(file.size, src, c), c))
        return candidates[: self.fanout]

    def _push_arrived(self, ticket, file: FileSpec, dst: str) -> None:
        if ticket.failed:
            self._pushed.discard(file.name)  # outage ate the push; allow a redo
        elif self._store_replica(file, dst):
            self.pushes += 1


class DataReplicationAgent:
    """MONARC's agent: streams newly produced data from a source tier down.

    Subscribed to a producer site (T0), the agent batches announced files
    and ships one copy to each target (the T1 centres) as transfer slots
    allow, keeping a bounded number of transfers in flight per target.  The
    Legrand 2005 study's conclusion — that intelligent agent-driven
    transfer smooths the burst load a plain fetch-on-demand pattern creates
    — is reproduced in benchmark E5 by toggling this agent.

    A ship the network aborts is retried ``retry_delay`` later, at most
    :data:`MAX_RESHIPS` times per (file, target); after that the copy is
    counted in ``abandoned`` and never lands.
    """

    def __init__(self, sim: Simulator, grid: Grid, catalog: ReplicaCatalog,
                 source: str, targets: Iterable[str],
                 max_in_flight: int = 4, retry_delay: float = 5.0) -> None:
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        if retry_delay <= 0:
            raise ConfigurationError("retry_delay must be > 0")
        self.retry_delay = retry_delay
        self.sim = sim
        self.grid = grid
        self.catalog = catalog
        self.source = source
        self.targets = sorted(targets)
        if not self.targets:
            raise ConfigurationError("agent needs at least one target")
        self.max_in_flight = max_in_flight
        #: per target, FIFO of ``(file, failed ships so far)``
        self._queues: dict[str, deque[tuple[FileSpec, int]]] = {
            t: deque() for t in self.targets}
        self._in_flight: dict[str, int] = {t: 0 for t in self.targets}
        self.shipped = 0
        self.abandoned = 0

    def announce(self, file: FileSpec) -> None:
        """A new file exists at the source; queue it for every target."""
        for t in self.targets:
            self._queues[t].append((file, 0))
            self._pump(t)

    def backlog(self, target: str) -> int:
        """Files queued (not yet in flight) for one target."""
        return len(self._queues[target])

    @property
    def total_backlog(self) -> int:
        """Queued files summed over all targets."""
        return sum(len(q) for q in self._queues.values())

    def _pump(self, target: str) -> None:
        while self._in_flight[target] < self.max_in_flight and self._queues[target]:
            file, failures = self._queues[target].popleft()
            self._in_flight[target] += 1
            ticket = self.grid.transfers.fetch(file, self.source, target)
            ticket._subscribe(
                lambda tk, f=file, n=failures, tgt=target: self._arrived(tk, f, n, tgt))

    def _arrived(self, ticket, file: FileSpec, failures: int, target: str) -> None:
        self._in_flight[target] -= 1
        if ticket.failed:
            # The route died mid-ship: nothing landed.  Re-queue at the
            # back (or give the copy up) and pump again after a delay — an
            # immediate pump against a still-dead route would spin (a
            # no-route abort fails at the same timestamp).
            if failures < MAX_RESHIPS:
                self._queues[target].append((file, failures + 1))
            else:
                self.abandoned += 1
            self.sim.schedule(self.retry_delay, self._pump, target,
                              label="agent_retry")
            return
        self.catalog.land(file, target)
        self.shipped += 1
        self._pump(target)
