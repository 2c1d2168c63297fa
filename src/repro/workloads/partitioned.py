"""Partitioned ring workload — the executor-conformance / E7 model.

A K-site grid partitioned one logical process per site: every site runs a
local Poisson job stream and forwards a fraction of completions to its ring
neighbour (cross-LP traffic).  The same model instance drives benchmark E7,
the executor conformance matrix test, and the CLI ``executors`` command, so
every executor — sequential, CMB, synchronous windows, and Time Warp — is
compared on identical work.

The model is **rollback-safe**: all mutable state (the completion log and
the service-time tally) lives in per-LP containers registered through
:meth:`~repro.core.parallel.LogicalProcess.register_state`, so the
optimistic executor can snapshot and restore it.  This is the contract
optimistic execution imposes on models (DESIGN.md §5d); the conservative
executors simply never call the providers.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import ConfigurationError
from ..core.monitor import Tally
from ..core.parallel import LogicalProcess

__all__ = ["PartitionedRing", "build_partitioned_ring"]


class PartitionedRing:
    """The built model: LPs plus deterministic result accessors."""

    def __init__(self, lps: list[LogicalProcess],
                 logs: dict[str, list], tallies: dict[str, Tally]) -> None:
        self.lps = lps
        self._logs = logs
        self._tallies = tallies

    def results(self) -> list[tuple[float, str, int]]:
        """All committed completions, merged in deterministic order."""
        merged: list[tuple[float, str, int]] = []
        for log in self._logs.values():
            merged.extend(log)
        merged.sort()
        return merged

    def monitor_stats(self) -> dict[str, tuple[int, float, float, float]]:
        """Per-site service-time summary: (count, mean, min, max)."""
        out = {}
        for name, t in sorted(self._tallies.items()):
            out[name] = (t.count, round(t.mean, 9) if t.count else 0.0,
                         t.minimum if t.count else 0.0,
                         t.maximum if t.count else 0.0)
        return out


def build_partitioned_ring(k: int = 4, lookahead: float = 1.0,
                           seed: int = 0, jobs_per_site: int = 150,
                           horizon: float = 400.0, forward_every: int = 5,
                           queue: str = "heap") -> PartitionedRing:
    """Build the K-site partitioned ring.

    Parameters mirror benchmark E7: *jobs_per_site* local arrivals per site
    over roughly *horizon* time units, one in *forward_every* completions
    forwarded to the ring neighbour (payload ``jid * 1000``), channel
    *lookahead* bounding the conservative executors' blocking.  *seed*
    perturbs every site's RNG streams so distinct seeds give distinct—but
    per-seed deterministic—trajectories.
    """
    if k < 1:
        raise ConfigurationError(f"the ring needs k >= 1 sites, got {k}")
    if forward_every < 1:
        raise ConfigurationError(
            f"forward_every must be >= 1, got {forward_every}")
    lps = [LogicalProcess(f"site-{i}", seed=seed * 10_007 + i, queue=queue)
           for i in range(k)]
    for i, lp in enumerate(lps):
        lp.connect(lps[(i + 1) % k], lookahead)
    logs: dict[str, list] = {}
    tallies: dict[str, Tally] = {}

    def wire(lp: LogicalProcess, idx: int) -> None:
        arr = lp.sim.stream("arr")
        svc = lp.sim.stream("svc")
        log: list[tuple[float, str, int]] = []
        tally = Tally(f"svc:{lp.name}")
        logs[lp.name] = log
        tallies[lp.name] = tally

        # Snapshot/restore providers: `get` returns fresh copies, `set`
        # rebuilds in place (the handlers close over `log` and `tally`).
        def get_state():
            return (list(log), (tally._n, tally._mean, tally._m2,
                                tally._min, tally._max))

        def set_state(blob):
            entries, moments = blob
            log[:] = entries
            (tally._n, tally._mean, tally._m2,
             tally._min, tally._max) = moments

        lp.register_state(get_state, set_state)

        def complete(jid: int, d: float) -> None:
            log.append((round(lp.sim.now, 9), lp.name, jid))
            tally.record(d)
            if jid % forward_every == 0:
                lp.send(f"site-{(idx + 1) % k}", "job", jid * 1000)

        def arrive(n: int) -> None:
            d = svc.exponential(0.4)
            lp.sim.schedule(d, complete, n, d)
            if n < jobs_per_site:
                lp.sim.schedule(
                    arr.exponential(horizon / jobs_per_site / 2),
                    arrive, n + 1)

        def on_job(lp_: LogicalProcess, msg) -> None:
            d = svc.exponential(0.4)
            lp_.sim.schedule(d, complete, msg.payload, d)

        lp.on_message("job", on_job)
        lp.sim.schedule(0.0, arrive, 1)

    for i, lp in enumerate(lps):
        wire(lp, i)
    return PartitionedRing(lps, logs, tallies)
