"""What the flow engine is checked against: an oracle and a naive engine.

``oracle_rates`` is the plain dict-based progressive filling ``FlowNetwork``
ran before its solver moved onto per-link state objects and live counts:
``free`` / ``capacity`` / ``crossing`` dicts keyed by link value, an
``unfrozen`` set, and a recount of every link's unfrozen crossers on every
round.  It shares no code with ``repro.network.flow``, so a bookkeeping bug
there cannot hide behind a comparison of the engine with itself.

One deliberate difference from the historical code: flows capped below the
bottleneck share freeze in the order of *flows*, not in the iteration order
of a ``set`` of process-global ids — that order was an accident of process
history, and it decides the subtraction order, hence the last ulp.

Scan order (links in first-seen order, strict ``<``) and subtraction order
are the engine's documented invariant, so agreement is required **bit for
bit**: compare with ``float.hex``.

``NaiveFlowNetwork`` is the whole-engine reference: the formulation the
production engine's component scoping, coalescing and preserved completions
are optimisations of.  ``tests/test_flow_fuzz.py`` and E8
(``benchmarks/bench_flow_sharing.py``) compare completion times and churn
against it.
"""

import math
import os
import random
from unittest import mock

from repro.network.flow import FlowNetwork
from repro.workloads import flowchurn

SHARE_FLOOR_EPS = 1e-12
MIN_SHARE = math.ulp(0.0)


def oracle_rates(flows, efficiency: float) -> dict:
    """``{flow.id: rate}`` for *flows* (objects with ``id``, ``links`` —
    hashable link values with ``bandwidth`` — and ``rate_cap``), filled in
    the order given."""
    flows = {f.id: f for f in flows}
    free, capacity, crossing = {}, {}, {}
    for f in flows.values():
        for link in f.links:
            if link not in free:
                free[link] = capacity[link] = link.bandwidth * efficiency
                crossing[link] = []
            crossing[link].append(f)
    rates = {}
    unfrozen = set(flows)
    for fid, f in flows.items():
        if f.rate_cap <= 0.0:
            rates[fid] = 0.0
            unfrozen.discard(fid)
    while unfrozen:
        best_share, best_link = math.inf, None
        for link, crossers in crossing.items():
            n_live = sum(1 for f in crossers if f.id in unfrozen)
            if n_live == 0:
                continue
            share = free[link] / n_live
            if share < best_share:
                best_share, best_link = share, link
        if best_link is None:
            for fid in unfrozen:
                rates[fid] = flows[fid].rate_cap
            break
        floor = SHARE_FLOOR_EPS * capacity[best_link]
        if best_share < floor or best_share <= 0.0:
            best_share = floor if floor > 0.0 else MIN_SHARE
        capped = [fid for fid in flows
                  if fid in unfrozen and flows[fid].rate_cap < best_share]
        if capped:
            for fid in capped:
                rate = rates[fid] = flows[fid].rate_cap
                unfrozen.discard(fid)
                for link in flows[fid].links:
                    free[link] = max(0.0, free[link] - rate)
            continue
        for f in crossing[best_link]:
            if f.id in unfrozen:
                rates[f.id] = best_share
                unfrozen.discard(f.id)
                for link in f.links:
                    free[link] = max(0.0, free[link] - best_share)
    return rates


class NaiveFlowNetwork(FlowNetwork):
    """Every admit, finish and abort at once recomputes all active flows
    and re-keys every finish time: no coalescing, no component scoping,
    nothing preserved."""

    def _mark_dirty(self, path) -> None:
        flows = self._active.values()
        for f in flows:
            f._eta = math.inf   # never preserved: re-keyed below
        if flows:
            self._apply_rates(flows)


def naive_flow_churn(**params) -> flowchurn.FlowChurnModel:
    """The flow-churn workload over :class:`NaiveFlowNetwork`."""
    with mock.patch.object(flowchurn, "FlowNetwork", NaiveFlowNetwork):
        return flowchurn.FlowChurnModel(**params)


def full_filling(net) -> dict:
    """``{flow.id: rate}`` from the engine's solver run over all active
    flows at once (its scratch output; stored rates are untouched)."""
    flows = net.flows()
    net._solve(flows)
    return {f.id: f._share for f in flows}


def check_every_recompute(net, tag: str = "") -> None:
    """After each recompute of *net*, require its solver's full filling
    over the active flows to equal the oracle's bit for bit, and its stored
    rates to agree with it: exactly for the naive engine, whose every
    recompute is that full filling; within 1e-9 relative for the production
    engine (an epsilon-preserved stale rate, tie-break noise between
    component-local and global filling order)."""
    apply_rates = net._apply_rates
    exact = isinstance(net, NaiveFlowNetwork)

    def checked(flows):
        apply_rates(flows)
        want = oracle_rates(net.flows(), net.efficiency)
        got = full_filling(net)
        assert ({k: v.hex() for k, v in got.items()}
                == {k: v.hex() for k, v in want.items()}), \
            f"{tag}: engine filling {got} != oracle {want}"
        for f in net.flows():
            assert (f.rate.hex() == want[f.id].hex() if exact else
                    math.isclose(f.rate, want[f.id],
                                 rel_tol=1e-9, abs_tol=1e-12)), \
                f"{tag}: flow #{f.id} stores {f.rate!r}, oracle {want[f.id]!r}"
    net._apply_rates = checked


def fuzz_seeds(fixed: list, burst: int = 5) -> list:
    """The repo's fuzz-seed convention: *fixed* by default, one replayed
    seed under ``REPRO_FUZZ_SEED=<n>``, *burst* fresh ones under
    ``REPRO_FUZZ_RANDOM=1`` (a failing seed is in the assertion message)."""
    if os.environ.get("REPRO_FUZZ_SEED"):
        return [int(os.environ["REPRO_FUZZ_SEED"])]
    if os.environ.get("REPRO_FUZZ_RANDOM"):
        return [random.SystemRandom().randrange(2**32) for _ in range(burst)]
    return fixed
