"""The floor: the simplest event loop that does the same work.

A ``heapq`` and a ``while`` loop (the design of SNIPPETS.md Snippet 1)
running the same M/M/1 and the same timer timeline as the ``mm1_station``
and ``timer_storm`` workloads.  ``floor.*_ratio`` is repro's wall time over
this loop's: the overhead of everything the kernel adds over the simplest
possible design.  Each function returns what its check needs (W and
utilisation, fired count) so the floor cannot be faster by being wrong.

Heap entries are plain ``(time, seq, kind)`` tuples, not ``__slots__``
objects: with a Python-level ``__lt__`` the object version ran the timer
timeline 1.5-2.7x slower than tuples and *slower than repro's ladder
queue*, so it was not a floor.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from time import perf_counter

ARRIVAL, DEPARTURE = 0, 1


def floor_mm1(lam: float, mu: float, n_jobs: int, warmup: int,
              seed: int) -> dict:
    """Event-oriented M/M/1, FIFO; W over the jobs after *warmup*."""
    arrivals = random.Random(seed).expovariate
    services = random.Random(seed + 1).expovariate
    t0 = perf_counter()
    fel = [(arrivals(lam), 0, ARRIVAL)]
    seq = arrived = completed = head = 0
    waiting: list[float] = []          # arrival times, FIFO
    busy = False
    busy_since = busy_time = w_sum = now = 0.0
    while fel:
        now, _, kind = heappop(fel)
        if kind == ARRIVAL:
            arrived += 1
            waiting.append(now)
            if arrived < n_jobs:
                seq += 1
                heappush(fel, (now + arrivals(lam), seq, ARRIVAL))
        else:
            if completed >= warmup:
                w_sum += now - waiting[head]
            completed += 1
            head += 1
            busy = False
            busy_time += now - busy_since
        if not busy and head < len(waiting):
            busy = True
            busy_since = now
            seq += 1
            heappush(fel, (now + services(mu), seq, DEPARTURE))
    return {"wall_s": perf_counter() - t0, "completed": completed,
            "W": w_sum / max(completed - warmup, 1),
            "utilization": busy_time / now if now > 0 else 0.0}


def floor_timers(times: list[float], handler_seed: int, p: float,
                 max_delay: float) -> dict:
    """Pre-schedule one timer per entry of *times*; each firing draws once
    and, with probability *p*, re-arms itself after a second draw — the
    same draws in the same order as the ``timer_storm`` handler."""
    rnd = random.Random(handler_seed).random
    fel = [(t, i) for i, t in enumerate(times)]
    heapify(fel)
    seq = len(fel)
    fired = 0
    t0 = perf_counter()
    while fel:
        now, _ = heappop(fel)
        fired += 1
        if rnd() < p:
            seq += 1
            heappush(fel, (now + rnd() * max_delay, seq))
    return {"wall_s": perf_counter() - t0, "fired": fired}
