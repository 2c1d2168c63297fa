"""What the executors are checked against: the rescanning reference and a
random partitioned model.

``NaiveSequentialExecutor`` is ``SequentialExecutor.run`` as it stood before
the LP heap: every step asks every LP for its next event time, and every
answer walks every undelivered message of every input channel
(``naive_next_event_time``).  Quadratic, obviously right, and it shares no
bookkeeping with the heap of LPs or the channel heaps' head reads — a stale
heap entry or a missed refresh cannot hide behind a comparison of the
executor with itself.  ``naive_take_ready`` is the matching full-scan
``Channel.take_ready``.

``build_random_model`` is the graph the ring is not: 2-9 LPs with 1-3 random
out-channels each, unequal lookaheads, sends with a random ``extra_delay``,
and (on the grid variants) zero-delay draws, so same-instant ties across LPs
and between messages and local events abound.  It is rollback-safe in the
sense of DESIGN.md §5d: everything a handler mutates sits behind
``register_state``.
"""

import math
import random

from repro.core.parallel import (ExecutionStats, LogicalProcess,
                                 _collect_stats, _validate_run)


def naive_next_event_time(lp: LogicalProcess) -> float:
    t = lp.sim.peek_time()
    for ch in lp.inputs.values():
        for _, _, msg in ch.pending:
            t = min(t, msg.recv_time)
    return t


def naive_take_ready(ch, up_to: float) -> list:
    """Full-scan ``take_ready``; the heap pops earliest first, the scan
    returned send order, so the result is sorted the way every consumer
    sorts it before use."""
    ready = [m for _, _, m in ch.pending if m.recv_time <= up_to + 1e-12]
    ch.pending = sorted(e for e in ch.pending if e[0] > up_to + 1e-12)
    return sorted(ready, key=lambda m: m.order_key)


class NaiveSequentialExecutor:
    """The global-scan reference: always run the globally earliest LP next."""

    name = "naive-sequential"

    def run(self, lps, until: float) -> ExecutionStats:
        _validate_run(lps, until)
        steps = 0
        while True:
            best = None
            best_t = math.inf
            for lp in lps:
                t = naive_next_event_time(lp)
                if t < best_t:
                    best_t = t
                    best = lp
            if best is None or best_t > until:
                break
            best.advance(best_t)
            steps += 1
        for lp in lps:
            lp.advance(until)
        return _collect_stats(self.name, lps, steps)


class RandomModel:
    def __init__(self, lps, logs, until):
        self.lps = lps
        self.logs = logs
        self.until = until

    def per_lp(self):
        """``{name: (events_executed_total, sim.now)}``."""
        return {lp.name: (lp.events_executed_total, lp.sim.now)
                for lp in self.lps}


def build_random_model(seed: int) -> RandomModel:
    """Same *seed*, same model — one fresh instance per executor."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    grid = rng.choice([None, 0.25, 0.5, 1.0])
    coarse = rng.random() < 0.5
    lps = [LogicalProcess(f"lp{i}", seed=seed * 31 + i,
                          queue=rng.choice(["heap", "calendar", "splay"]))
           for i in range(n)]
    for i, lp in enumerate(lps):
        others = [j for j in range(n) if j != i]
        for j in rng.sample(others, min(len(others), rng.randint(1, 3))):
            lp.connect(lps[j], rng.choice([0.5, 1.0, 2.0]) if coarse
                       else rng.uniform(0.3, 2.0))
    ticks = rng.randint(5, 25)
    p_send = rng.uniform(0.2, 0.8)
    p_forward = rng.uniform(0.2, 0.7)
    until = math.inf if rng.random() < 0.15 else rng.uniform(8.0, 30.0)
    logs = {}

    def wire(lp: LogicalProcess) -> None:
        draw = lp.sim.stream("fuzz")
        log = logs[lp.name] = []
        #: per out-channel, the last receive time sent: extra_delay is raised
        #: to keep each channel's receive times non-decreasing
        sent = {}
        dsts = sorted(lp.outputs)

        def get_state():
            return list(log), dict(sent)

        def set_state(blob):
            log[:] = blob[0]
            sent.clear()
            sent.update(blob[1])

        lp.register_state(get_state, set_state)

        def delay() -> float:
            if grid is None:
                return draw.exponential(0.7)
            return grid * draw.randint(0, 4)   # 0 is a zero-delay draw

        def send(hops: int) -> None:
            dst = dsts[draw.randint(0, len(dsts) - 1)]
            extra = delay() if draw.uniform() < 0.6 else 0.0
            base = lp.sim.now + lp.outputs[dst].lookahead
            if base + extra < sent.get(dst, 0.0):
                extra = sent[dst] - base
            sent[dst] = lp.send(dst, "m", hops, extra_delay=extra).recv_time

        def tick(k: int) -> None:
            log.append((lp.sim.now, "tick", k))
            if draw.uniform() < p_send:
                send(0)
            if k < ticks:
                lp.sim.schedule(delay(), tick, k + 1)

        def follow_up(hops: int) -> None:
            log.append((lp.sim.now, "follow", hops))

        def on_m(_lp: LogicalProcess, msg) -> None:
            log.append((lp.sim.now, msg.src, msg.payload))
            if msg.payload < 6 and draw.uniform() < p_forward:
                send(msg.payload + 1)
            if draw.uniform() < 0.5:
                lp.sim.schedule(delay(), follow_up, msg.payload)

        lp.on_message("m", on_m)
        lp.sim.schedule(delay(), tick, 1)

    for lp in lps:
        wire(lp)
    return RandomModel(lps, logs, until)
