"""Regression tests for the ladder drain pathology and the adaptive queue.

Three families:

* **Drain scaling** — the quadratic rung-scan bug made an N-event ladder
  drain cost O(N²/THRESHOLD); these tests pin both the absolute comparison
  against the heap (the E2 acceptance bound) and the *growth rate* between
  two sizes, so the pathology cannot silently return.
* **Ladder bug regressions** — the single-timestamp Top-spill horizon at
  fractional timescales (the post-pop cancel-hook regression is now the
  all-structure ``tests/test_queues.py::TestOneDeleteMin``).
* **AdaptiveQueue** — profile shifts trigger migrations, orderings and
  len/peek survive them, and the counters reach obs telemetry.
"""

import random
from time import perf_counter

from repro.core import Event, Simulator
from repro.core.queues import AdaptiveQueue, LadderQueue, make_queue
from repro.obs import Observation


def _drain_seconds(kind: str, n: int) -> float:
    """Wall seconds to pop *n* pre-scheduled events from structure *kind*."""
    q = make_queue(kind)
    rng = random.Random(1234)
    for i in range(n):
        q.push(Event(rng.uniform(0.0, 1000.0), i, lambda: None))
    t0 = perf_counter()
    while q.pop_if_le(float("inf")) is not None:
        pass
    return perf_counter() - t0


class TestDrainScaling:
    def test_ladder_drain_within_2x_of_heap(self):
        n = 30_000
        heap_s = min(_drain_seconds("heap", n) for _ in range(2))
        ladder_s = min(_drain_seconds("ladder", n) for _ in range(2))
        assert ladder_s <= 2.0 * heap_s, (
            f"ladder drained {n} events in {ladder_s:.3f}s vs heap "
            f"{heap_s:.3f}s — the E2 bound is 2x")

    def test_ladder_drain_scales_linearly(self):
        # Quadratic drain makes the 4x-size run ~16x slower; linear makes
        # it ~4x.  Normalizing by the heap's own ratio absorbs machine
        # noise and cache effects; 2.5x the heap's growth is far below the
        # ~4x gap the bug produced (16/4.3) and far above run jitter.
        n = 8_000
        heap_ratio = (min(_drain_seconds("heap", 4 * n) for _ in range(2))
                      / min(_drain_seconds("heap", n) for _ in range(2)))
        ladder_ratio = (min(_drain_seconds("ladder", 4 * n) for _ in range(2))
                        / min(_drain_seconds("ladder", n) for _ in range(2)))
        assert ladder_ratio <= 2.5 * max(heap_ratio, 4.0), (
            f"ladder drain grew {ladder_ratio:.1f}x for 4x the events "
            f"(heap: {heap_ratio:.1f}x) — superlinear drain is back")


class TestLadderRegressions:
    def test_single_timestamp_spill_horizon_fractional(self):
        # A Top spill where every event shares one timestamp used to set
        # the next horizon to lo + 1.0 — at sub-unit timescales every
        # subsequent push landed in Bottom's insort path instead of Top.
        q = LadderQueue()
        for i in range(8):
            q.push(Event(5.0, i, lambda: None))
        assert q.pop().time == 5.0  # forces the Top -> Bottom conversion
        assert q._top_start == 5.0  # horizon is the max *observed* time
        q.push(Event(5.25, 100, lambda: None))
        assert len(q._top) == 1  # beyond the horizon -> Top, not Bottom
        q.push(Event(5.0, 101, lambda: None))  # tie at the boundary
        times = [q.pop().time for _ in range(len(q))]
        assert times == sorted(times)
        assert times[-1] == 5.25

    def test_fractional_timescale_ordering(self):
        q = LadderQueue()
        rng = random.Random(9)
        times = [round(rng.uniform(0.0, 0.001), 9) for _ in range(500)]
        for i, t in enumerate(times):
            q.push(Event(t, i, lambda: None))
        popped = [q.pop().time for _ in range(500)]
        assert popped == sorted(times)


def _tiny_adaptive(**overrides) -> AdaptiveQueue:
    defaults = dict(window=16, ladder_size=64, calendar_size=24,
                    calendar_skew=100.0, calendar_cancel=1.0)
    defaults.update(overrides)
    return AdaptiveQueue(**defaults)


class TestAdaptiveMigration:
    def test_growth_triggers_ladder_then_drain_returns_to_heap(self):
        q = _tiny_adaptive()
        assert q.backend_kind == "heap"
        for i in range(200):
            q.push(Event(float(i), i, lambda: None))
        assert q.backend_kind == "ladder"
        assert q.migrations >= 1
        while q.pop() is not None:
            pass
        assert q.backend_kind == "heap"
        assert q.migrations >= 2

    def test_balanced_midband_profile_selects_calendar(self):
        q = _tiny_adaptive(window=16, ladder_size=10_000, calendar_size=24,
                           calendar_skew=1e9)
        rng = random.Random(3)
        clock = 0.0
        seq = 0
        for _ in range(40):  # grow into the mid band
            q.push(Event(clock + rng.uniform(0.0, 10.0), seq, lambda: None))
            seq += 1
        for _ in range(200):  # steady hold pattern: one in, one out
            q.push(Event(clock + rng.uniform(0.0, 10.0), seq, lambda: None))
            seq += 1
            ev = q.pop()
            clock = max(clock, ev.time)
        assert q.backend_kind == "calendar"

    def test_ordering_byte_identical_across_migrations(self):
        q = _tiny_adaptive()
        rng = random.Random(77)
        events = [Event(rng.uniform(0.0, 100.0), i, lambda: None)
                  for i in range(300)]
        for ev in events:
            q.push(ev)
        assert q.migrations >= 1  # the run must actually cross a boundary
        popped = [q.pop() for _ in range(300)]
        assert popped == sorted(events, key=lambda ev: ev.sort_key)
        assert q.pop() is None

    def test_len_peek_and_cancellation_consistent_across_migration(self):
        # window=16, ladder_size=64: evaluations land on pushes 16, 32, 48,
        # 64, 80.  With 10 cancellations the live size is 54 at push 64
        # (stays heap) and 70 at push 80 — so the final push is the exact
        # operation that migrates, with dead records still in the backend.
        q = _tiny_adaptive()
        events = [Event(float(i), i, lambda: None) for i in range(80)]
        for ev in events[:63]:
            q.push(ev)
        for ev in events[10:20]:
            ev.cancel()
        for ev in events[63:79]:
            q.push(ev)
        assert q.migrations == 0 and q.backend_kind == "heap"
        live_before = q.live_len()
        head_before = q.peek()
        q.push(events[79])
        assert q.migrations == 1
        assert q.backend_kind == "ladder"
        assert q.live_len() == live_before + 1
        assert q.peek() is head_before
        assert q.dead_len == 0  # migration moved only live events
        assert len(q) == q.live_len()
        # cancellation accounting keeps working against the new backend
        events[30].cancel()
        assert q.dead_len == 1
        popped = [q.pop() for _ in range(q.live_len())]
        want = [ev for ev in events if not ev.cancelled]
        assert popped == sorted(want, key=lambda ev: ev.sort_key)

    def test_migration_counters_reach_obs_telemetry(self):
        """Each backend switch reaches the attached Observation as one
        trace marker (the count itself is ``q.migrations``, exported as
        ``repro_queue_migrations_total`` — tests/test_obs.py)."""
        sim = Simulator(queue=_tiny_adaptive())
        obs = Observation(trace=True, profile=False)
        obs.attach(sim)
        for i in range(200):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        q = sim._queue
        assert q.migrations >= 1
        # the Chrome trace carries one marker per switch
        counts = obs.tracer.counts()
        assert counts["markers"] >= q.migrations
        obs.close()
        assert q.on_migrate is None  # detach unhooks the queue

    def test_factory_and_classification(self):
        from repro.taxonomy.classify import classify_engine
        from repro.taxonomy.schema import QueueStructure

        q = make_queue("adaptive")
        assert isinstance(q, AdaptiveQueue)
        sim = Simulator(queue="adaptive")
        assert classify_engine(sim)["queue_structure"] is QueueStructure.TREE
        sim._queue = _tiny_adaptive()
        for i in range(200):
            sim._queue.push(Event(float(i), i, lambda: None))
        assert sim._queue.backend_kind == "ladder"
        assert (classify_engine(sim)["queue_structure"]
                is QueueStructure.CALENDAR)
