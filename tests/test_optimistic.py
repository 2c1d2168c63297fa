"""Time Warp executor tests: determinism, rollback edge cases, protocol.

The headline acceptance test is the determinism matrix: on the shared E7
partitioned-ring model the optimistic executor must commit a byte-identical
event stream to ``SequentialExecutor`` for several seeds *while actually
rolling back* (asserted through the executor's rollback stats — an optimistic
run that never mis-speculates proves nothing).

The edge cases target the classic Time Warp hazards:

* a straggler arriving exactly at a saved-state timestamp (the snapshot at
  that time is poisoned — events at the time already fired into it);
* an anti-message catching its positive while still in flight (annihilation
  without a secondary rollback);
* rollback past a cancellation (schedule *and* cancel both replay);
* GVT advance with a permanently idle LP.
"""

import math

import pytest

from repro.core import ConfigurationError
from repro.core.optimistic import OptimisticExecutor
from repro.core.parallel import LogicalProcess, SequentialExecutor
from repro.workloads.partitioned import build_partitioned_ring

HORIZON = 200.0


def ring_model(seed):
    return build_partitioned_ring(k=4, seed=seed, jobs_per_site=60,
                                  horizon=HORIZON)


def make_logged_lp(name, seed=0):
    """An LP whose completion log is registered rollback-safe state."""
    lp = LogicalProcess(name, seed=seed)
    log = []
    lp.register_state(lambda: list(log), lambda blob: log.__setitem__(
        slice(None), blob))
    return lp, log


class TestAcceptance:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_byte_identical_committed_stream_with_real_rollbacks(self, seed):
        ref = ring_model(seed)
        SequentialExecutor().run(ref.lps, until=HORIZON)

        model = ring_model(seed)
        ex = OptimisticExecutor(batch=32, checkpoint_every=8)
        stats = ex.run(model.lps, until=HORIZON)

        assert repr(model.results()) == repr(ref.results())
        assert model.monitor_stats() == ref.monitor_stats()
        # The run must have genuinely mis-speculated; zero rollbacks would
        # make the determinism claim vacuous.
        assert stats.rollbacks >= 1
        assert stats.anti_messages >= 1
        assert max(r.max_rollback_depth for r in ex.lp_reports.values()) >= 1
        assert 0.0 < stats.efficiency < 1.0
        assert stats.committed_events == stats.events - stats.rolled_back_events
        assert stats.efficiency == pytest.approx(
            stats.committed_events / stats.events)

    def test_optimistic_run_is_repeatable(self):
        outs = []
        for _ in range(2):
            model = ring_model(7)
            stats = OptimisticExecutor().run(model.lps, until=HORIZON)
            outs.append((repr(model.results()), stats.events,
                         stats.rollbacks, stats.anti_messages))
        assert outs[0] == outs[1]

    def test_batch_and_checkpoint_knobs_preserve_determinism(self):
        ref = ring_model(3)
        SequentialExecutor().run(ref.lps, until=HORIZON)
        want = repr(ref.results())
        for batch, ckpt in [(8, 1), (64, 4), (200, 32)]:
            model = ring_model(3)
            OptimisticExecutor(batch=batch,
                               checkpoint_every=ckpt).run(model.lps,
                                                          until=HORIZON)
            assert repr(model.results()) == want, (
                f"batch={batch} checkpoint_every={ckpt} diverged")

    def test_throttled_run_matches_and_limits_optimism(self):
        ref = ring_model(7)
        SequentialExecutor().run(ref.lps, until=HORIZON)
        model = ring_model(7)
        free = OptimisticExecutor()
        free_stats = free.run(model.lps, until=HORIZON)
        model2 = ring_model(7)
        tight = OptimisticExecutor(throttle=5.0)
        tight_stats = tight.run(model2.lps, until=HORIZON)
        assert repr(model2.results()) == repr(ref.results())
        # Bounding optimism can only reduce mis-speculated work.
        assert tight_stats.rolled_back_events <= free_stats.rolled_back_events


class TestSnapshotRestore:
    def test_roundtrip_restores_clock_rng_state_and_events(self):
        lp, log = make_logged_lp("solo", seed=9)
        lp.sim.schedule(5.0, log.append, "later")
        lp.sim.schedule(1.0, log.append, "early")
        first = lp.sim.stream("u").uniform()

        snap = lp.snapshot()
        post_snap = [lp.sim.stream("u").uniform() for _ in range(3)]
        fresh = lp.sim.stream("made-after-snapshot").uniform()
        lp.sim.run(until=2.0)
        assert log == ["early"]

        lp.restore(snap)
        assert lp.sim.now == 0.0
        assert log == []
        assert lp.sim.peek_time() == 1.0
        # RNG replay: identical draws, including a stream first created
        # after the snapshot (recreated from its deterministic seed).
        assert [lp.sim.stream("u").uniform() for _ in range(3)] == post_snap
        assert lp.sim.stream("made-after-snapshot").uniform() == fresh
        assert first != post_snap[0]

    def test_restore_is_idempotent_per_snapshot(self):
        lp, log = make_logged_lp("solo")
        lp.sim.schedule(1.0, log.append, "x")
        snap = lp.snapshot()
        for _ in range(2):
            lp.sim.run(until=10.0)
            assert log == ["x"]
            lp.restore(snap)
            assert log == [] and lp.sim.peek_time() == 1.0

    def test_snapshot_isolated_from_future_cancellation(self):
        lp, log = make_logged_lp("solo")
        ev = lp.sim.schedule(1.0, log.append, "x")
        snap = lp.snapshot()
        ev.cancel()
        lp.sim.run(until=10.0)
        assert log == []
        lp.restore(snap)
        lp.sim.run(until=10.0)
        assert log == ["x"]


def run_pair(build, until=100.0, **kw):
    """Run *build()* under sequential and optimistic; return both outputs."""
    lps_ref, logs_ref = build()
    SequentialExecutor().run(lps_ref, until=until)
    lps_opt, logs_opt = build()
    ex = OptimisticExecutor(**kw)
    stats = ex.run(lps_opt, until=until)
    return logs_ref, logs_opt, ex, stats


class TestRollbackEdgeCases:
    def test_straggler_exactly_at_saved_state_timestamp(self):
        """checkpoint_every=1 gives B a snapshot at every integer time; the
        straggler hits recv_time=3.0 — the snapshot at 3.0 must be skipped
        (its state already includes the t=3 firing) and 2.0 restored."""

        def build():
            b, blog = make_logged_lp("B")
            a, alog = make_logged_lp("A")
            a.connect(b, 2.0)
            b.connect(a, 2.0)  # cycle so CMB/validation semantics match

            def local(lp, tag):
                blog.append((lp.sim.now, tag))

            for t in (1.0, 2.0, 3.0, 4.0, 5.0):
                b.sim.schedule(t, local, b, "local")
            b.on_message("poke", lambda lp, m: blog.append((lp.sim.now,
                                                            "poke")))
            a.on_message("poke", lambda lp, m: None)
            a.sim.schedule(1.0, a.send, "B", "poke")  # recv_time = 3.0
            return [b, a], (blog, alog)  # B first: it runs ahead of A

        (ref_b, _), (opt_b, _), ex, stats = run_pair(build,
                                                     checkpoint_every=1)
        assert opt_b == ref_b
        assert (3.0, "poke") in opt_b
        rb = ex.lp_reports["B"]
        assert rb.rollbacks >= 1 and rb.stragglers >= 1
        # Depth proves the restored snapshot was 2.0, not 3.0: the t=3,4,5
        # locals plus the dispatch replay after restoration.
        assert rb.max_rollback_depth >= 3

    def test_anti_message_catches_in_flight_positive(self):
        """A rolls back after optimistically sending to B; B is still booked
        solid below the positive's receive time, so the anti annihilates it
        in B's input queue — no secondary rollback on B."""

        def build():
            b, blog = make_logged_lp("B")
            a, alog = make_logged_lp("A")
            c, clog = make_logged_lp("C")
            a.connect(b, 1.0)
            c.connect(a, 1.0)
            b.connect(c, 1.0)  # close the ring for the horizon validator

            for i in range(1, 21):  # B busy below t=5 for several rounds
                b.sim.schedule(0.25 * i, blog.append, round(0.25 * i, 9))
            for t in range(1, 11):  # A races ahead, sending at t=5
                a.sim.schedule(float(t), alog.append, float(t))
            a.sim.schedule(5.0, a.send, "B", "x")  # recv_time = 6.0
            c.sim.schedule(0.5, c.send, "A", "y")  # straggler: recv 1.5
            b.on_message("x", lambda lp, m: blog.append("x"))
            a.on_message("y", lambda lp, m: alog.append("y"))
            c.on_message("z", lambda lp, m: None)
            return [b, a, c], (blog, alog, clog)

        ref, opt, ex, stats = run_pair(build, batch=8)
        assert opt == ref
        assert ex.lp_reports["A"].rollbacks >= 1
        assert ex.lp_reports["A"].antis_sent >= 1
        assert ex.lp_reports["B"].rollbacks == 0
        assert ex.lp_reports["B"].annihilations >= 1
        assert "x" in opt[0]  # the coast-forward re-send still arrives

    def test_rollback_past_a_cancellation(self):
        """B schedules a t=10 event at t=3 and cancels it at t=4; a
        straggler at 1.5 rolls back past both.  The replay must re-create
        and re-cancel — the victim never fires, matching sequential."""

        def build():
            b, blog = make_logged_lp("B")
            a, alog = make_logged_lp("A")
            a.connect(b, 1.0)
            b.connect(a, 1.0)
            handle = {}

            def do_schedule(lp):
                blog.append((lp.sim.now, "schedule"))
                handle["ev"] = lp.sim.schedule_at(10.0, blog.append,
                                                  "victim-fired")

            def do_cancel(lp):
                blog.append((lp.sim.now, "cancel"))
                handle["ev"].cancel()

            for t in (1.0, 2.0, 5.0, 6.0):
                b.sim.schedule(t, blog.append, (t, "local"))
            b.sim.schedule(3.0, do_schedule, b)
            b.sim.schedule(4.0, do_cancel, b)
            b.on_message("poke", lambda lp, m: blog.append((lp.sim.now,
                                                            "poke")))
            a.on_message("poke", lambda lp, m: None)
            a.sim.schedule(0.5, a.send, "B", "poke")  # recv_time = 1.5
            return [b, a], (blog, alog)

        ref, opt, ex, stats = run_pair(build, until=20.0, checkpoint_every=1)
        assert opt == ref
        assert "victim-fired" not in opt[0]
        assert (1.5, "poke") in opt[0]
        assert ex.lp_reports["B"].rollbacks >= 1

    def test_gvt_advances_with_idle_lp(self):
        """A permanently idle LP contributes +inf to the GVT reduction; the
        run must terminate, commit, and fossil-collect without it ever
        executing anything."""

        def build():
            a, alog = make_logged_lp("A")
            b, blog = make_logged_lp("B")
            idle, ilog = make_logged_lp("IDLE")
            a.connect(b, 1.0)
            b.connect(a, 1.0)
            a.connect(idle, 1.0)  # channel exists; never used

            def bounce(lp, m):
                (alog if lp.name == "A" else blog).append((lp.sim.now,
                                                           m.payload))
                if m.payload < 30:
                    lp.send("B" if lp.name == "A" else "A", "ball",
                            m.payload + 1)

            a.on_message("ball", bounce)
            b.on_message("ball", bounce)
            idle.on_message("ball", lambda lp, m: None)
            a.sim.schedule(0.0, a.send, "B", "ball", 0)
            return [a, b, idle], (alog, blog, ilog)

        ref, opt, ex, stats = run_pair(build)
        assert opt == ref
        rpt = ex.lp_reports["IDLE"]
        assert rpt.rollbacks == 0 and rpt.snapshots_taken == 1
        assert stats.events > 0

    def test_snapshot_restored_twice_counts_each_undone_event_once(self):
        """B is rolled back to its setup snapshot in round 2 (m1) and again
        in round 3 (m2).  ``restore()`` does not rewind the raw fired-event
        counter, so measuring the second depth on it counted the first
        rollback's 20 events again: 61 rolled back of 65, 4 committed."""

        def build():
            b, blog = make_logged_lp("B")
            a1, a1log = make_logged_lp("A1")
            a0, a0log = make_logged_lp("A0")
            a0.connect(b, 0.5)
            a0.connect(a1, 0.5)
            a1.connect(b, 0.5)
            b.connect(a0, 0.5)  # close the cycle for the horizon validator

            for t in range(1, 21):
                b.sim.schedule(float(t), blog.append, float(t))
            b.on_message("m", lambda lp, m: blog.append((lp.sim.now,
                                                         m.payload)))
            a1.on_message("x", lambda lp, m: lp.send("B", "m", "m2"))
            a0.on_message("m", lambda lp, m: None)

            def fan_out():
                a0.send("B", "m", "m1")     # recv 5.5
                a0.send("A1", "x")          # recv 5.5 -> m2 at 6.0

            a0.sim.schedule(5.0, fan_out)
            return [b, a1, a0], (blog, a1log, a0log)

        lps, _ = build()
        sequential = SequentialExecutor().run(lps, until=100.0)
        ref, opt, ex, stats = run_pair(build, checkpoint_every=1000)
        assert opt == ref
        assert ex.lp_reports["B"].rollbacks == 2
        assert ex.lp_reports["B"].snapshots_taken == 1
        assert sequential.events == 24
        assert stats.committed_events == sequential.events
        assert (stats.events, stats.rolled_back_events) == (65, 41)
        assert 0 < stats.efficiency <= 1
        assert ex.lp_reports["B"].max_rollback_depth == 21

    def test_new_input_inside_the_coast_forward_window(self):
        """B runs to t=10, is rolled back to t=0 by m1 (recv 8.5) and, two
        events into the coast-forward, receives m2 (recv 4.5): ahead of its
        clock, so no straggler — but B's sends from 4.5 on now differ from
        the originals the coast-forward was keeping valid (they carry how
        many messages B has seen).  Those must be chased and re-sent, not
        suppressed as replays."""

        def build():
            b, blog = make_logged_lp("B")
            c, clog = make_logged_lp("C")
            a0, a0log = make_logged_lp("A0")
            a1, a1log = make_logged_lp("A1")
            b.connect(c, 0.5)
            a0.connect(b, 0.5)
            a1.connect(b, 0.5)
            c.connect(a0, 0.5)  # close the cycle for the horizon validator

            def tick():
                b.send("C", "seen", len(blog))

            for t in range(1, 11):
                b.sim.schedule(float(t), tick)
            b.on_message("m", lambda lp, m: blog.append(m.payload))
            c.on_message("seen", lambda lp, m: clog.append((lp.sim.now,
                                                            m.payload)))
            a0.on_message("seen", lambda lp, m: None)
            # batch=2: fillers put A0's send in round 6 (B is at t=10 by
            # then) and A1's in round 7 (B has coasted back up to t=2)
            for lp, log, fillers, at, tag in ((a0, a0log, 10, 8.0, "m1"),
                                              (a1, a1log, 12, 4.0, "m2")):
                for i in range(fillers):
                    lp.sim.schedule(0.01 * (i + 1), log.append, i)
                lp.sim.schedule(at, lp.send, "B", "m", tag)
            return [b, c, a0, a1], (blog, clog, a0log, a1log)

        ref, opt, ex, stats = run_pair(build, batch=2, checkpoint_every=1000)
        assert ref[1] == [(t + 0.5, (t > 4) + (t > 8)) for t in range(1, 11)]
        assert opt == ref
        assert ex.lp_reports["B"].stragglers == 1
        assert stats.real_messages - stats.anti_messages == 12

    def test_input_annihilated_inside_the_coast_forward_window(self):
        """The mirror case: B handled M at 4.5 (forwarding to C), was rolled
        back to t=0 by m1 (recv 8.5), and while it coasts forward at t=4 the
        sender takes M back.  M is unprocessed again, so no rollback — but
        the forward it caused is among the sends being kept valid."""

        def build():
            b, blog = make_logged_lp("B")
            c, clog = make_logged_lp("C")
            a, alog = make_logged_lp("A")
            x0, x0log = make_logged_lp("X0")
            x1, x1log = make_logged_lp("X1")
            b.connect(c, 0.5)
            a.connect(b, 0.5)
            x0.connect(b, 0.5)
            x1.connect(a, 0.5)
            c.connect(x0, 0.5)  # close the cycle for the horizon validator

            for t in range(1, 11):
                b.sim.schedule(float(t), blog.append, float(t))
            b.on_message("M", lambda lp, m: lp.send("C", "fwd"))
            b.on_message("m1", lambda lp, m: blog.append("m1"))
            c.on_message("fwd", lambda lp, m: clog.append(lp.sim.now))
            a.on_message("cancel", lambda lp, m: alog.append("cancel"))
            x0.on_message("fwd", lambda lp, m: None)
            # A sends M at 4.0 unless told not to at 3.5 — which, thanks to
            # X1's fillers, it only learns in round 8 (batch=2)
            a.sim.schedule(4.0, lambda: alog or a.send("B", "M"))
            for lp, log, fillers, at, dst, kind in (
                    (x0, x0log, 10, 8.0, "B", "m1"),
                    (x1, x1log, 12, 3.0, "A", "cancel")):
                for i in range(fillers):
                    lp.sim.schedule(0.01 * (i + 1), log.append, i)
                lp.sim.schedule(at, lp.send, dst, kind)
            return [b, c, a, x0, x1], (blog, clog, alog, x0log, x1log)

        ref, opt, ex, stats = run_pair(build, batch=2, checkpoint_every=1000)
        assert ref[1] == [] and ref[2] == ["cancel"]
        assert opt == ref
        assert ex.lp_reports["B"].rollbacks == 1    # m1 only
        assert ex.lp_reports["B"].annihilations == 1
        assert ex.lp_reports["C"].rollbacks == 1    # the forward, taken back


class TestProtocolGuards:
    def test_stop_inside_optimistic_run_rejected(self):
        def build():
            a, alog = make_logged_lp("A")
            b, _ = make_logged_lp("B")
            a.connect(b, 1.0)
            b.connect(a, 1.0)
            a.sim.schedule(1.0, a.sim.stop, "bail")
            b.on_message("x", lambda lp, m: None)
            return [a, b]

        with pytest.raises(ConfigurationError, match="rolled back"):
            OptimisticExecutor().run(build(), until=10.0)

    def test_send_to_non_participant_rejected(self):
        a, _ = make_logged_lp("A")
        b, _ = make_logged_lp("B")
        outside = LogicalProcess("OUTSIDE")
        a.connect(b, 1.0)
        b.connect(a, 1.0)
        a.connect(outside, 1.0)
        b.on_message("x", lambda lp, m: None)
        a.sim.schedule(1.0, a.send, "OUTSIDE", "x")
        with pytest.raises(ConfigurationError, match="not part"):
            OptimisticExecutor().run([a, b], until=10.0)

    def test_duplicate_lp_names_rejected(self):
        a1, _ = make_logged_lp("A")
        a2, _ = make_logged_lp("A")
        a1.connect(a2, 1.0)
        with pytest.raises(ConfigurationError, match="duplicate"):
            OptimisticExecutor().run([a1, a2], until=10.0)

    def test_nested_optimistic_runs_rejected(self):
        a, _ = make_logged_lp("A")
        b, _ = make_logged_lp("B")
        a.connect(b, 1.0)
        a._tw = object()  # simulate an in-progress optimistic run
        try:
            with pytest.raises(ConfigurationError, match="already inside"):
                OptimisticExecutor().run([a, b], until=10.0)
        finally:
            a._tw = None

    @pytest.mark.parametrize("kw", [{"batch": 0}, {"checkpoint_every": 0},
                                    {"throttle": 0.0}, {"throttle": -1.0}])
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            OptimisticExecutor(**kw)

    def test_pre_run_channel_messages_adopted(self):
        """Messages sent before the run (via the conservative channel path)
        must be swept into the Time Warp input queues at setup."""
        a, alog = make_logged_lp("A")
        b, blog = make_logged_lp("B")
        a.connect(b, 1.0)
        b.connect(a, 1.0)
        b.on_message("seed", lambda lp, m: blog.append((lp.sim.now,
                                                        m.payload)))
        a.on_message("seed", lambda lp, m: None)
        a.send("B", "seed", 42)  # outside any executor: goes via Channel
        OptimisticExecutor().run([a, b], until=10.0)
        assert blog == [(1.0, 42)]
