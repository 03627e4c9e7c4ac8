"""Discrete-event engine semantics."""

import pytest

from repro.sim.engine import Simulation


def test_schedule_runs_in_time_order():
    sim = Simulation()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulation()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(0.5, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_non_finite_delay_rejected():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.schedule(float("inf"), lambda: None)


def test_run_with_duration_advances_clock_exactly():
    sim = Simulation()
    sim.run(2.5)
    assert sim.now == pytest.approx(2.5)


def test_events_beyond_deadline_stay_queued():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, True)
    sim.run(0.5)
    assert not fired
    sim.run(1.0)
    assert fired == [True]


def test_every_fires_periodically():
    sim = Simulation()
    times = []
    sim.every(0.010, lambda: times.append(sim.now))
    sim.run(0.095)
    assert len(times) == 9
    assert times[0] == pytest.approx(0.010)
    assert times[-1] == pytest.approx(0.090)


def test_every_rejects_nonpositive_period():
    sim = Simulation()
    with pytest.raises(ValueError):
        sim.every(0.0, lambda: None)


def test_cancel_periodic_process():
    sim = Simulation()
    counter = {"n": 0}

    def tick():
        counter["n"] += 1

    handle = sim.every(0.01, tick)
    sim.run(0.05)
    handle.cancel()
    sim.run(0.05)
    assert counter["n"] == 5


def test_cancel_single_event():
    sim = Simulation()
    fired = []
    handle = sim.schedule(0.1, fired.append, 1)
    handle.cancel()
    sim.run(1.0)
    assert not fired


def test_at_schedules_absolute_time():
    sim = Simulation()
    sim.run(1.0)
    stamped = []
    sim.at(1.5, lambda: stamped.append(sim.now))
    sim.run(1.0)
    assert stamped == [pytest.approx(1.5)]


def test_callbacks_can_schedule_more_events():
    sim = Simulation()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(0.1, lambda: seen.append("nested"))

    sim.schedule(0.1, first)
    sim.run(1.0)
    assert seen == ["first", "nested"]


def test_step_processes_one_event():
    sim = Simulation()
    seen = []
    sim.schedule(0.1, seen.append, "a")
    sim.schedule(0.2, seen.append, "b")
    assert sim.step()
    assert seen == ["a"]
    assert sim.step()
    assert not sim.step()


def test_pending_counts_noncancelled():
    sim = Simulation()
    sim.schedule(0.1, lambda: None)
    handle = sim.schedule(0.2, lambda: None)
    handle.cancel()
    assert sim.pending() == 1


def test_deadline_boundary_event_fires_and_clock_ends_at_deadline():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "at-deadline")
    sim.run(1.0)
    assert fired == ["at-deadline"]
    assert sim.now == 1.0


def test_event_scheduled_at_deadline_during_run_fires():
    sim = Simulation()
    fired = []

    def chain():
        # now == 0.5; this lands exactly on the deadline of run(1.0).
        sim.schedule(0.5, fired.append, "nested-at-deadline")

    sim.schedule(0.5, chain)
    sim.run(1.0)
    assert fired == ["nested-at-deadline"]
    assert sim.now == 1.0


def test_pending_is_constant_time_and_exact_under_cancels():
    sim = Simulation()
    handles = [sim.schedule(0.1 + i * 0.01, lambda: None) for i in range(500)]
    assert sim.pending() == 500
    for handle in handles[100:]:
        handle.cancel()
    assert sim.pending() == 100
    sim.run(10.0)
    assert sim.pending() == 0


def test_cancelled_events_are_compacted_out_of_the_heap():
    sim = Simulation()
    keep = [sim.schedule(1000.0, lambda: None) for _ in range(10)]
    drop = [sim.schedule(2000.0, lambda: None) for _ in range(500)]
    for handle in drop:
        handle.cancel()
    # Far-future cancelled timers must not stay resident until their
    # deadline: the heap compacts once they dominate.
    assert sim.pending() == 10
    assert len(sim._queue) < 100
    sim.run(1500.0)
    assert all(not handle.cancelled for handle in keep)


def test_every_while_pauses_and_wakes_on_grid():
    sim = Simulation()
    times = []
    budget = {"n": 3}

    def tick():
        times.append(sim.now)
        budget["n"] -= 1
        return budget["n"] > 0

    handle = sim.every_while(0.010, tick)
    sim.run(0.1)
    assert len(times) == 3
    assert handle.paused
    # Wake mid-interval (clock is at 0.1, wake fires at 0.1155): the
    # process resumes at the next instant of the ORIGINAL tick grid
    # (the float-accumulated 0.12), not at the wake instant.
    budget["n"] = 2
    sim.schedule(0.0155, handle.wake)
    sim.run(0.1)
    assert len(times) == 5
    reference = Simulation()
    expected = []
    reference.every(0.010, lambda: expected.append(reference.now))
    reference.run(0.2)
    assert times == expected[:3] + expected[11:13]


def test_every_while_ticks_match_every_exactly():
    plain, gated = Simulation(), Simulation()
    plain_times, gated_times = [], []
    plain.every(0.001, lambda: plain_times.append(plain.now))
    gated.every_while(0.001, lambda: gated_times.append(gated.now) or True)
    plain.run(0.5)
    gated.run(0.5)
    assert gated_times == plain_times


def test_every_while_cancel_stops_process():
    sim = Simulation()
    count = {"n": 0}

    def tick():
        count["n"] += 1
        return True

    handle = sim.every_while(0.01, tick)
    sim.run(0.05)
    handle.cancel()
    sim.run(0.05)
    assert count["n"] == 5
    assert sim.pending() == 0


def test_every_while_wake_at_exactly_now_fires_within_instant():
    """A wake whose pending tick lands exactly on the current instant
    must fire that tick *within* the instant, not skip past it."""
    sim = Simulation()
    times = []

    def tick():
        times.append(sim.now)
        return False  # pause after every tick

    handle = sim.every_while(0.010, tick)
    # Tick 1 fires at 0.01 and pauses; next_time is then exactly 0.02.
    # A wake arriving at exactly 0.02 must fire the 0.02 tick within
    # that instant (the ``nxt < now`` loop must not consume an instant
    # equal to now).
    sim.schedule(0.020, handle.wake)
    sim.run(0.020)
    assert times == [0.010, 0.020]
    assert handle.paused and handle.next_time == 0.030


def test_every_while_skip_preserves_float_accumulated_grid():
    """skip() while paused must land on the same float-accumulated
    instants an always-ticking process visits — no rounding shortcut."""
    period = 0.003  # not exactly representable: accumulation drifts
    reference = Simulation()
    expected = []
    reference.every(period, lambda: expected.append(reference.now))
    reference.run(0.1)

    sim = Simulation()
    times = []

    def tick():
        times.append(sim.now)
        return len(times) < 2  # pause after the second tick

    handle = sim.every_while(period, tick)
    sim.run(0.1)
    assert handle.paused
    # Consume ten idle ticks; each skip must advance by exactly one
    # accumulated period (k * period recomputed fresh would differ in
    # the last ulp for several of these instants).
    skipped = []
    for _ in range(10):
        skipped.append(handle.next_time)
        handle.skip()
    assert skipped == expected[2:12]
    assert handle.next_time == expected[12]


def test_every_while_cancel_while_paused_stays_cancelled():
    """cancel() on a paused handle must stick: a later wake() must not
    resurrect the process or touch the event heap."""
    sim = Simulation()
    count = {"n": 0}

    def tick():
        count["n"] += 1
        return False  # pause immediately after the first tick

    handle = sim.every_while(0.01, tick)
    sim.run(0.05)
    assert count["n"] == 1 and handle.paused
    handle.cancel()
    assert sim.pending() == 0
    handle.wake()  # must be a no-op on a cancelled handle
    assert sim.pending() == 0
    sim.run(0.05)
    assert count["n"] == 1


def test_compaction_inside_a_run_keeps_the_run_going():
    """Cancelling enough events to compact the heap from inside a
    callback must not strand the running dispatch loop on a stale
    queue: what is scheduled afterwards still fires in the same run."""
    sim = Simulation()
    timers = [sim.schedule(1000.0 + k, lambda: None) for k in range(200)]
    fired = []

    def cancel_all():
        for timer in timers:
            timer.cancel()
        sim.schedule(0.5, lambda: fired.append(sim.now))

    sim.schedule(1.0, cancel_all)
    sim.run(2.0)
    assert fired == [1.5]
    assert sim.pending() == 0 and len(sim._queue) < 64
