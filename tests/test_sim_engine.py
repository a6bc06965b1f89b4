"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim import SimulationError, Simulator


class TestSimulatorBasics:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_advances_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        assert sim.run() == 3.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.timeout(-0.5)

    def test_empty_run_is_noop(self):
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.empty()

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.schedule(2.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.peek() == 1.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for t in (3.0, 1.0, 2.0):
            sim.schedule(t, lambda t=t: order.append(t))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for k in range(10):
            sim.schedule(1.0, lambda k=k: order.append(k))
        sim.run()
        assert order == list(range(10))

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(10.0, lambda: seen.append(10))
        sim.run(until=5.0)
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(2.0, lambda: seen.append(("inner", sim.now)))
        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 3.0)]

    def test_events_handled_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_handled == 5

    def test_runaway_guard(self):
        sim = Simulator()
        def reschedule():
            sim.schedule(0.0, reschedule)
        sim.schedule(0.0, reschedule)
        with pytest.raises(SimulationError, match="runaway"):
            sim.run(max_events=100)


class TestSimEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event("e")
        got = []
        ev.add_callback(got.append)
        ev.succeed(42)
        assert got == [42]
        assert ev.triggered
        assert ev.value == 42

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_double_succeed_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_late_callback_fires_via_scheduler(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("x")
        got = []
        ev.add_callback(got.append)
        assert got == []  # deferred, not synchronous
        sim.run()
        assert got == ["x"]

    def test_timeout_delivers_value(self):
        sim = Simulator()
        ev = sim.timeout(2.0, value="payload")
        got = []
        ev.add_callback(got.append)
        sim.run()
        assert got == ["payload"]
        assert sim.now == 2.0

    def test_multiple_callbacks_all_fire(self):
        sim = Simulator()
        ev = sim.timeout(1.0, value=7)
        got = []
        for _ in range(3):
            ev.add_callback(got.append)
        sim.run()
        assert got == [7, 7, 7]

    def test_zero_delay_timeout(self):
        sim = Simulator()
        ev = sim.timeout(0.0, value=1)
        sim.run()
        assert ev.triggered
        assert sim.now == 0.0


class TestQueueEntries:
    """``schedule()`` thunks and ``timeout()`` events share one heap."""

    def test_mixed_thunks_and_timeouts_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for k in range(6):
            if k % 2:
                sim.timeout(1.0, value=k).add_callback(order.append)
            else:
                sim.schedule(1.0, lambda k=k: order.append(k))
        sim.run()
        assert order == list(range(6))

    def test_thunk_is_recorded_as_scheduled(self):
        sim = Simulator(record_trace=True)
        sim.schedule(1.0, lambda: None)
        sim.timeout(1.0)
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert sim.trace == [
            (0.5, 2, "scheduled"),
            (1.0, 0, "scheduled"),
            (1.0, 1, "timeout"),
        ]

    def test_thunk_is_a_scheduled_instant_on_the_tracer(self):
        from repro.obs import Tracer

        tracer = Tracer()
        sim = Simulator(tracer=tracer)
        tracer.bind_clock(lambda: sim.now)
        sim.schedule(1.0, lambda: None)
        sim.timeout(2.0)
        sim.run()
        sim_lane = [(e.name, e.args["seq"]) for e in tracer.events if e.cat == "sim"]
        assert sim_lane == [("scheduled", 0), ("timeout", 1)]

    def test_run_until_and_peek_see_thunks(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: seen.append(3))
        sim.timeout(1.0).add_callback(lambda _v: seen.append(1))
        assert sim.peek() == 1.0
        sim.run(until=2.0)
        assert seen == [1] and sim.now == 2.0
        assert sim.peek() == 3.0
        sim.run()
        assert seen == [1, 3]
