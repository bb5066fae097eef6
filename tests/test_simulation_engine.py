"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.simulation import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_starts_at_initial_time():
    sim = Simulator(initial_time=42.5)
    assert sim.now == 42.5


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_runs_and_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "done"

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == "done"
    assert sim.now == pytest.approx(3.0)


def test_run_until_time_stops_early():
    sim = Simulator()
    log = []

    def proc():
        for _ in range(10):
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.process(proc())
    sim.run(until=4.5)
    assert log == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 4.5


def test_run_until_past_time_raises():
    sim = Simulator(initial_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc("slow", 3.0))
    sim.process(proc("fast", 1.0))
    sim.process(proc("medium", 2.0))
    sim.run()
    assert order == ["fast", "medium", "slow"]


def test_process_waits_for_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 21

    def parent():
        value = yield sim.process(child())
        return value * 2

    result = sim.run(until=sim.process(parent()))
    assert result == 42


def test_event_succeed_delivers_value():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append(value)

    def opener():
        yield sim.timeout(1.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == ["open"]


def test_event_cannot_be_triggered_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_raises_in_waiting_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1.0)
        gate.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    with pytest.raises(RuntimeError, match="non-event"):
        sim.run(until=proc)


def test_call_later_runs_at_delay():
    sim = Simulator()
    fired = []
    sim.call_later(7.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [7.5]


def test_peek_returns_next_event_time():
    sim = Simulator()
    sim.timeout(3.0)
    sim.timeout(1.0)
    assert sim.peek() == pytest.approx(0.0) or sim.peek() <= 1.0
    sim.run()
    assert sim.peek() == float("inf")


def test_processed_events_counter_increases():
    sim = Simulator()
    for _ in range(10):
        sim.timeout(1.0)
    sim.run()
    assert sim.processed_events >= 10


def test_deterministic_rng_streams():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    stream_a = sim_a.rng("loss")
    stream_b = sim_b.rng("loss")
    assert [stream_a.random() for _ in range(5)] == [stream_b.random() for _ in range(5)]


def test_named_rng_streams_are_independent():
    sim = Simulator(seed=7)
    a = sim.rng("a")
    b = sim.rng("b")
    assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]


def test_run_until_event_wakes_processes_waiting_on_it():
    """Stopping on an until-event must still deliver it to every waiter.

    The stop used to be raised from inside the event's callback list, which
    destroyed every sibling callback behind it — a process parked on the same
    event before run() was entered would sleep forever.
    """
    sim = Simulator()
    marker = sim.event()
    log = []

    def firer():
        yield sim.timeout(2.0)
        marker.succeed("payload")

    def waiter():
        value = yield marker
        log.append(("woke", sim.now, value))
        yield sim.timeout(1.0)
        log.append(("resumed", sim.now))

    sim.process(firer())
    sim.process(waiter())
    assert sim.run(until=marker) == "payload"
    assert log == [("woke", 2.0, "payload")]
    # The waiter survived the stop and keeps running in the next run().
    sim.run()
    assert log == [("woke", 2.0, "payload"), ("resumed", 3.0)]


def test_run_until_already_processed_event_returns_immediately():
    sim = Simulator()
    marker = sim.event()

    def firer():
        yield sim.timeout(1.0)
        marker.succeed(17)

    sim.process(firer())
    sim.run()  # drains everything; marker fires and is fully processed
    assert marker.processed
    assert sim.run(until=marker) == 17
    assert sim.now == 1.0


def test_two_phase_run_until_events_resume_cleanly():
    """Back-to-back run(until=event) calls: each phase stops exactly at its
    event and the queue keeps working across the boundary."""
    sim = Simulator()
    first = sim.event()
    second = sim.event()
    ticks = []

    def driver():
        yield sim.timeout(1.0)
        first.succeed()
        while len(ticks) < 3:
            yield sim.timeout(0.5)
            ticks.append(sim.now)
        second.succeed()

    sim.process(driver())
    sim.run(until=first)
    assert sim.now == 1.0 and ticks == []
    sim.run(until=second)
    assert ticks == [1.5, 2.0, 2.5]


# -- no event without a waiter ---------------------------------------------------


def test_unobserved_success_is_settled_inline_and_late_waiter_resumes_same_time():
    sim = Simulator()
    marker = sim.event()
    log = []

    def late_waiter():
        yield sim.timeout(3.0)
        value = yield marker  # fired (unobserved) long ago
        log.append((sim.now, value))

    sim.process(late_waiter())
    sim.run(until=1.0)
    before = sim.processed_events
    marker.succeed("early")
    assert marker.processed  # nobody waited: no heap entry, delivered inline
    sim.run(until=2.0)
    assert sim.processed_events - before == 1  # only run()'s own deadline
    sim.run()
    assert log == [(3.0, "early")]


def test_unobserved_finished_process_costs_no_event_and_keeps_its_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "result"

    finished = sim.process(child())
    sim.run()
    assert finished.processed and sim.peek() == float("inf")
    got = []

    def parent():
        got.append((yield finished))

    sim.process(parent())
    sim.run()
    assert got == ["result"] and sim.now == 1.0


def test_unobserved_undefused_failure_still_crashes_run():
    sim = Simulator()
    sim.event().fail(KeyError("nobody handles this"))
    with pytest.raises(KeyError):
        sim.run()

    def crasher():
        yield sim.timeout(1.0)
        raise ValueError("process crashed unobserved")

    sim.process(crasher())
    with pytest.raises(ValueError):
        sim.run()


def test_unobserved_defused_failure_is_settled_inline():
    sim = Simulator()
    failure = sim.event()
    failure.defuse()
    failure.fail(RuntimeError("ignored"))
    assert failure.processed and sim.peek() == float("inf")
    caught = []

    def late_waiter():
        try:
            yield failure
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(late_waiter())
    sim.run()
    assert caught == ["ignored"]


def test_run_until_event_nobody_else_waits_on_returns_its_value():
    sim = Simulator()
    marker = sim.event()
    sim.call_later(2.0, marker.succeed, "fired")
    sim.call_later(5.0, lambda: None)
    assert sim.run(until=marker) == "fired"
    assert sim.now == 2.0  # stopped at the event, not at queue exhaustion


def test_run_until_unobserved_process_returns_its_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return 99

    assert sim.run(until=sim.process(proc())) == 99
    assert sim.now == 1.5
