"""Tests for the zero-allocation fast path and its satellite fixes.

Covers ``Simulator.call_later`` semantics, link drop accounting, condition
fast paths, precomputed link shaping parameters, and transport pending-request
cleanup (late replies must neither leak memory nor resolve stale ids).
"""

import pytest

from repro.network import LinkConfig, Network
from repro.network.transport import RemoteError, RequestTimeout, Transport
from repro.simulation import Interrupt, Simulator
from repro.simulation.engine import EmptySchedule


def make_two_host_net(latency_ms=10.0, bandwidth_mbps=100.0, loss=0.0, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_switch("s1")
    net.add_host("h1")
    net.add_host("h2")
    cfg = LinkConfig(latency_ms=latency_ms, bandwidth_mbps=bandwidth_mbps, loss_percent=loss)
    net.add_link("h1", "s1", cfg)
    net.add_link("h2", "s1", cfg)
    net.start(monitor=False)
    return sim, net


class TestCallLater:
    def test_runs_at_delay_with_args(self):
        sim = Simulator()
        fired = []
        sim.call_later(2.5, lambda a, b: fired.append((sim.now, a, b)), "x", 42)
        sim.run()
        assert fired == [(2.5, "x", 42)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-0.1, lambda: None)

    def test_call_at_takes_the_timestamp_as_given(self):
        sim = Simulator()
        fired = []
        a, b, c = 0.1, 0.2, 0.3
        sim.call_later(a, lambda: sim.call_at((sim.now + b) + c, lambda: fired.append(sim.now)))
        sim.run()
        # The caller's own chain of additions, not now + (b + c).
        assert fired == [(a + b) + c] and (a + b) + c != a + (b + c)

    def test_call_at_in_the_past_rejected(self):
        sim = Simulator(initial_time=5.0)
        with pytest.raises(ValueError):
            sim.call_at(4.9, lambda: None)

    def test_preserves_scheduling_order_at_same_time(self):
        sim = Simulator()
        order = []
        sim.call_later(1.0, order.append, "first")
        sim.timeout(1.0)
        sim.call_later(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_counts_as_processed_event(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 1

    def test_callback_may_schedule_more_work(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 5:
                sim.call_later(1.0, tick)

        sim.call_later(1.0, tick)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_step_dispatches_callbacks(self):
        sim = Simulator()
        fired = []
        sim.call_later(0.5, fired.append, "a")
        sim.step()
        assert fired == ["a"]
        with pytest.raises(EmptySchedule):
            sim.step()

    def test_run_until_idle_bounded_with_callbacks(self):
        sim = Simulator()
        seen = []
        for delay in (1.0, 2.0, 9.0):
            sim.call_later(delay, seen.append, delay)
        now = sim.run_until_idle(max_time=5.0)
        assert now == 5.0
        assert seen == [1.0, 2.0]


class TestConditionFastPaths:
    def test_any_of_with_already_processed_event(self):
        sim = Simulator()
        done = []

        def proc():
            fast = sim.timeout(1.0, value="fast")
            yield fast  # process it fully
            slow = sim.timeout(100.0, value="slow")
            result = yield sim.any_of([fast, slow])
            done.append((fast in result, slow in result, result[fast]))

        sim.process(proc())
        sim.run_until_idle(max_time=10.0)
        assert done == [(True, False, "fast")]

    def test_all_of_with_all_processed_events(self):
        sim = Simulator()
        done = []

        def proc():
            t1 = sim.timeout(1.0, value=1)
            t2 = sim.timeout(2.0, value=2)
            yield t1
            yield t2
            result = yield sim.all_of([t1, t2])
            done.append([result[t1], result[t2]])

        sim.process(proc())
        sim.run()
        assert done == [[1, 2]]

    def test_condition_value_membership_and_keyerror(self):
        sim = Simulator()
        outcome = {}

        def proc():
            t1 = sim.timeout(1.0, value="a")
            t2 = sim.timeout(5.0, value="b")
            result = yield sim.any_of([t1, t2])
            outcome["contains"] = (t1 in result, t2 in result)
            with pytest.raises(KeyError):
                result[t2]

        sim.process(proc())
        sim.run()
        assert outcome["contains"] == (True, False)


    def test_any_of_over_elided_and_pending_events(self):
        sim = Simulator()
        done = []

        def proc():
            elided = sim.event().succeed("inline")  # nobody waited: settled inline
            pending = sim.event()
            result = yield sim.any_of([pending, elided])
            done.append((sim.now, elided in result, pending in result, result[elided]))

        sim.process(proc())
        sim.run()
        assert done == [(0.0, True, False, "inline")]

    def test_all_of_over_elided_and_pending_events(self):
        sim = Simulator()
        done = []

        def proc():
            elided = sim.event().succeed(1)
            pending = sim.event()
            sim.call_later(2.0, pending.succeed, 2)
            timer = sim.timeout(1.0, value=3)
            result = yield sim.all_of([elided, pending, timer])
            done.append((sim.now, [result[e] for e in (elided, pending, timer)]))

        sim.process(proc())
        sim.run()
        assert done == [(2.0, [1, 2, 3])]

    def test_all_of_over_only_elided_events_fires_at_once(self):
        sim = Simulator()
        done = []

        def proc():
            yield sim.timeout(1.0)
            events = [sim.event().succeed(i) for i in range(3)]
            result = yield sim.all_of(events)
            done.append((sim.now, [result[e] for e in events]))

        sim.process(proc())
        sim.run()
        assert done == [(1.0, [0, 1, 2])]

class TestLinkConfigDerived:
    def test_derived_values_follow_mutation(self):
        cfg = LinkConfig(latency_ms=10.0, bandwidth_mbps=100.0, loss_percent=0.0)
        assert cfg.latency_s == pytest.approx(0.010)
        assert cfg.loss_probability == 0.0
        # Fault injectors mutate the config mid-run; derived floats must track.
        cfg.loss_percent = 25.0
        cfg.latency_ms = 200.0
        cfg.bandwidth_mbps = 10.0
        assert cfg.loss_probability == pytest.approx(0.25)
        assert cfg.latency_s == pytest.approx(0.2)
        assert cfg.serialization_delay(1000) == pytest.approx(1000 * 8 / 10e6)

    def test_unshaped_bandwidth_gives_zero_delay(self):
        cfg = LinkConfig(bandwidth_mbps=None)
        assert cfg.serialization_delay(10**9) == 0.0


class TestLossDropAccounting:
    def test_random_loss_is_counted_on_port_stats(self):
        sim, net = make_two_host_net(loss=100.0)
        net.host("h2").bind(5000, lambda pkt: None)
        for _ in range(10):
            net.host("h1").send("h2", "x", size=10, dst_port=5000)
        sim.run()
        link = net.link_between("h1", "s1")
        assert link.packets_dropped_loss == 10
        # The loss path must account drops like the link-down path does.
        assert net.host("h1").port.stats.tx_dropped == 10

    def test_link_down_and_loss_accounting_agree(self):
        sim, net = make_two_host_net()
        link = net.link_between("h1", "s1")
        link.set_down()
        net.host("h1").send("h2", "x", size=10, dst_port=5000)
        sim.run()
        # Port.transmit refuses packets while the link is down.
        assert net.host("h1").port.stats.tx_dropped == 1


class TestTransportPendingCleanup:
    def _two_hosts(self):
        sim, net = make_two_host_net(latency_ms=5.0)
        client = Transport(net.host("h1"))
        server = Transport(net.host("h2"))
        return sim, net, client, server

    def test_late_reply_after_timeout_is_dropped(self):
        sim, net, client, server = self._two_hosts()

        def slow_handler(request):
            yield sim.timeout(1.0)  # far longer than the client's timeout
            return "late"

        server.register(80, slow_handler)
        outcomes = []

        def caller():
            try:
                yield from client.request("h2", 80, "ping", timeout=0.1, retries=0)
                outcomes.append("replied")
            except RequestTimeout:
                outcomes.append("timeout")

        sim.process(caller())
        sim.run_until_idle(max_time=30.0)
        assert outcomes == ["timeout"]
        # The late reply must not leak a pending entry or resolve a stale id.
        assert client._pending == {}
        assert client.requests_failed == 1

    def test_interrupted_request_leaves_no_pending_entry(self):
        sim, net, client, server = self._two_hosts()
        # No handler registered: the request would wait out its full timeout.

        def caller():
            try:
                yield from client.request("h2", 80, "ping", timeout=60.0, retries=0)
            except Interrupt:
                pass

        proc = sim.process(caller())

        def interrupter():
            yield sim.timeout(0.5)
            proc.interrupt("teardown")

        sim.process(interrupter())
        sim.run_until_idle(max_time=5.0)
        assert client._pending == {}

    def test_successful_request_cleans_up(self):
        sim, net, client, server = self._two_hosts()
        server.register(80, lambda request: {"pong": request.payload})
        results = []

        def caller():
            reply = yield from client.request("h2", 80, "hi")
            results.append(reply)

        sim.process(caller())
        sim.run_until_idle(max_time=10.0)
        assert results == [{"pong": "hi"}]
        assert client._pending == {}


class TestTransportRequestPaths:
    """``Transport.request`` parks on the reply waiter; one expiry per attempt
    fails it.  Exceptions, counters and ``_pending`` cleanup are unchanged."""

    def _two_hosts(self, **kwargs):
        sim, net = make_two_host_net(latency_ms=5.0, **kwargs)
        return sim, net, Transport(net.host("h1")), Transport(net.host("h2"))

    def test_exhausted_retries_raise_request_timeout_and_count(self):
        sim, net, client, server = self._two_hosts(loss=100.0)
        server.register(80, lambda request: "never")
        errors = []

        def caller():
            try:
                yield from client.request("h2", 80, "ping", timeout=0.2, retries=2)
            except RequestTimeout as exc:
                errors.append((sim.now, str(exc)))

        sim.process(caller())
        sim.run()
        assert len(errors) == 1
        assert errors[0][0] == pytest.approx(0.6)
        assert "attempt 3/3" in errors[0][1]
        assert (client.requests_sent, client.requests_retried, client.requests_failed) == (3, 2, 1)
        assert client._pending == {}

    def test_retry_after_a_lost_attempt_returns_the_reply(self):
        sim, net, client, server = self._two_hosts()
        server.register(80, lambda request: {"pong": request.payload})
        link = net.link_between("h1", "s1")
        link.set_down()
        sim.call_later(0.3, link.set_up)
        replies = []

        def caller():
            replies.append((yield from client.request("h2", 80, "hi", timeout=0.5, retries=3)))

        sim.process(caller())
        sim.run()
        assert replies == [{"pong": "hi"}]
        assert (client.requests_retried, client.requests_failed) == (1, 0)
        assert client._pending == {}

    def test_remote_error_from_generator_handler_is_not_retried(self):
        sim, net, client, server = self._two_hosts()

        def failing_handler(request):
            yield sim.timeout(0.1)
            raise ValueError("boom")

        server.register(80, failing_handler)
        errors = []

        def caller():
            try:
                yield from client.request("h2", 80, "x", timeout=1.0, retries=3)
            except RemoteError as exc:
                errors.append(str(exc))

        sim.process(caller())
        sim.run()
        assert errors == ["ValueError: boom"]
        assert (client.requests_sent, client.requests_retried, client.requests_failed) == (1, 0, 0)
        assert client._pending == {}

    def test_round_trip_event_budget(self):
        """One request/reply on a two-host topology costs a pinned number of
        simulator events (exact for the topology, so gated with no slack)."""
        sim, net, client, server = self._two_hosts()
        server.register(80, lambda request: "pong")

        def caller():
            yield from client.request("h2", 80, "ping", size=64)

        sim.process(caller())
        sim.run()
        # caller start + 4 arrivals (request and reply, two links each; the
        # switch forwards, the serve process starts and the caller resumes
        # inside an arrival) + one sweep of the deadline heap.
        assert sim.processed_events == 6

    def test_shorter_timeout_behind_a_longer_one_expires_on_time(self):
        sim, net, client, server = self._two_hosts()
        outcomes = {}  # nothing is registered on h2: both requests time out

        def caller(name, delay, timeout):
            yield sim.timeout(delay)
            try:
                yield from client.request("h2", 80, name, timeout=timeout, retries=0)
            except RequestTimeout:
                outcomes[name] = sim.now

        sim.process(caller("long", 0.0, 5.0))
        sim.process(caller("short", 1.0, 0.5))  # armed: the sweep at 5.0
        sim.run()
        assert outcomes == {"short": 1.0 + 0.5, "long": 0.0 + 5.0}
        assert client._pending == {} and len(client._deadlines) == 0

    def test_answered_requests_cost_one_sweep_per_timeout_not_one_each(self):
        sim, net, client, server = self._two_hosts()
        server.register(80, lambda request: "pong")
        sweeps = []
        heap = client._deadlines
        heap._sweep = lambda sweep=heap._sweep: (sweeps.append(sim.now), sweep())
        timeout = 0.5

        def caller():
            for _ in range(1000):
                yield from client.request("h2", 80, "ping", size=64, timeout=timeout)

        sim.process(caller())
        sim.run()
        duration = sweeps[-1]
        assert 1000 * 0.020 < duration < 1000 * 0.021 + timeout  # ~20 ms a round trip
        assert len(sweeps) <= duration / timeout + 2
        assert client.requests_sent == 1000 and client.requests_retried == 0
        assert client._pending == {} and len(client._deadlines) == 0

    def test_start_runs_the_first_step_in_the_calling_callback(self):
        sim = Simulator()
        steps = []

        def worker():
            steps.append(("first", sim.now, sim.active_process is not None))
            yield sim.timeout(1.0)
            steps.append(("second", sim.now))
            return "done"

        started = []
        sim.call_later(2.0, lambda: (started.append(sim.start(worker())), steps.append("back")))
        assert sim.run(until=4.0) is None
        assert steps == [("first", 2.0, True), "back", ("second", 3.0)]
        assert started[0].value == "done"
        # The 2.0 callback, the 1.0 timeout, run()'s deadline: no start entry.
        assert sim.processed_events == 3

    def test_start_from_inside_a_process_raises(self):
        sim = Simulator()
        errors = []

        def inner():
            yield sim.timeout(1.0)

        def outer():
            child = inner()
            try:
                sim.start(child)
            except RuntimeError as exc:
                errors.append(str(exc))
                child.close()
            yield sim.timeout(0.1)

        sim.process(outer(), name="outer")
        sim.run()
        assert len(errors) == 1 and "outer" in errors[0]

    def test_succeed_now_resumes_the_waiter_in_the_calling_callback(self):
        sim = Simulator()
        steps = []
        wake = sim.event()

        def waiter():
            value = yield wake
            steps.append(("woken", sim.now, value))

        sim.process(waiter())
        sim.call_later(2.0, lambda: (wake.succeed_now("go"), steps.append("back")))
        sim.run()
        assert steps == [("woken", 2.0, "go"), "back"] and wake.processed
        # The waiter's start and the 2.0 callback: no wake-up entry.
        assert sim.processed_events == 2

    def test_succeed_now_inside_a_process_goes_through_the_heap(self):
        sim = Simulator()
        steps = []
        wake = sim.event()

        def waiter():
            steps.append(("woken", (yield wake)))

        def waker():
            yield sim.timeout(1.0)
            wake.succeed_now("go")
            steps.append("waker went on")

        sim.process(waiter())
        sim.process(waker())
        sim.run()
        assert steps == ["waker went on", ("woken", "go")]

    def test_succeed_now_on_the_event_run_waits_for_still_ends_the_run(self):
        sim = Simulator()
        marker = sim.event()
        sim.call_later(2.0, marker.succeed_now, "fired")
        sim.call_later(5.0, lambda: None)
        assert sim.run(until=marker) == "fired" and sim.now == 2.0
