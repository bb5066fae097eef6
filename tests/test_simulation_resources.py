"""Unit tests for Resource, the counted resource behind ``Host.cpu``."""

import pytest

from repro.simulation import Resource, Simulator


def test_resource_limits_concurrency():
    sim = Simulator()
    cpu = Resource(sim, capacity=2)
    running = []
    max_running = []

    def worker(name):
        request = cpu.request()
        yield request
        running.append(name)
        max_running.append(len(running))
        yield sim.timeout(1.0)
        running.remove(name)
        cpu.release(request)

    for i in range(5):
        sim.process(worker(f"w{i}"))
    sim.run()
    assert max(max_running) == 2
    assert sim.now == pytest.approx(3.0)


def test_resource_release_wakes_waiter():
    sim = Simulator()
    lock = Resource(sim, capacity=1)
    acquired_at = []

    def holder():
        request = lock.request()
        yield request
        yield sim.timeout(2.0)
        lock.release(request)

    def waiter():
        request = lock.request()
        yield request
        acquired_at.append(sim.now)
        lock.release(request)

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert acquired_at == [2.0]


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    assert res.available == 3
    req = res.request()
    assert req.triggered
    assert res.in_use == 1
    assert res.available == 2
    res.release(req)
    assert res.in_use == 0


def test_resource_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)
