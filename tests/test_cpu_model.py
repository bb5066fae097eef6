"""``Host.compute`` against a reference FIFO multi-server.

A host's CPU is ``cores`` identical servers shared first come, first served:
a job that arrives at ``t`` with ``duration`` CPU-seconds of work starts on
the core that frees first (at once if one is idle), runs for ``duration /
share`` seconds (``share = cpu_percentage / 100``) and completes.  The
reference below keeps one free time per core in a plain list; hypothesis
draws arrival times, durations (zero included), core counts, caps and
equal-timestamp ties, and every job's completion time must be the same float.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.host import Host
from repro.simulation import Simulator


def reference_completions(jobs, cores, cpu_percentage):
    """``jobs`` as ``(arrival, duration)`` in arrival order (ties in list
    order); returns each job's completion time."""
    free = [float("-inf")] * cores
    share = cpu_percentage / 100.0
    completions = []
    for arrival, duration in jobs:
        core = min(range(cores), key=lambda index: free[index])
        start = free[core] if free[core] > arrival else arrival
        free[core] = start + duration / share
        completions.append(free[core])
    return completions


def simulated_completions(jobs, cores, cpu_percentage):
    """Each job charges ``Host.compute`` at its arrival; its completion is the
    time the charge's waiter resumes."""
    sim = Simulator()
    host = Host(sim, "h", cpu_percentage=cpu_percentage, cores=cores)
    completions = [None] * len(jobs)

    def job(index, duration):
        done = host.compute(duration)
        if done > sim.now:
            yield sim.timeout_at(done)
        completions[index] = sim.now

    for index, (arrival, duration) in enumerate(jobs):
        sim.call_at(arrival, lambda i=index, d=duration: sim.start(job(i, d)))
    sim.run()
    return completions


# Dyadic grids make ties exact: arrivals that coincide with each other and
# with other jobs' completions.
ARRIVALS = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)
DURATIONS = st.one_of(
    st.just(0.0),
    st.integers(min_value=1, max_value=8).map(lambda k: k * 0.25),
    st.floats(min_value=1e-6, max_value=3.0),
)
CAPS = st.sampled_from([100.0, 50.0, 25.0, 80.0, 37.5, 12.5])


@settings(max_examples=400)
@given(
    arrivals=st.lists(ARRIVALS, min_size=1, max_size=24),
    durations=st.lists(DURATIONS, min_size=24, max_size=24),
    cores=st.integers(min_value=1, max_value=4),
    cpu_percentage=CAPS,
)
def test_compute_is_a_fifo_multi_server(arrivals, durations, cores, cpu_percentage):
    jobs = list(zip(sorted(arrivals), durations))
    assert simulated_completions(jobs, cores, cpu_percentage) == reference_completions(
        jobs, cores, cpu_percentage
    )


def test_a_zero_charge_on_an_idle_core_stays_inline():
    sim = Simulator()
    host = Host(sim, "h", cores=1)
    # Nothing reserved and nothing scheduled: the caller goes on at once.
    assert host.compute(0.0) == 0.0
    assert host._core_free_at == [] and sim.peek() == float("inf")
    # On a busy core a zero charge still queues behind the work ahead of it.
    done = host.compute(1.0)
    assert host.compute(0.0) == done == 1.0


def test_a_completion_is_waited_for_at_its_absolute_time():
    sim = Simulator()
    host = Host(sim, "h", cores=1)
    host.compute(0.7)  # the one core is busy until 0.7
    woken = []

    def job():
        yield sim.timeout_at(host.compute(0.1))
        woken.append(sim.now)

    sim.call_at(0.2, lambda: sim.start(job()))
    sim.run()
    assert woken == [0.7 + 0.1]
    # What a delay relative to the charge's time would have given instead.
    assert 0.2 + ((0.7 + 0.1) - 0.2) != 0.7 + 0.1


def test_cores_cannot_change_once_one_is_reserved():
    sim = Simulator()
    host = Host(sim, "h", cores=2)
    host.set_cores(4)
    host.compute(0.0)  # reserves nothing
    host.set_cores(1)
    host.compute(1.0)
    with pytest.raises(ValueError, match="reserved"):
        host.set_cores(8)
    assert host.cores == 1
