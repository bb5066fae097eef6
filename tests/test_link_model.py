"""The link's reference model: one shaped link against ~40 lines of plain Python.

A link is store-and-forward, per direction: a packet handed over at ``t``
starts serializing at ``start = max(t, busy_until)``, has left the
transmitter at ``launch = start + wire_size * 8 / bps`` (the direction's new
``busy_until``) and reaches the far port at ``launch + latency``.  Its fate is
decided by four questions, in this order: link down when it was handed over
(the port refuses it: a port drop, the link never saw it) / down at its launch
instant (even if the link is back up when it would arrive) / lost (one RNG per
link, shared by both directions, drawn in launch order) / down at its arrival
instant.

``ReferenceLink`` computes that from the whole schedule up front — it never
runs a simulator — and the hypothesis property holds ``repro.network.Link`` to
it over arbitrary ``(time, direction, size)`` transmit schedules x ``set_down``
/ ``set_up`` toggles x shaped / unshaped x loss 0 / 30 %: exact-float arrival
times, per-direction FIFO, every link counter and the sending ports'
``tx_dropped``.

Outside the reference (examples are rejected, not asserted): instants that tie
exactly (a toggle on a launch or arrival instant, two opposite launches at one
instant on a lossy link — the order is whatever the heap's sequence numbers
say), and a backlog that outlives the outage that caught it: when a packet was
dropped at its launch, the link this file was written against also flushed
everything queued behind it at that instant, the reference judges each of
those by its own launch instant.  The two agree unless the link came back up
before such a packet's own launch, so only that case is rejected.
"""

from dataclasses import dataclass, field

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.network import Host, Link, LinkConfig
from repro.network.packet import HEADER_OVERHEAD_BYTES
from repro.simulation import Simulator

SEED = 5
LINK_NAME = "a:1<->b:1"


class OutsideReference(Exception):
    """The schedule holds one of the cases the module docstring sets aside."""


def within_reference(condition):
    if not condition:
        raise OutsideReference


@dataclass
class ReferenceLink:
    bits_per_second: float
    latency: float
    loss: float
    outages: list  # [(down_at, up_at)], in time order; up_at may be inf
    busy_until: list = field(default_factory=lambda: [0.0, 0.0])
    delivered: int = 0
    dropped_down: int = 0
    dropped_loss: int = 0
    tx_dropped: list = field(default_factory=lambda: [0, 0])
    dropped_at_arrival: list = field(default_factory=lambda: [0, 0])
    arrivals: list = field(default_factory=lambda: [[], []])

    def outage_at(self, when):
        for outage in self.outages:
            within_reference(when not in outage)  # an exact tie: outside the reference
            if outage[0] < when < outage[1]:
                return outage
        return None

    def run(self, sends):
        """``sends``: ``(time, direction, size, tag)`` in hand-over order."""
        launched = []
        for time, direction, size, tag in sends:
            if self.outage_at(time):
                self.tx_dropped[direction] += 1
                continue
            start = max(time, self.busy_until[direction])
            launch = start + (size + HEADER_OVERHEAD_BYTES) * 8 / self.bits_per_second
            self.busy_until[direction] = launch
            launched.append((launch, len(launched), time, direction, tag))
        rng = Simulator(seed=SEED).rng(f"link-loss:{LINK_NAME}")
        launched.sort()
        for index, (launch, _order, time, direction, tag) in enumerate(launched):
            if self.loss and index and launched[index - 1][0] == launch:
                within_reference(launched[index - 1][3] == direction)
            outage = self.outage_at(launch)
            if outage:
                # What was queued behind it must be caught by the same outage.
                for behind in launched[index + 1:]:
                    if behind[3] == direction and behind[2] < launch:
                        within_reference(self.outage_at(behind[0]) is outage)
                self.dropped_down += 1
                self.tx_dropped[direction] += 1
            elif rng.bernoulli(self.loss):
                self.dropped_loss += 1
                self.tx_dropped[direction] += 1
            elif self.outage_at(launch + self.latency):
                self.dropped_down += 1
                self.dropped_at_arrival[direction] += 1
            else:
                self.delivered += 1
                self.arrivals[direction].append((launch + self.latency, tag))
        return self


def run_real_link(config, sends, toggles):
    """Drive one ``Link`` between two hosts; what each far side saw, and the link."""
    sim = Simulator(seed=SEED)
    hosts = [Host(sim, "a"), Host(sim, "b")]
    link = Link(sim, hosts[0].port, hosts[1].port, config)
    assert link.name == LINK_NAME
    arrivals = [[], []]
    for direction, receiver in enumerate(reversed(hosts)):
        receiver.bind(
            7, lambda packet, seen=arrivals[direction]: seen.append((sim.now, packet.payload))
        )
    actions = [(time, 0, direction, size, tag) for time, direction, size, tag in sends]
    actions += [(time, 1, index) for index, time in enumerate(toggles)]
    for action in sorted(actions):
        if action[1] == 0:
            _time, _kind, direction, size, tag = action
            sim.call_later(
                action[0], hosts[direction].send, hosts[1 - direction].name, tag, size, 7
            )
        else:
            sim.call_later(action[0], link.set_up if action[2] % 2 else link.set_down)
    sim.run()
    return arrivals, link, hosts


def outages_of(toggles):
    ends = toggles[1::2] + [float("inf")]
    return [(down, up) for down, up in zip(toggles[0::2], ends)]


#: Sends land on a 1 ms grid and toggles 0.1 ms off a 0.25 ms grid, so a toggle
#: never ties with a hand-over; ties with a launch or an arrival are rejected.
send_schedules = st.lists(
    st.tuples(
        st.integers(0, 120).map(lambda ms: ms / 1000.0),
        st.integers(0, 1),
        st.sampled_from([0, 64, 1000, 1500]),
    ),
    min_size=1,
    max_size=30,
).map(lambda sends: [send + (tag,) for tag, send in enumerate(sorted(sends))])
toggle_schedules = st.lists(
    st.integers(0, 600), max_size=6, unique=True
).map(lambda quarters: [q * 0.00025 + 0.0001 for q in sorted(quarters)])
link_configs = st.builds(
    LinkConfig,
    latency_ms=st.sampled_from([0.0, 0.7, 5.0, 50.0]),
    # 1 Mbit/s: a 1500 B packet holds the transmitter for 12.5 ms, so sends on
    # the 1 ms grid queue back to back; None is unshaped (zero serialization).
    bandwidth_mbps=st.sampled_from([None, 1.0, 100.0]),
    loss_percent=st.sampled_from([0.0, 30.0]),
)


@settings(max_examples=300)
@given(config=link_configs, sends=send_schedules, toggles=toggle_schedules)
def test_link_matches_the_reference(config, sends, toggles):
    model = ReferenceLink(
        config.bits_per_second, config.latency_s, config.loss_probability, outages_of(toggles)
    )
    try:
        model.run(sends)
    except OutsideReference:
        reject()
    arrivals, link, hosts = run_real_link(config, sends, toggles)
    # Exact floats, in order: same timestamps and per-direction FIFO.
    assert arrivals == model.arrivals
    assert (link.packets_delivered, link.packets_dropped_down, link.packets_dropped_loss) == (
        model.delivered, model.dropped_down, model.dropped_loss,
    )
    for direction, host in enumerate(hosts):
        # A drop at the arrival instant is the one whose port counter is not
        # pinned here (tests/test_network_basic.py does): none, or all of them.
        unpinned = host.port.stats.tx_dropped - model.tx_dropped[direction]
        assert unpinned in (0, model.dropped_at_arrival[direction])


@settings(max_examples=100)
@given(config=link_configs, sends=send_schedules, toggles=toggle_schedules)
def test_directions_are_independent_without_loss(config, sends, toggles):
    """Each direction has its own transmitter: what one side receives does not
    depend on what it sends (loss off — the loss RNG is the one shared thing)."""
    config.loss_percent = 0.0
    both, _link, _hosts = run_real_link(config, sends, toggles)
    for direction in (0, 1):
        alone = [send for send in sends if send[1] == direction]
        assert run_real_link(config, alone, toggles)[0][direction] == both[direction]


def test_reference_covers_the_paths_it_is_for():
    """Back-to-back queueing, a launch inside an outage, a drop at the arrival
    instant and a flap shorter than the propagation delay — by hand, so the
    schedule space provably holds them (hypothesis explores, it does not
    promise)."""
    slow = LinkConfig(latency_ms=5.0, bandwidth_mbps=1.0, loss_percent=0.0)
    wire = (1000 + HEADER_OVERHEAD_BYTES) * 8 / 1e6  # 8.528 ms on the transmitter
    sends = [(0.0, 0, 1000, 0), (0.0, 0, 1000, 1), (0.020, 0, 1000, 2), (0.021, 0, 1000, 3)]
    launches = [wire, wire + wire, 0.020 + wire, (0.020 + wire) + wire]
    # Packet 1 queues behind packet 0 and launches inside the first outage (it
    # would arrive after it); packet 2 arrives inside the second; the third is
    # over while packet 3, queued behind packet 2, is still propagating.
    toggles = [0.014, 0.0181, 0.033, 0.034, 0.040, 0.041]
    assert launches[0] + 0.005 < 0.014 < launches[1] < 0.0181 < launches[1] + 0.005
    assert 0.033 < launches[2] + 0.005 < 0.034
    assert launches[3] < 0.040 < 0.041 < launches[3] + 0.005
    arrivals, link, hosts = run_real_link(slow, sends, toggles)
    model = ReferenceLink(1e6, 0.005, 0.0, outages_of(toggles)).run(sends)
    assert arrivals == model.arrivals
    assert arrivals == [[(launches[0] + 0.005, 0), (launches[3] + 0.005, 3)], []]
    assert (link.packets_delivered, link.packets_dropped_down) == (2, 2)
    assert model.tx_dropped == [1, 0] and model.dropped_at_arrival == [1, 0]
