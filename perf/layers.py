"""Isolated layer drivers: one short wall-timed loop per ``*_per_s`` metric.

Each driver calls only public functions of one layer, with inputs shaped
like the workloads', and returns ``(units of work, seconds)`` for one pass.
:func:`run_all` reports the median rate of five in-process passes after one
warm-up.  These are the per-layer numbers an optimisation of that layer
should move first; the end-to-end claim is still made on a workload.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, Tuple

from repro.broker.batch import RecordBatch
from repro.broker.log import PartitionLog
from repro.broker.segment import LogStorageConfig
from repro.engine.columns import ColumnBatch
from repro.engine.context import StreamingContext
from repro.engine.records import StreamRecord
from repro.network.link import LinkConfig
from repro.network.topology import one_big_switch
from repro.network.transport import Transport
from repro.simulation import Simulator
from repro.workloads.text import generate_documents

from perf.workloads import OUT_DIR, ReplaySpe, replay_chain, seeded_uint32

Pass = Tuple[int, float]


def _timed_run(sim: Simulator, work: int) -> Pass:
    started = time.perf_counter()
    sim.run()
    return work, time.perf_counter() - started


# -- simulation -----------------------------------------------------------------------
def call_later_events(n: int) -> Pass:
    sim = Simulator(seed=1)
    remaining = [n]

    def tick():
        remaining[0] -= 1
        if remaining[0]:
            sim.call_later(0.001, tick)

    sim.call_later(0.001, tick)
    return _timed_run(sim, n)


def process_timeout_events(n: int) -> Pass:
    sim = Simulator(seed=1)

    def looper():
        for _ in range(n):
            yield sim.timeout(0.001)

    sim.process(looper())
    return _timed_run(sim, n)


# -- network --------------------------------------------------------------------------
def _two_hosts(sim: Simulator):
    return one_big_switch(
        sim, ["h1", "h2"], default_config=LinkConfig(latency_ms=1.0, bandwidth_mbps=1000.0)
    )


def packet_round_trips(n: int) -> Pass:
    """64 B ping-pong: host -> link -> switch -> link -> host and back."""
    sim = Simulator(seed=1)
    network = _two_hosts(sim)
    h1, h2 = network.host("h1"), network.host("h2")
    remaining = [n]

    def pong(packet):
        h2.send("h1", "pong", size=64, dst_port=2)

    def ping(packet):
        remaining[0] -= 1
        if remaining[0]:
            h1.send("h2", "ping", size=64, dst_port=1)

    h2.bind(1, pong)
    h1.bind(2, ping)
    h1.send("h2", "ping", size=64, dst_port=1)
    return _timed_run(sim, n)


def transport_requests(n: int) -> Pass:
    """``Transport.register`` / ``request`` RPC loop between two hosts."""
    sim = Simulator(seed=1)
    network = _two_hosts(sim)
    server = Transport(network.host("h2"))
    server.register(9000, lambda request: {"echo": request.payload["index"]})
    client = Transport(network.host("h1"))

    def caller():
        for index in range(n):
            yield from client.request("h2", 9000, {"type": "echo", "index": index}, size=64)

    sim.process(caller())
    return _timed_run(sim, n)


# -- broker.log -----------------------------------------------------------------------
def _fill_log(log: PartitionLog, values, maintain: bool = False) -> None:
    """512-record produce batches carrying producer-identity columns."""
    step = ReplaySpe.APPEND_BATCH
    for at in range(0, len(values), step):
        chunk = values[at:at + step]
        batch = RecordBatch("bench", 0, producer_id=1, producer_epoch=0, base_sequence=at)
        batch.keys = [value % 1024 for value in chunk]
        batch.values = chunk
        batch.sizes = [ReplaySpe.RECORD_SIZE] * len(chunk)
        batch.produced_ats = [0.0] * len(chunk)
        batch.total_size = ReplaySpe.RECORD_SIZE * len(chunk)
        log.append_batch(batch, timestamp=at * 1e-6, leader_epoch=0)
        if maintain:
            log.maybe_maintain(at * 1e-6)


def _scan(log: PartitionLog) -> Pass:
    started = time.perf_counter()
    offset = log.log_start_offset
    scanned = 0
    while offset < log.log_end_offset:
        batch = log.read_batch(offset, max_records=5000)
        scanned += len(batch)
        offset = batch.next_offset
    return scanned, time.perf_counter() - started


def log_drivers(values, directory: str) -> Dict[str, Callable[[], Pass]]:
    segment_records = ReplaySpe.SIZES["full"]["segment_records"]
    hot_storage = LogStorageConfig(segment_records=segment_records)
    # retention_bytes=1: every maintenance pass evicts every sealed segment.
    cold_storage = LogStorageConfig(
        segment_records=segment_records, retention_bytes=1, segment_dir=directory
    )
    hot = PartitionLog("bench", 0, storage=hot_storage)
    _fill_log(hot, values)
    cold = PartitionLog("bench", 0, storage=cold_storage, file_tag="cold")
    _fill_log(cold, values, maintain=True)

    def append() -> Pass:
        log = PartitionLog("bench", 0, storage=hot_storage)
        started = time.perf_counter()
        _fill_log(log, values)
        return len(log), time.perf_counter() - started

    def cold_read() -> Pass:
        cold.maybe_maintain(1.0)
        return _scan(cold)

    def recover() -> Pass:
        started = time.perf_counter()
        log = PartitionLog.recover("bench", 0, cold_storage, file_tag="cold")
        return len(log), time.perf_counter() - started

    return {
        "broker.log.append_records_per_s": append,
        "broker.log.read_records_per_s": lambda: _scan(hot),
        "broker.log.cold_read_records_per_s": cold_read,
        "broker.log.recover_records_per_s": recover,
    }


# -- engine ---------------------------------------------------------------------------
def engine_drivers(values) -> Dict[str, Callable[[], Pass]]:
    """The ``replay_spe`` chain on a memory stream, both execution planes."""
    sim = Simulator(seed=1)
    context = StreamingContext(one_big_switch(sim, ["spe"]).host("spe"))
    stream = replay_chain(context.memory_stream())
    count = len(values)
    columns = ColumnBatch(
        values=values,
        keys=[None] * count,
        event_times=[0.0] * count,
        ingest_times=[0.0] * count,
        sizes=[ReplaySpe.RECORD_SIZE] * count,
    )
    records = [StreamRecord(value, size=ReplaySpe.RECORD_SIZE) for value in values]

    def run(execute, batch) -> Pass:
        stream.reset_state()
        started = time.perf_counter()
        output = execute(batch, 0.0)
        elapsed = time.perf_counter() - started
        assert len(output) > 0
        return count, elapsed

    return {
        "engine.columnar_records_per_s": lambda: run(stream.execute_columns, columns),
        "engine.record_path_records_per_s": lambda: run(stream.execute, records),
    }


# -- workloads ------------------------------------------------------------------------
def documents(n: int, seed: int) -> Pass:
    started = time.perf_counter()
    generated = generate_documents(n, seed=seed)
    return len(generated), time.perf_counter() - started


def run_all(seed: int, size: str) -> Dict[str, float]:
    """Median rate per driver (one pass at smoke size)."""
    scale, repeats = (1.0, 5) if size == "full" else (0.05, 1)

    def n(full: int) -> int:
        return max(1, int(full * scale))

    values = seeded_uint32(seed, n(100_000))
    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="layers-log-", dir=OUT_DIR)
    try:
        drivers: Dict[str, Callable[[], Pass]] = {
            "simulation.call_later_events_per_s": lambda: call_later_events(n(150_000)),
            "simulation.process_timeout_events_per_s": lambda: process_timeout_events(n(60_000)),
            "network.packet_round_trips_per_s": lambda: packet_round_trips(n(6_000)),
            "network.transport_requests_per_s": lambda: transport_requests(n(3_000)),
            **log_drivers(values, directory),
            **engine_drivers(values),
            "workloads.documents_per_s": lambda: documents(n(150), seed),
        }
        rates = {}
        for name, driver in drivers.items():
            driver()  # warm-up
            passes = [driver() for _ in range(repeats)]
            rates[name] = statistics.median(work / seconds for work, seconds in passes)
        return rates
    finally:
        shutil.rmtree(directory, ignore_errors=True)
