"""Micro-batch stream processing engine (Apache Spark Streaming substitute).

The engine mirrors the subset of Spark Streaming that the paper's example
applications use:

* a :class:`StreamingContext` bound to a driver host, with a configurable
  micro-batch interval;
* DStream-style operator chaining (``map``, ``flat_map``, ``filter``,
  ``map_pairs``, ``repartition_by_key``, ``reduce_by_key``,
  ``group_by_key``, ``window``, ``join``, ``update_state_by_key``,
  ``for_each``);
* receivers that ingest records from the event streaming platform
  (:class:`KafkaSource`) and sinks that write back to it, to data stores or
  to in-memory collections;
* an executor cost model that charges per-record processing time to the
  host's CPU, so job runtimes scale with input volume and saturate with core
  count — the behaviours Figures 5, 7a and 7b rely on;
* one columnar plane (:mod:`repro.engine.columns`): a micro-batch is a
  :class:`ColumnBatch` from the broker fetch slice through every operator
  kernel to the sink; a per-record ``StreamRecord`` is built only as the row
  view a per-record user callback receives.  See
  ``docs/vectorized_engine.md``.
"""

from repro.engine.columns import ColumnBatch
from repro.engine.context import StreamingContext, StreamingConfig
from repro.engine.dstream import DStream
from repro.engine.executor import ExecutorConfig
from repro.engine.sinks import KafkaSink, MemorySink, StoreSink
from repro.engine.sources import KafkaSource, MemorySource, MergingSource

__all__ = [
    "StreamingContext",
    "StreamingConfig",
    "ColumnBatch",
    "DStream",
    "ExecutorConfig",
    "KafkaSource",
    "MemorySource",
    "MergingSource",
    "KafkaSink",
    "MemorySink",
    "StoreSink",
]
