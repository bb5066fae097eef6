"""Tests for the key-value store, table store and networked store server."""

import pytest

from repro.network.topology import one_big_switch
from repro.simulation import Simulator
from repro.store import KeyValueStore, StoreClient, StoreServer, TableStore


class TestKeyValueStore:
    def test_put_get_delete(self):
        store = KeyValueStore()
        store.put("a", 1)
        assert store.get("a") == 1
        assert store.get("missing", "default") == "default"
        assert store.delete("a") is True
        assert store.delete("a") is False
        assert len(store) == 0

    def test_overwrite_updates_size_accounting(self):
        store = KeyValueStore()
        store.put("k", "x" * 100)
        size_before = store.bytes_stored
        store.put("k", "y" * 10)
        assert store.bytes_stored < size_before
        assert len(store) == 1

    def test_mutating_a_stored_value_does_not_skew_the_accounting(self):
        store = KeyValueStore()
        value = {"count": 1}
        store.put("k", value)
        value["note"] = "x" * 100
        store.put("k", {"count": 2})
        assert store.bytes_stored == 16
        store.delete("k")
        assert store.bytes_stored == 0

    def test_increment(self):
        store = KeyValueStore()
        assert store.increment("counter") == 1
        assert store.increment("counter", 5) == 6
        assert store.get("counter") == 6

    def test_scan_with_prefix(self):
        store = KeyValueStore()
        store.put("user:1", "a")
        store.put("user:2", "b")
        store.put("order:1", "c")
        assert [k for k, _ in store.scan("user:")] == ["user:1", "user:2"]
        assert len(store.scan()) == 3

    def test_operation_counters(self):
        store = KeyValueStore()
        store.put("a", 1)
        store.get("a")
        store.delete("a")
        assert (store.puts, store.gets, store.deletes) == (1, 1, 1)

    def test_contains_and_iter(self):
        store = KeyValueStore()
        store.put("x", 1)
        assert "x" in store
        assert list(iter(store)) == ["x"]
        store.clear()
        assert store.bytes_stored == 0


class TestTableStore:
    def test_upsert_and_get(self):
        store = TableStore()
        store.upsert("ships", "ship-1", {"port": "halifax", "count": 3})
        row = store.get("ships", "ship-1")
        assert row.get("port") == "halifax"
        assert row.get("missing", 0) == 0

    def test_upsert_merges_columns(self):
        store = TableStore()
        store.upsert("t", "k", {"a": 1})
        store.upsert("t", "k", {"b": 2})
        row = store.get("t", "k")
        assert row.columns == {"a": 1, "b": 2}

    def test_select_filter_order_limit(self):
        store = TableStore()
        for i in range(10):
            store.upsert("rides", i, {"tip": float(i), "area": "A" if i % 2 else "B"})
        rows = store.select(
            "rides",
            where=lambda row: row.get("area") == "A",
            order_by="tip",
            descending=True,
            limit=2,
        )
        assert [row.get("tip") for row in rows] == [9.0, 7.0]

    def test_delete_and_count(self):
        store = TableStore()
        store.upsert("t", 1, {"v": 1})
        store.upsert("t", 2, {"v": 2})
        assert store.table("t").count() == 2
        assert store.delete("t", 1) is True
        assert store.table("t").count(lambda row: row.get("v") == 2) == 1

    def test_bytes_stored_tracks_tables(self):
        store = TableStore()
        assert store.bytes_stored == 0
        store.upsert("t", 1, {"payload": "x" * 200})
        assert store.bytes_stored >= 200

    def test_mutating_a_returned_row_does_not_skew_the_accounting(self):
        store = TableStore()
        store.upsert("t", "k", {"count": 1})
        store.get("t", "k").columns["note"] = "x" * 100
        store.delete("t", "k")
        assert store.bytes_stored == 0

    def test_table_names(self):
        store = TableStore()
        store.upsert("beta", 1, {})
        store.upsert("alpha", 1, {})
        assert store.table_names() == ["alpha", "beta"]


class TestStoreServer:
    def _setup(self):
        sim = Simulator(seed=2)
        net = one_big_switch(sim, ["app", "db"])
        server = StoreServer(net.host("db"))
        client = StoreClient(net.host("app"), store_host="db")
        return sim, net, server, client

    def test_remote_put_and_get(self):
        sim, net, server, client = self._setup()
        results = []

        def scenario():
            yield from client.put("greeting", "hello")
            value = yield from client.get("greeting")
            results.append(value)

        sim.process(scenario())
        sim.run()
        assert results == ["hello"]
        assert server.operations_served == 2

    def test_remote_increment(self):
        sim, net, server, client = self._setup()
        results = []

        def scenario():
            yield from client.increment("hits")
            reply = yield from client.increment("hits", 4)
            results.append(reply["value"])

        sim.process(scenario())
        sim.run()
        assert results == [5]

    def test_remote_upsert_and_select(self):
        sim, net, server, client = self._setup()
        rows_seen = []

        def scenario():
            yield from client.upsert("ships", "s1", {"count": 2})
            yield from client.upsert("ships", "s2", {"count": 5})
            rows = yield from client.select("ships")
            rows_seen.extend(rows)

        sim.process(scenario())
        sim.run()
        assert len(rows_seen) == 2
        assert {row["key"] for row in rows_seen} == {"s1", "s2"}

    def test_put_async_from_sink_path(self):
        sim, net, server, client = self._setup()
        client.put_async("results", "k1", {"value": 42})
        client.put_async("results", "k2", "plain")
        sim.run()
        assert server.tables.get("results", "k1").get("value") == 42
        assert server.tables.get("results", "k2").get("value") == "plain"

    def test_missing_key_returns_none(self):
        sim, net, server, client = self._setup()
        results = []

        def scenario():
            value = yield from client.get("nope")
            results.append(value)

        sim.process(scenario())
        sim.run()
        assert results == [None]

    def test_unknown_operation_rejected(self):
        sim, net, server, client = self._setup()
        replies = []

        def scenario():
            reply = yield from client._call({"op": "drop-table"})
            replies.append(reply)

        sim.process(scenario())
        sim.run()
        assert replies[0]["ok"] is False
