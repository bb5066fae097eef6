"""Networked data store server and client.

The store server exposes a key-value / table store over the emulated network
(the way the paper's maritime monitoring pipeline writes its results into an
external MySQL instance).  Requests pay a small CPU cost on the store host and
the usual network round trip, so storage placement affects end-to-end latency
exactly like any other pipeline component.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.network.host import Host
from repro.network.packet import estimate_size
from repro.network.transport import Request, RequestTimeout, Response, Transport
from repro.store.kvstore import KeyValueStore
from repro.store.table import TableStore

STORE_PORT = 3306

#: Reply size of a ``put`` / ``upsert`` acknowledgement, sized once at import
#: instead of on every reply.
_OK_SIZE = estimate_size({"ok": True})

#: CPU seconds the store host spends on each request.
CPU_PER_OPERATION = 40e-6


class StoreServer:
    """A data store process bound to an emulated host."""

    def __init__(
        self,
        host: Host,
        name: Optional[str] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.name = name or f"store-{host.name}"
        self.kv = KeyValueStore(name=f"{self.name}-kv")
        self.tables = TableStore(name=f"{self.name}-tables")
        self.transport = Transport(host)
        self.operations_served = 0
        self.transport.register(STORE_PORT, self._handle)
        host.register_component(self)

    def _handle(self, request: Request):
        payload = request.payload or {}
        operation = payload.get("op")

        def serve():
            self.operations_served += 1
            if operation == "put":
                self.kv.put(payload["key"], payload["value"])
                return Response({"ok": True}, _OK_SIZE)
            if operation == "get":
                return {"ok": True, "value": self.kv.get(payload["key"])}
            if operation == "increment":
                value = self.kv.increment(payload["key"], payload.get("amount", 1))
                return {"ok": True, "value": value}
            if operation == "upsert":
                self.tables.upsert(payload["table"], payload["key"], payload["columns"])
                return Response({"ok": True}, _OK_SIZE)
            if operation == "select":
                rows = self.tables.select(payload["table"])
                return {
                    "ok": True,
                    "rows": [
                        {"key": row.key, "columns": dict(row.columns)} for row in rows
                    ],
                }
            if operation == "scan":
                return {"ok": True, "items": self.kv.scan(payload.get("prefix"))}
            return {"ok": False, "error": f"unknown operation {operation!r}"}

        return request.after(self.host.compute(CPU_PER_OPERATION), serve)


class StoreClient:
    """Client-side handle to a remote store server."""

    def __init__(self, host: Host, store_host: str, timeout: float = 2.0) -> None:
        self.host = host
        self.sim = host.sim
        self.store_host = store_host
        self.timeout = timeout
        self.transport = Transport(host, default_timeout=timeout, max_retries=2)
        self.operations_sent = 0
        self.operations_failed = 0

    # -- synchronous-style generator API -------------------------------------------------
    def put(self, key: Any, value: Any):
        """Generator: store a key-value pair and return once acknowledged."""
        return self._call({"op": "put", "key": key, "value": value})

    def get(self, key: Any):
        """Generator: fetch a value (returns None when missing)."""
        def run():
            reply = yield from self._call({"op": "get", "key": key})
            return reply.get("value") if reply else None

        return run()

    def increment(self, key: Any, amount: float = 1):
        return self._call({"op": "increment", "key": key, "amount": amount})

    def upsert(self, table: str, key: Any, columns: Dict[str, Any]):
        return self._call({"op": "upsert", "table": table, "key": key, "columns": columns})

    def select(self, table: str):
        def run():
            reply = yield from self._call({"op": "select", "table": table})
            return reply.get("rows", []) if reply else []

        return run()

    def _call(self, payload: dict):
        def run():
            self.operations_sent += 1
            try:
                reply = yield from self.transport.request(
                    self.store_host, STORE_PORT, payload, timeout=self.timeout
                )
            except RequestTimeout:
                self.operations_failed += 1
                return None
            return reply

        return run()

    # -- fire-and-forget API used by sinks ---------------------------------------------------
    def put_async(self, table: str, key: Any, value: Any) -> None:
        """Issue an upsert without waiting for the acknowledgement."""
        if isinstance(value, dict):
            columns = value
        else:
            columns = {"value": value}
        self.sim.process(
            self._swallow(self.upsert(table, key, columns)),
            name=f"store-client:{self.host.name}:put_async",
        )

    def _swallow(self, generator):
        yield from generator
