"""Reliable request/response transport on top of the packet network.

Every distributed component in the reproduction (brokers, producers,
consumers, stream processing engines, data stores) talks over this layer.  It
provides the subset of TCP + RPC semantics the paper's systems rely on:

* request/response matching via request ids;
* retransmission after a timeout (lost packets, downed links);
* an overall request timeout after which the caller observes a failure —
  exactly the ``requestTimeout`` producer knob that drives the latency
  inflation discussed around Figure 6c;
* remote errors propagated back to the caller as :class:`RemoteError`.

Handlers registered on a service port may be plain functions returning a
response payload, or generator functions that take simulated time (yielding
events) before returning their response.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Dict, Optional

from repro.network.host import Host
from repro.network.packet import Packet, estimate_size
from repro.simulation.deadlines import DeadlineHeap


class RequestTimeout(Exception):
    """Raised when a request exhausts its retries without a response."""


class RemoteError(Exception):
    """Raised when the remote handler raised an exception."""


#: What an attempt's reply waiter fires with when its timeout passes first.  A
#: value, not a failure: a timeout is an expected outcome of ``request``, and
#: ``generator.throw`` both costs more and makes cProfile (3.11) lose its call
#: stack, which would blind the benchmark's traced run.
_EXPIRED = object()


@dataclass
class Request:
    """The object handed to service handlers."""

    payload: Any
    src: str
    src_port: int
    size: int
    created_at: float


@dataclass
class Response:
    """Handlers may return a Response to control the reply size explicitly."""

    payload: Any
    size: Optional[int] = None


_request_ids = count(1)

#: Base of the ephemeral port range used for transport-level replies.
REPLY_PORT = 60000


class Transport:
    """Per-host RPC endpoint.

    Multiple transports (one per application component) can coexist on the
    same host: each one binds its own ephemeral reply port, so responses are
    dispatched to the component that issued the request.
    """

    def __init__(self, host: Host, default_timeout: float = 2.0, max_retries: int = 3) -> None:
        if default_timeout <= 0:
            raise ValueError("default_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.host = host
        self.sim = host.sim
        self.default_timeout = default_timeout
        self.max_retries = max_retries
        self._pending: Dict[int, Any] = {}
        # Each attempt's request id, expired at its deadline unless answered.
        self._deadlines = DeadlineHeap(
            self.sim, lambda request_id: request_id not in self._pending, self._expire
        )
        self._handlers: Dict[int, Callable] = {}
        self.requests_sent = 0
        self.requests_retried = 0
        self.requests_failed = 0
        self.requests_served = 0
        self.reply_port = host.allocate_port()
        host.bind(self.reply_port, self._on_reply)

    # -- server side ----------------------------------------------------------------
    def register(self, port: int, handler: Callable) -> None:
        """Expose ``handler`` on ``port``.

        ``handler(request: Request)`` may return a payload, a
        :class:`Response`, or be a generator that yields simulation events
        before returning its result.
        """
        if port >= REPLY_PORT:
            raise ValueError(
                f"ports >= {REPLY_PORT} are reserved for transport replies"
            )
        self._handlers[port] = handler
        if not self.host.is_bound(port):
            self.host.bind(port, lambda packet, p=port: self._on_request(packet, p))

    def unregister(self, port: int) -> None:
        self._handlers.pop(port, None)
        self.host.unbind(port)

    def _on_request(self, packet: Packet, port: int) -> None:
        handler = self._handlers.get(port)
        if handler is None:
            return
        request_id = packet.headers.get("request_id")
        request = Request(
            payload=packet.payload,
            src=packet.src,
            src_port=packet.src_port,
            size=packet.size,
            created_at=packet.created_at,
        )
        # Only ever reached from a heap callback (arrival, loopback delivery).
        self.sim.start(
            self._serve(handler, request, packet.src, request_id, packet.src_port),
            name=f"{self.host.name}:serve:{port}",
        )

    def _serve(
        self,
        handler: Callable,
        request: Request,
        reply_to: str,
        request_id: Any,
        reply_port: int,
    ):
        self.requests_served += 1
        error: Optional[str] = None
        result: Any = None
        try:
            result = handler(request)
            if hasattr(result, "send") and hasattr(result, "throw"):
                # A generator handler runs inside this serve process.
                result = yield from result
        except Exception as exc:  # noqa: BLE001 - remote errors travel to the caller
            error = f"{type(exc).__name__}: {exc}"
        if request_id is None:
            return None
        if isinstance(result, Response):
            payload, size = result.payload, result.size
        else:
            payload, size = result, None
        self.host.send(
            dst=reply_to,
            payload=payload,
            size=size if size is not None else estimate_size(payload),
            dst_port=reply_port,
            src_port=0,
            headers={"request_id": request_id, "error": error},
        )
        return None

    # -- client side ------------------------------------------------------------------
    def _on_reply(self, packet: Packet) -> None:
        request_id = packet.headers.get("request_id")
        waiter = self._pending.pop(request_id, None)
        if waiter is None:
            return  # Late or duplicate reply; drop it.
        error = packet.headers.get("error")
        if waiter.triggered:
            return
        if error is not None:
            waiter.fail(RemoteError(error))
        else:
            # Only ever reached from a heap callback (arrival, loopback
            # delivery): the caller resumes inside it, no entry of its own.
            waiter.succeed_now(packet.payload)

    def _expire(self, request_id: int) -> None:
        waiter = self._pending.pop(request_id)
        if not waiter.triggered:
            waiter.succeed(_EXPIRED)

    def request(
        self,
        dst: str,
        port: int,
        payload: Any,
        size: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ):
        """Generator: issue a request and return the response payload.

        Usage (inside a simulation process)::

            response = yield from transport.request("broker1", 9092, produce_req)

        Raises :class:`RequestTimeout` when all attempts time out and
        :class:`RemoteError` when the handler raised.
        """
        attempt_timeout = timeout if timeout is not None else self.default_timeout
        attempts = (retries if retries is not None else self.max_retries) + 1
        wire_size = size if size is not None else estimate_size(payload)
        last_error: Optional[Exception] = None
        request_id: Optional[int] = None
        try:
            for attempt in range(attempts):
                request_id = next(_request_ids)
                waiter = self.sim.event()
                self._pending[request_id] = waiter
                self.requests_sent += 1
                if attempt > 0:
                    self.requests_retried += 1
                self.host.send(
                    dst=dst,
                    payload=payload,
                    size=wire_size,
                    dst_port=port,
                    src_port=self.reply_port,
                    headers={"request_id": request_id},
                )
                # The deadline fires the waiter this process is parked on,
                # unless the reply got there first.
                self._deadlines.push(self.sim.now + attempt_timeout, request_id)
                outcome = yield waiter
                if outcome is not _EXPIRED:
                    return outcome
                # The sweep deregistered the (now stale) request id, so a late
                # reply cannot resolve it; retry under a fresh id.
                last_error = RequestTimeout(
                    f"{self.host.name} -> {dst}:{port} timed out after {attempt_timeout}s "
                    f"(attempt {attempt + 1}/{attempts})"
                )
            self.requests_failed += 1
            raise last_error if last_error is not None else RequestTimeout("request failed")
        finally:
            # Covers every exit: error replies, exhausted retries, and the
            # requesting process being interrupted / garbage-collected while a
            # request is in flight.  (Successful replies were already removed
            # by _on_reply; pop is a no-op then.)
            if request_id is not None:
                self._pending.pop(request_id, None)

    def request_event(
        self,
        dst: str,
        port: int,
        payload: Any,
        size: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ):
        """Run :meth:`request` as a standalone process and return its Process event.

        Useful for fire-and-forget or fan-out patterns where the caller wants
        to wait on several outstanding requests at once.
        """
        return self.sim.process(
            self.request(dst, port, payload, size=size, timeout=timeout, retries=retries),
            name=f"{self.host.name}:request:{dst}:{port}",
        )

    def notify(self, dst: str, port: int, payload: Any, size: Optional[int] = None) -> None:
        """One-way message with no response and no retries (e.g. metrics, gossip)."""
        self.host.send(
            dst=dst,
            payload=payload,
            size=size if size is not None else estimate_size(payload),
            dst_port=port,
            src_port=self.reply_port,
            headers={},
        )
