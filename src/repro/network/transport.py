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

A handler registered on a service port runs inside the request's arrival.
It returns the reply — a payload or a :class:`Response` — or
:data:`DEFERRED` when the reply leaves later: at a CPU charge's completion
time (:meth:`Request.after`) or when a parked wait is released
(:meth:`Request.answer`).  No request is served by a process of its own.
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


#: What a handler returns when its reply leaves later (see :class:`Request`).
DEFERRED = object()


class Request:
    """The object handed to service handlers, and the handle that answers it.

    A handler that cannot reply in its arrival returns :data:`DEFERRED` and
    leaves a continuation: :meth:`after` for a reply built at a CPU charge's
    completion time, :meth:`answer` for one built when a parked wait is
    released.  Either way the continuation's result is the reply, an
    exception in it reaches the caller as :class:`RemoteError`, and a
    continuation may itself return ``DEFERRED`` and continue later.
    """

    __slots__ = ("payload", "src", "src_port", "size", "created_at", "_transport", "_id")

    def __init__(self, transport: "Transport", packet: Packet) -> None:
        self.payload = packet.payload
        self.src = packet.src
        self.src_port = packet.src_port
        self.size = packet.size
        self.created_at = packet.created_at
        self._transport = transport
        self._id = packet.headers["request_id"]

    def answer(self, fn: Callable, *args: Any) -> None:
        """Reply now with ``fn(*args)``."""
        self._transport._answer(self, fn, args)

    def after(self, done: float, fn: Callable, *args: Any) -> Any:
        """Reply with ``fn(*args)``, run at ``done`` — the completion time
        ``Host.compute`` returned, scheduled as given.  A charge that completes
        now (zero work on an idle core) runs ``fn`` inline and returns its
        result; otherwise returns :data:`DEFERRED`."""
        sim = self._transport.sim
        if done == sim.now:
            return fn(*args)
        sim.call_at(done, self._transport._answer, self, fn, args)
        return DEFERRED


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

        ``handler(request: Request)`` returns a payload, a :class:`Response`,
        or :data:`DEFERRED` (it answers ``request`` later).
        """
        if port >= REPLY_PORT:
            raise ValueError(
                f"ports >= {REPLY_PORT} are reserved for transport replies"
            )
        if port not in self._handlers:
            # Host.bind raises if another endpoint on this host owns the port.
            self.host.bind(port, lambda packet, p=port: self._on_request(packet, p))
        self._handlers[port] = handler

    def _on_request(self, packet: Packet, port: int) -> None:
        self.requests_served += 1
        request = Request(self, packet)
        self._answer(request, self._handlers[port], (request,))

    def _answer(self, request: Request, fn: Callable, args: tuple) -> None:
        """Run one step of serving ``request`` and send its reply, unless the
        step returned :data:`DEFERRED`."""
        error: Optional[str] = None
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - remote errors travel to the caller
            error = f"{type(exc).__name__}: {exc}"
            result = None
        else:
            if result is DEFERRED:
                return
        if isinstance(result, Response):
            payload, size = result.payload, result.size
        else:
            payload, size = result, None
        self.host.send(
            dst=request.src,
            payload=payload,
            size=size if size is not None else estimate_size(payload),
            dst_port=request.src_port,
            src_port=0,
            headers={"request_id": request._id, "error": error},
        )

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
            # requesting generator being closed or garbage-collected while a
            # request is in flight.  (Successful replies were already removed
            # by _on_reply; pop is a no-op then.)
            if request_id is not None:
                self._pending.pop(request_id, None)
