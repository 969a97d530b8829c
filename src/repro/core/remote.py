"""Socket-based remote evaluator backend: fault-tolerant multi-host fan-out.

The shared-memory evaluator (:mod:`repro.core.parallel`) is bounded by one
machine.  Its snapshot protocol — a static weights segment written once
plus per-batch residual matrices — is transport-agnostic, and this module
ships it over TCP sockets instead:

``repro worker serve`` / :class:`WorkerServer`
    A worker *server*: it listens on ``host:port``, accepts any number of
    evaluator connections (one thread each) and, per connection, receives
    the static weights exactly once (the ``hello``), then scores batches of
    tasks with :func:`repro.core.best_response.score_response` — the same
    pure kernel the serial engine and the shared-memory workers run — and
    streams the results back.  A server holds no game state beyond what its
    connections sent it, so one server can serve many games and many
    sessions over its lifetime.

``RemoteEvaluator`` / :class:`EndpointSet`
    The client side, implementing the
    :class:`~repro.core.parallel.EvaluatorBackend` protocol so it drops
    into :class:`~repro.core.incremental.IncrementalEngine` /
    :class:`~repro.core.session.GameSession` exactly like a
    :class:`~repro.core.parallel.ParallelEvaluator`.  Endpoints live in an
    :class:`EndpointSet` that tracks per-endpoint connection state and
    failure/retry counters and supports :meth:`RemoteEvaluator.add_endpoint`
    / :meth:`RemoteEvaluator.remove_endpoint` between batches — the fleet
    is elastic, not a static list.  Connections open lazily on the first
    ``evaluate`` (``pools_started`` counts set establishments — transitions
    from "no live connection" to "some" — mirroring the local pool counter
    so :class:`~repro.core.session.SessionStats` instrumentation works
    unchanged).  Each batch is split into contiguous shards (one per live
    endpoint, empty shards are never shipped), each distinct residual
    matrix is shipped at most once per shard, and results are gathered
    shard by shard — i.e. in **submission order**, so trajectories are
    bit-identical to the serial engine and to every other backend.

Failure semantics (the point of this fleet being *production-grade*; see
``docs/architecture.md`` for the full state machine):

* **deadlines** — after the handshake every socket runs with
  ``settimeout(batch_timeout)``, so a hung worker surfaces as an endpoint
  failure within the deadline instead of blocking ``recv`` forever;
* **shard retry** — an endpoint that fails mid-batch (connection error,
  timeout, protocol violation or a worker-side ``error`` reply) has only
  *its* connection dropped; its shard is re-dispatched to the surviving
  endpoints (up to ``max_retries`` re-dispatch rounds per batch).  Scoring
  tasks are pure and results cross the wire bit-exactly, so redistribution
  cannot change the trajectory.  A batch fails — with
  :class:`RemoteEvaluatorError` — only when *every* endpoint is dead or the
  retry budget is exhausted;
* **lazy rejoin** — a failed endpoint is re-connected (full handshake) at
  the start of the *next* batch, so a restarted worker rejoins the fleet
  without poisoning the sweep; the ``ping`` protocol verb backs the
  :meth:`RemoteEvaluator.check_endpoints` health check;
* **circuit breaker** (opt-in via :class:`BreakerPolicy`) — an endpoint
  failing ``trip_after`` consecutive times *trips*: it leaves the
  per-batch reconnect path and is re-probed only when its capped
  exponential backoff (deterministic, seed-jittered) expires, so a dead
  fleet costs one connect attempt per backoff expiry instead of one per
  batch.  :meth:`RemoteEvaluator.revive` is the never-raising probe the
  session's failover ladder polls for promotion.

Wire format (version ``5``): every frame is an 8-byte big-endian length
prefix followed by that many payload bytes.  A *message* is one JSON header
frame optionally followed by raw-buffer frames it announces — matrices
travel as raw C-order ``float64`` bytes, **never pickled**:

* client → server ``hello``: ``{"kind": "hello", "protocol": 5, "n": n,
  "alpha": alpha}`` + 1 raw frame holding the ``(n, n)`` weight matrix
  (shipped once per connection; host weights are static for a game).
  With a shared secret configured the hello also carries ``auth_nonce``
  (a fresh client nonce) and ``auth_mac`` — an HMAC-SHA256 over the
  nonce and the hello parameters keyed by the token — and the worker
  must prove *its* knowledge of the token back via ``auth_proof`` in the
  ``ready`` reply (mutual challenge/response; a mismatch on either side
  is a clean :class:`RemoteEvaluatorError`, never a hang).  Pre-hello
  ``ping`` probes stay unauthenticated by design: health checks carry no
  game state, and the breaker must be able to probe a fleet it cannot
  yet authenticate to;
* server → client ``ready``: ``{"kind": "ready", "pid": ...}`` (plus
  ``auth_proof`` when authenticating);
* client → server ``batch``: ``{"kind": "batch", "response": ...,
  "max_candidates": ..., "matrices": [descriptor...], "tasks": [[agent,
  matrix_index, [strategy...]], ...]}`` + one frame per descriptor.  A
  descriptor is ``{"enc": "dense"}`` for a raw ``(n, n)`` matrix frame or
  ``{"enc": "delta", "base": b, "rows": k}`` for a packed residual-delta
  frame (:mod:`repro.core.residual_delta` layout: a little-endian
  ``uint64`` row count, ``k`` sorted little-endian ``int64`` row indices,
  then the ``k`` changed rows as raw C-order ``float64``) decoded against
  the dense matrix at descriptor index ``b``.  Under
  ``residual_encoding="dense"`` every descriptor is dense; under
  ``"delta"`` the first distinct matrix of a shard ships dense and serves
  as the shard's base, and a later matrix ships as a delta only when its
  packed delta is strictly smaller than the dense frame, so the encoding
  never inflates a shard;
* server → client ``results``: ``{"kind": "results", "results": [[agent,
  [strategy...], cost_hex, current_cost_hex, method], ...]}`` — costs are
  serialized with :meth:`float.hex`, which round-trips every ``float``
  (including ``inf``) bit-exactly, so remote results equal serial ones
  under exact float equality;
* client → server ``ping``: ``{"kind": "ping"}`` — answered with
  ``{"kind": "pong", "pid": ...}``; accepted both *before* the hello (a
  ping-only probe needs no weights) and between batches (liveness check on
  an established connection);
* client → server ``bye``: ``{"kind": "bye"}`` ends the connection; a
  server-side failure answers ``{"kind": "error", "message": ...}``
  instead of results.

Ownership rules are the same as for the local backend: whoever creates a
:class:`RemoteEvaluator` closes it (a session-injected evaluator survives
every per-run engine teardown), and closing the evaluator closes its
*connections* only — the worker servers keep serving.

:func:`spawn_local_worker` / :func:`local_workers` start worker servers as
local child processes on OS-assigned (or caller-pinned) ports; they exist
for the tests, the benchmarks and single-machine smoke runs — production
workers run ``python -m repro.cli worker serve`` wherever the instances
should be scored.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import hmac
import json
import multiprocessing as mp
import os
import secrets
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .best_response import BestResponseResult, score_tasks
from .faults import FaultInjector, FaultPlan
from .parallel import RESIDUAL_ENCODINGS, EvaluatorError, EvaluatorStats
from .residual_delta import (
    DeltaResidual,
    delta_if_smaller,
    packed_size,
    unpack_delta,
)

if TYPE_CHECKING:  # import cycle: game sits above the evaluator layer
    from multiprocessing.connection import Connection

    from .game import NetworkCreationGame

__all__ = [
    "PROTOCOL_VERSION",
    "BreakerPolicy",
    "RemoteEvaluatorError",
    "RemoteEvaluator",
    "EndpointSet",
    "WorkerServer",
    "serve",
    "spawn_local_worker",
    "local_workers",
]

# Version 2 added the ping/pong health-check verb (accepted pre-hello and
# between batches); version 3 added the optional HMAC shared-secret
# challenge/response folded into hello/ready; version 4 added a delta_batch
# verb shipping residuals as packed deltas against a dense base frame;
# version 5 folded the two batch verbs into one ``batch`` whose matrices
# are always a descriptor list.  Client and server versions must match
# exactly.
PROTOCOL_VERSION = 5

_LEN = struct.Struct("!Q")
# A frame can at most hold one dense (n, n) float64 matrix; 1 GiB bounds
# n around 11_000 and, more importantly, turns a corrupted/foreign length
# prefix into an immediate protocol error instead of an endless recv.
_MAX_FRAME = 1 << 30

# Inactivity deadline (seconds) applied to every socket operation of a
# batch exchange once the handshake is done.  A worker that produces no
# bytes for this long is treated as failed and its shard is re-dispatched.
DEFAULT_BATCH_TIMEOUT = 120.0
# Re-dispatch rounds allowed per batch before the batch fails.  Each round
# requires at least one endpoint failure (which removes that endpoint from
# the round's fan-out), so rounds are also bounded by the endpoint count.
DEFAULT_MAX_RETRIES = 2


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class RemoteEvaluatorError(EvaluatorError):
    """Protocol violation, worker-side failure or unexpected disconnect.

    Derives from :class:`~repro.core.parallel.EvaluatorError` so the
    session's failover ladder catches one type for every backend.
    """


def _auth_mac(token: str, *parts: str) -> str:
    """HMAC-SHA256 over ``parts`` keyed by the shared secret, hex-encoded."""
    message = "|".join(parts).encode()
    return hmac.new(token.encode(), message, hashlib.sha256).hexdigest()


def _send_frame(sock: socket.socket, payload: bytes | bytearray | memoryview) -> int:
    """Send one length-prefixed frame; returns the bytes put on the wire."""
    view = memoryview(payload)
    sock.sendall(_LEN.pack(view.nbytes))
    sock.sendall(view)
    return _LEN.size + view.nbytes


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    """Receive exactly ``size`` bytes; ``None`` on clean EOF before any byte."""
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if not chunks:
                return None
            raise RemoteEvaluatorError(
                f"connection closed mid-frame ({size - remaining}/{size} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> bytes | None:
    """Receive one frame; ``None`` on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (size,) = _LEN.unpack(header)
    if size > _MAX_FRAME:
        raise RemoteEvaluatorError(f"oversized frame announced ({size} bytes)")
    if size == 0:
        return b""
    payload = _recv_exact(sock, size)
    if payload is None:
        raise RemoteEvaluatorError("connection closed after a frame header")
    return payload


def _send_json(sock: socket.socket, obj: dict[str, Any]) -> int:
    return _send_frame(sock, json.dumps(obj, separators=(",", ":")).encode())


def _recv_json(sock: socket.socket) -> dict | None:
    frame = _recv_frame(sock)
    if frame is None:
        return None
    try:
        header = json.loads(frame.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RemoteEvaluatorError(f"malformed header frame: {exc}") from exc
    if not isinstance(header, dict):
        raise RemoteEvaluatorError(f"header must be an object, got {type(header).__name__}")
    return header


# ----------------------------------------------------------------------
# Result serialization (bit-exact)
# ----------------------------------------------------------------------
def _pack_result(result: BestResponseResult) -> list[Any]:
    return [
        int(result.agent),
        sorted(int(v) for v in result.strategy),
        float(result.cost).hex(),
        float(result.current_cost).hex(),
        str(result.method),
    ]


def _unpack_result(data: Sequence[Any]) -> BestResponseResult:
    agent, strategy, cost_hex, current_hex, method = data
    return BestResponseResult(
        agent=int(agent),
        strategy=frozenset(int(v) for v in strategy),
        cost=float.fromhex(cost_hex),
        current_cost=float.fromhex(current_hex),
        method=str(method),
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _pong(conn: socket.socket) -> None:
    _send_json(conn, {"kind": "pong", "pid": os.getpid(), "protocol": PROTOCOL_VERSION})


class _InjectedKill(BaseException):
    """Control flow of an injected endpoint kill: abrupt drop, no error reply.

    Derives from ``BaseException`` so the handler's generic ``Exception``
    clause — which politely reports failures back to the client — does not
    catch it: a killed endpoint must die silently, exactly like a real
    SIGKILL.
    """


def _verify_hello_auth(
    token: str | None, hello: dict[str, Any], n: int, alpha: float
) -> None:
    """Enforce the protocol-3 shared-secret challenge (both directions).

    Called only after the weights frame has been consumed, so the error
    reply is never destroyed by a TCP reset over unread client data.
    """
    nonce = hello.get("auth_nonce")
    mac = hello.get("auth_mac")
    if token is None:
        if mac is not None:
            raise RemoteEvaluatorError(
                "authentication failed: client sent a shared-secret proof but "
                "this worker has no --auth-token configured"
            )
        return
    if not isinstance(nonce, str) or not isinstance(mac, str):
        raise RemoteEvaluatorError(
            "authentication failed: this worker requires a shared secret "
            "(--auth-token) and the client sent no credentials"
        )
    expected = _auth_mac(token, "hello", nonce, str(int(n)), float(alpha).hex())
    if not hmac.compare_digest(mac, expected):
        raise RemoteEvaluatorError("authentication failed: shared-secret mismatch")


def _handle_connection(
    conn: socket.socket,
    auth_token: str | None = None,
    injector: FaultInjector | None = None,
    kill: Callable[[], None] | None = None,
) -> None:
    """Serve one evaluator connection: (pings,) hello, then batches until bye/EOF.

    ``injector``/``kill`` are the deterministic fault-injection seam (see
    :mod:`repro.core.faults`): when set, the injector is consulted once per
    received batch — after the batch is fully read, before it is scored —
    and ``kill`` takes the whole endpoint down for ``kind="kill"`` faults.
    Both are ``None`` outside chaos tests and ``repro chaos`` runs.
    """
    try:
        # Ping-only probes (health checks, breaker re-probes) need no
        # hello — and no authentication, by design: answer any number of
        # pings, then expect the hello (or a bye / clean EOF).
        hello = _recv_json(conn)
        while hello is not None and hello.get("kind") == "ping":
            _pong(conn)
            hello = _recv_json(conn)
        if hello is None or hello.get("kind") == "bye":
            return  # probed and dropped (health checks, port scans)
        if hello.get("kind") != "hello":
            raise RemoteEvaluatorError(f"expected hello, got {hello.get('kind')!r}")
        if hello.get("protocol") != PROTOCOL_VERSION:
            raise RemoteEvaluatorError(
                f"protocol mismatch: server speaks {PROTOCOL_VERSION}, "
                f"client sent {hello.get('protocol')!r}"
            )
        n = int(hello["n"])
        alpha = float(hello["alpha"])
        raw = _recv_frame(conn)
        if raw is None or len(raw) != n * n * 8:
            raise RemoteEvaluatorError("weights frame missing or mis-sized")
        _verify_hello_auth(auth_token, hello, n, alpha)
        # The static segment of the snapshot protocol: received once per
        # connection, read for every batch.  frombuffer views are read-only,
        # which is exactly right — scoring never writes its inputs.
        weights = np.frombuffer(raw, dtype=np.float64).reshape(n, n)
        ready = {"kind": "ready", "pid": os.getpid()}
        if auth_token is not None:
            # Mutual authentication: prove this worker holds the secret too,
            # so a client never ships batches to an impostor endpoint.
            ready["auth_proof"] = _auth_mac(auth_token, "ready", hello["auth_nonce"])
        _send_json(conn, ready)
        while True:
            header = _recv_json(conn)
            if header is None or header.get("kind") == "bye":
                return
            if header.get("kind") == "ping":  # liveness check between batches
                _pong(conn)
                continue
            if header.get("kind") != "batch":
                raise RemoteEvaluatorError(
                    f"expected batch, got {header.get('kind')!r}"
                )
            # Injection point: consulted once per batch, right after the
            # header.  ``hang_mid_frame`` fires *now* — the client is left
            # mid-send on the residual frames — while every other kind is
            # stashed and fired after the frames are fully read (the
            # client is never left mid-send), nothing scored or answered
            # yet either way.
            fault = injector.next_fault() if injector is not None else None
            if fault is not None and fault.kind == "hang_mid_frame":
                prefix = _recv_exact(conn, _LEN.size)
                if prefix is not None:
                    (size,) = _LEN.unpack(prefix)
                    # Half the first residual frame: a partially-received
                    # delta (or dense) frame, then a stall.
                    _recv_exact(conn, min(size, size // 2 + 1))
                time.sleep(fault.duration)
                return
            matrices: list[np.ndarray | DeltaResidual] = []
            for descriptor in header["matrices"]:
                frame = _recv_frame(conn)
                if frame is None:
                    raise RemoteEvaluatorError("residual frame missing")
                if descriptor.get("enc") == "delta":
                    base_index = int(descriptor["base"])
                    rows = int(descriptor["rows"])
                    base = (
                        matrices[base_index]
                        if 0 <= base_index < len(matrices)
                        else None
                    )
                    if not isinstance(base, np.ndarray):
                        raise RemoteEvaluatorError(
                            f"delta descriptor references base {base_index}, "
                            "which is not an earlier dense matrix"
                        )
                    if len(frame) != packed_size(rows, n):
                        raise RemoteEvaluatorError("residual delta frame mis-sized")
                    matrices.append(DeltaResidual(base, unpack_delta(frame, n)))
                elif descriptor.get("enc") == "dense":
                    if len(frame) != n * n * 8:
                        raise RemoteEvaluatorError("residual frame mis-sized")
                    matrices.append(
                        np.frombuffer(frame, dtype=np.float64).reshape(n, n)
                    )
                else:
                    raise RemoteEvaluatorError(
                        f"unknown frame encoding {descriptor.get('enc')!r}"
                    )
            if fault is not None:
                if fault.kind == "kill":
                    if kill is not None:
                        kill()
                    raise _InjectedKill
                if fault.kind == "error":
                    _send_json(
                        conn,
                        {"kind": "error", "message": "injected fault: error reply"},
                    )
                    return
                if fault.kind == "garbage":
                    _send_frame(conn, b"\xfe\xedinjected protocol garbage")
                    return
                if fault.kind == "hang":
                    time.sleep(fault.duration)
                    # ...then score normally: a *stalled* worker, which
                    # the client's batch deadline must turn into an
                    # endpoint failure.
            results = score_tasks(
                [
                    (agent, matrices[int(matrix_index)], strategy)
                    for agent, matrix_index, strategy in header["tasks"]
                ],
                weights,
                alpha,
                str(header["response"]),
                max_candidates=int(header["max_candidates"]),
            )
            _send_json(
                conn,
                {"kind": "results", "results": [_pack_result(r) for r in results]},
            )
    except Exception as exc:  # noqa: BLE001 - reported to the client, connection dropped
        with contextlib.suppress(OSError):
            _send_json(conn, {"kind": "error", "message": f"{type(exc).__name__}: {exc}"})
    except _InjectedKill:
        pass  # abrupt drop: no error reply, the endpoint is "dead"
    finally:
        with contextlib.suppress(OSError):
            conn.close()


class WorkerServer:
    """A scoring server: accepts evaluator connections, one thread each.

    Binds immediately (``port=0`` lets the OS pick — read it back from
    :attr:`port`); :meth:`serve_forever` blocks in the accept loop until
    :meth:`shutdown` closes the listening socket.  Connection threads are
    daemons: an in-flight batch never blocks process exit.

    ``auth_token`` arms the protocol-3 shared-secret handshake: every
    connection must present a matching HMAC in its hello (and receives the
    server's counter-proof in ``ready``).  ``fault_plan``/``worker_index``
    arm deterministic fault injection (:mod:`repro.core.faults`);
    ``kill_mode`` selects what an injected ``kill`` does — ``"shutdown"``
    (default; close the listening socket and drop the connection, for
    in-process servers) or ``"exit"`` (``os._exit(1)``, for servers that
    own their process).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 16,
        auth_token: str | None = None,
        fault_plan: FaultPlan | None = None,
        worker_index: int = 0,
        kill_mode: str = "shutdown",
    ) -> None:
        if kill_mode not in ("shutdown", "exit"):
            raise ValueError(
                f"unknown kill_mode {kill_mode!r} (expected 'shutdown' or 'exit')"
            )
        # Deadline-free by design: the listening socket only ever blocks in
        # accept(), and shutdown() unblocks it by closing the fd.
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)  # repro-lint: disable=NET001
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self.host, self.port = self._sock.getsockname()[:2]
        self._auth_token = auth_token
        self._kill_mode = kill_mode
        self.injector = (
            None
            if fault_plan is None
            else FaultInjector(fault_plan, worker_index=worker_index)
        )

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def _kill_endpoint(self) -> None:
        """An injected ``kill`` fault fired: take the endpoint down."""
        if self._kill_mode == "exit":
            os._exit(1)
        self.shutdown()  # reconnect attempts now fail: the endpoint is gone

    def serve_forever(self) -> None:
        while True:
            try:
                # Deadline-free by design: all client sockets carry the
                # deadlines (connect_timeout/batch_timeout); a server thread
                # parked in recv() is a daemon and dies with the process.
                conn, _addr = self._sock.accept()  # repro-lint: disable=NET001
            except OSError:
                return  # listening socket closed by shutdown()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=_handle_connection,
                args=(conn, self._auth_token, self.injector, self._kill_endpoint),
                daemon=True,
            ).start()

    def shutdown(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    auth_token: str | None = None,
    fault_plan: FaultPlan | None = None,
    worker_index: int = 0,
) -> None:
    """Run a worker server until interrupted (the ``repro worker serve`` entry).

    Prints the bound endpoint as the first output line so launchers that
    requested ``port=0`` can parse the OS-assigned port.  This server owns
    its process, so injected ``kill`` faults exit the process outright.
    """
    server = WorkerServer(
        host,
        port,
        auth_token=auth_token,
        fault_plan=fault_plan,
        worker_index=worker_index,
        kill_mode="exit",
    )
    print(f"repro worker listening on {server.endpoint}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        server.shutdown()


def _worker_process_main(
    host: str,
    port: int,
    pipe: "Connection",
    auth_token: str | None = None,
    fault_plan: FaultPlan | None = None,
    worker_index: int = 0,
) -> None:  # pragma: no cover - child process
    server = WorkerServer(
        host,
        port,
        auth_token=auth_token,
        fault_plan=fault_plan,
        worker_index=worker_index,
        kill_mode="exit",
    )
    pipe.send(server.port)
    pipe.close()
    server.serve_forever()


def spawn_local_worker(
    host: str = "127.0.0.1",
    *,
    port: int = 0,
    start_method: str | None = None,
    auth_token: str | None = None,
    fault_plan: FaultPlan | None = None,
    worker_index: int = 0,
) -> tuple[mp.process.BaseProcess, str]:
    """Start a worker server in a child process; returns ``(process, endpoint)``.

    The child binds ``port`` (default 0 = OS-assigned — pin it to restart a
    worker on a known endpoint, e.g. in rejoin tests) and reports the bound
    port through a pipe, so the returned endpoint is immediately
    connectable — no sleep-and-retry races.  Terminate the process to stop
    the worker.  ``auth_token`` and ``fault_plan``/``worker_index`` are
    forwarded to the child's :class:`WorkerServer`.
    """
    if start_method is None and "fork" in mp.get_all_start_methods():
        start_method = "fork"
    ctx = mp.get_context(start_method)
    parent, child = ctx.Pipe()
    process = ctx.Process(
        target=_worker_process_main,
        args=(host, int(port), child, auth_token, fault_plan, worker_index),
        daemon=True,
    )
    process.start()
    child.close()
    bound_port = parent.recv()
    parent.close()
    return process, f"{host}:{bound_port}"


def _reap_processes(
    processes: Sequence[mp.process.BaseProcess], *, timeout: float = 10.0
) -> None:
    """Terminate worker processes, escalating to ``kill`` — never leaks a child.

    ``terminate`` (SIGTERM) is polite but advisory: a child that ignores or
    blocks the signal would survive a plain ``join(timeout)`` and leak.
    Survivors are ``kill``-ed (SIGKILL, uncatchable) and joined again.
    """
    for process in processes:
        with contextlib.suppress(ValueError):  # already closed handles
            process.terminate()
    for process in processes:
        process.join(timeout=timeout)
    stubborn = [process for process in processes if process.is_alive()]
    for process in stubborn:
        process.kill()
    for process in stubborn:
        process.join(timeout=timeout)


@contextlib.contextmanager
def local_workers(
    count: int, host: str = "127.0.0.1", *, reap_timeout: float = 10.0
) -> Iterator[list[str]]:
    """``count`` local worker-server processes, reliably reaped on exit."""
    processes: list[mp.process.BaseProcess] = []
    endpoints: list[str] = []
    try:
        for _ in range(count):
            process, endpoint = spawn_local_worker(host)
            processes.append(process)
            endpoints.append(endpoint)
        yield endpoints
    finally:
        _reap_processes(processes, timeout=reap_timeout)


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split ``"host:port"`` (raising :class:`ValueError` on anything else)."""
    host, sep, port = str(endpoint).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"invalid endpoint {endpoint!r}: expected 'host:port' with a numeric port"
        )
    return host, int(port)


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker schedule for tripped endpoints.

    An endpoint that fails ``trip_after`` consecutive times *trips*: it
    leaves the per-batch reconnect path and is only re-probed once its
    backoff delay expires.  The delay starts at ``base_delay`` seconds and
    doubles per failed probe up to the ``max_delay`` cap, then a
    deterministic jitter factor in ``[1, 1 + jitter]`` is applied — drawn
    from a generator seeded with ``seed`` (the session seeds it from the
    run config), so two identically-configured clients replay the same
    probe schedule and never synchronize their reconnect stampedes by
    accident.  A successful (re)connect resets the endpoint's breaker
    state entirely: healthy → tripped → probing → recovered.
    """

    trip_after: int = 1
    base_delay: float = 0.25
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.trip_after) < 1:
            raise ValueError("trip_after must be >= 1")
        if float(self.base_delay) <= 0:
            raise ValueError("base_delay must be positive")
        if float(self.max_delay) < float(self.base_delay):
            raise ValueError("max_delay must be >= base_delay")
        if float(self.jitter) < 0:
            raise ValueError("jitter must be >= 0")

    def delay(self, attempts: int, rng: np.random.Generator) -> float:
        """Backoff before probe ``attempts`` (0-based): capped, then jittered."""
        base = min(float(self.max_delay), float(self.base_delay) * (2.0 ** attempts))
        if self.jitter:
            base *= 1.0 + float(self.jitter) * float(rng.random())
        return base


class _Endpoint:
    """One worker endpoint: its address, connection state and counters."""

    __slots__ = (
        "address", "sock", "failures", "retries", "ever_connected", "last_error",
        "consecutive_failures", "tripped", "probe_attempts", "next_probe_at",
    )

    def __init__(self, address: str) -> None:
        self.address = address
        self.sock: socket.socket | None = None
        self.failures = 0  # connection drops + failed (re)connect attempts
        self.retries = 0  # re-dispatched shards this endpoint picked up
        self.ever_connected = False
        self.last_error: str | None = None
        # Circuit-breaker state (only driven when a BreakerPolicy is set):
        self.consecutive_failures = 0
        self.tripped = False
        self.probe_attempts = 0  # failed probes since the trip
        self.next_probe_at = 0.0  # clock() time of the next allowed probe


class EndpointSet:
    """Insertion-ordered, health-tracked set of worker endpoints.

    The mutable fleet membership behind :class:`RemoteEvaluator`: entries
    keep their connection state and per-endpoint failure/retry counters,
    and :meth:`add` / :meth:`pop` change membership *between* batches
    (``evaluate`` is synchronous, so any moment outside it is between
    batches).  Iteration order is insertion order — sharding is
    deterministic for a fixed membership, and results are independent of
    membership anyway (submission-order gather).
    """

    def __init__(self, endpoints: Iterable[str] = ()) -> None:
        self._entries: dict[str, _Endpoint] = {}
        for endpoint in endpoints:
            self.add(endpoint)

    def add(self, endpoint: str) -> _Endpoint:
        """Add ``"host:port"`` (validated); rejects duplicates."""
        address = str(endpoint)
        parse_endpoint(address)  # fail fast on malformed addresses
        if address in self._entries:
            raise ValueError(f"duplicate endpoint {address!r}")
        entry = _Endpoint(address)
        self._entries[address] = entry
        return entry

    def pop(self, endpoint: str) -> _Endpoint:
        """Remove and return an entry (caller closes its connection)."""
        entry = self._entries.pop(str(endpoint), None)
        if entry is None:
            raise ValueError(f"unknown endpoint {endpoint!r}")
        return entry

    def live(self) -> "list[_Endpoint]":
        """Entries with an open connection, in insertion order."""
        return [entry for entry in self._entries.values() if entry.sock is not None]

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __iter__(self) -> Iterator[_Endpoint]:
        return iter(list(self._entries.values()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, endpoint: object) -> bool:
        return str(endpoint) in self._entries


class RemoteEvaluator:
    """Socket-connected evaluator backend over a fleet of worker servers.

    Parameters
    ----------
    weights:
        Host-graph weight matrix — shipped once per connection (the static
        segment of the snapshot protocol).
    alpha:
        Edge-price parameter of the game.
    endpoints:
        ``"host:port"`` worker-server addresses; one connection per
        endpoint, batches are sharded across the live ones.
    connect_timeout:
        Seconds to wait for each TCP connect + handshake (and for
        :meth:`check_endpoints` probes).
    batch_timeout:
        Per-socket-operation inactivity deadline (seconds) during a batch
        exchange.  A worker that produces no bytes for this long is treated
        as failed — its shard is re-dispatched — instead of blocking the
        client forever.  ``None`` disables the deadline.
    max_retries:
        Re-dispatch rounds allowed per batch.  Every round requires at
        least one endpoint failure (the failed endpoint leaves the fan-out),
        so rounds are also bounded by the endpoint count; ``0`` makes any
        endpoint failure fail the batch.
    auth_token:
        Optional shared secret for the protocol-3 HMAC challenge/response
        (mutual: the worker must hold the same token, and prove it).  A
        mismatch on either side is a clean :class:`RemoteEvaluatorError`.
    breaker:
        Optional :class:`BreakerPolicy` arming the circuit breaker.
        Without it (the default) every batch re-attempts every down
        endpoint — the original fail-fast behavior; with it, endpoints
        that keep failing trip out of the reconnect path and are re-probed
        on a capped exponential backoff, and :meth:`revive` becomes a
        cheap promotion poll for the session's failover ladder.
    residual_encoding:
        ``"dense"`` (default) ships every distinct residual matrix of a
        shard as a raw ``(n, n)`` frame; under ``"delta"`` the first
        distinct matrix ships dense as the shard's base and every later
        one ships as a packed residual delta against it
        (:mod:`repro.core.residual_delta`), falling back to a dense frame
        whenever the delta would not be smaller.  The worker relaxes from
        ``base + changed rows``, never materializing the dense matrix, and
        replies are bit-identical either way; re-dispatched shards
        re-elect their base on the surviving endpoints like any pure task.
    clock:
        Monotonic time source for the breaker schedule (injectable for
        deterministic tests).

    Connections open lazily on the first :meth:`evaluate` and are reused
    for every later batch.  An endpoint that fails mid-batch is dropped
    alone — the batch continues on the survivors — and is lazily
    re-connected at the start of the next batch, so a restarted worker
    rejoins the fleet automatically (``stats.reconnects``); the batch only
    fails when every endpoint is dead or ``max_retries`` is exhausted.
    :meth:`add_endpoint` / :meth:`remove_endpoint` grow and shrink the
    fleet between batches, and :meth:`check_endpoints` health-checks it
    with the ``ping`` protocol verb.  ``pools_started`` counts connection-
    set establishments (live connections going from none to some) — the
    exact counter :class:`~repro.core.session.SessionStats` asserts on to
    prove a sweep opened one connection set; per-endpoint lazy rejoins
    while the set stays up do not count.  Scoring happens server-side with
    the same pure kernel as everywhere else and results are gathered in
    submission order, so trajectories are bit-identical to the serial
    engine for any endpoint count — and for any redistribution of shards
    across failures.
    """

    __slots__ = (
        "_weights", "_alpha", "_endpoints", "_connect_timeout", "_batch_timeout",
        "_max_retries", "pools_started", "_batches", "_tasks", "_bytes_sent",
        "_bytes_received", "_failures", "_retries", "_reconnects",
        "_atexit_registered", "_auth_token", "_breaker", "_breaker_rng",
        "_breaker_trips", "_clock", "_encoding",
    )

    def __init__(
        self,
        weights: np.ndarray,
        alpha: float,
        *,
        endpoints: Sequence[str],
        connect_timeout: float = 10.0,
        batch_timeout: float | None = DEFAULT_BATCH_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        auth_token: str | None = None,
        breaker: BreakerPolicy | None = None,
        residual_encoding: str = "dense",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._weights = np.ascontiguousarray(weights, dtype=np.float64)
        if self._weights.ndim != 2 or self._weights.shape[0] != self._weights.shape[1]:
            raise ValueError(f"weights must be square, got shape {self._weights.shape}")
        self._alpha = float(alpha)
        if not endpoints:
            raise ValueError("need at least one worker endpoint")
        self._endpoints = EndpointSet(str(e) for e in endpoints)
        self._connect_timeout = float(connect_timeout)
        self._batch_timeout = None if batch_timeout is None else float(batch_timeout)
        if self._batch_timeout is not None and self._batch_timeout <= 0:
            raise ValueError("batch_timeout must be positive (or None for no deadline)")
        self._max_retries = int(max_retries)
        if self._max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._auth_token = None if auth_token is None else str(auth_token)
        # The breaker is opt-in: without a policy every batch re-attempts
        # every down endpoint (the original fail-fast behavior, which the
        # direct-construction tests and failover="strict" rely on).
        self._breaker = breaker
        self._breaker_rng = np.random.default_rng(breaker.seed) if breaker else None
        self._breaker_trips = 0
        if residual_encoding not in RESIDUAL_ENCODINGS:
            raise ValueError(
                f"unknown residual_encoding {residual_encoding!r} "
                f"(expected one of {RESIDUAL_ENCODINGS})"
            )
        self._encoding = residual_encoding
        self._clock = clock
        self.pools_started = 0
        self._batches = 0
        self._tasks = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._failures = 0
        self._retries = 0
        self._reconnects = 0
        self._atexit_registered = False

    @classmethod
    def for_game(cls, game: "NetworkCreationGame", **kwargs: Any) -> "RemoteEvaluator":
        """Evaluator for a :class:`~repro.core.game.NetworkCreationGame`."""
        return cls(game.host.weights, game.alpha, **kwargs)

    @property
    def workers(self) -> int:
        """Fan-out degree: the number of configured worker endpoints."""
        return len(self._endpoints)

    @property
    def endpoints(self) -> tuple[str, ...]:
        return self._endpoints.addresses

    @property
    def residual_encoding(self) -> str:
        """``"dense"`` or ``"delta"`` residual-frame encoding (see the class docs)."""
        return self._encoding

    @property
    def is_running(self) -> bool:
        """True while at least one endpoint connection is open."""
        return bool(self._endpoints.live())

    @property
    def stats(self) -> EvaluatorStats:
        """Lifetime counters plus fleet health (see :class:`EvaluatorStats`)."""
        entries = list(self._endpoints)
        return EvaluatorStats(
            backend="remote",
            batches=self._batches,
            tasks=self._tasks,
            pools_started=self.pools_started,
            bytes_sent=self._bytes_sent,
            bytes_received=self._bytes_received,
            failures=self._failures,
            retries=self._retries,
            reconnects=self._reconnects,
            endpoints_total=len(entries),
            endpoints_alive=sum(1 for e in entries if e.sock is not None),
            endpoint_failures=tuple((e.address, e.failures) for e in entries),
            endpoint_retries=tuple((e.address, e.retries) for e in entries),
            breaker_trips=self._breaker_trips,
            endpoint_backoff=tuple(
                (
                    e.address,
                    max(0.0, e.next_probe_at - self._clock()) if e.tripped else 0.0,
                )
                for e in entries
            ),
        )

    # ------------------------------------------------------------------
    # Fleet membership and health
    # ------------------------------------------------------------------
    def add_endpoint(self, endpoint: str) -> None:
        """Add a worker endpoint to the fleet; it joins on the next batch."""
        self._endpoints.add(endpoint)

    def remove_endpoint(self, endpoint: str) -> None:
        """Remove an endpoint between batches, closing its connection politely."""
        if len(self._endpoints) == 1 and endpoint in self._endpoints:
            raise ValueError(
                "cannot remove the last endpoint: an evaluator needs at least one"
            )
        self._disconnect(self._endpoints.pop(endpoint))

    def check_endpoints(self) -> dict[str, bool]:
        """Health-check every endpoint with the ``ping`` protocol verb.

        Connected endpoints are pinged over their established connection (a
        failure drops that connection, like a failed batch would); down
        endpoints are probed with a short-lived ping-only connection — no
        hello, so the probe costs no weights transfer.  Returns address →
        healthy; never raises for an unhealthy endpoint.
        """
        return {entry.address: self._ping(entry) for entry in self._endpoints}

    def _ping(self, entry: _Endpoint) -> bool:
        if entry.sock is not None:
            try:
                self._bytes_sent += _send_json(entry.sock, {"kind": "ping"})
                reply = self._recv_counted(entry.sock)
                if reply is None or reply.get("kind") != "pong":
                    raise RemoteEvaluatorError(f"expected pong, got {reply!r}")
            except (OSError, RemoteEvaluatorError) as exc:
                self._drop(entry, exc)
                return False
            return True
        try:
            host, port = parse_endpoint(entry.address)
            with socket.create_connection(
                (host, port), timeout=self._connect_timeout
            ) as sock:
                _send_json(sock, {"kind": "ping"})
                reply = _recv_json(sock)
                if reply is None or reply.get("kind") != "pong":
                    return False
                with contextlib.suppress(OSError):
                    _send_json(sock, {"kind": "bye"})
            return True
        except (OSError, RemoteEvaluatorError):
            return False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _handshake(self, entry: _Endpoint) -> None:
        """Connect one endpoint: hello + weights, await ready, arm the deadline."""
        host, port = parse_endpoint(entry.address)
        sock = socket.create_connection((host, port), timeout=self._connect_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            n = int(self._weights.shape[0])
            hello = {
                "kind": "hello",
                "protocol": PROTOCOL_VERSION,
                "n": n,
                "alpha": self._alpha,
            }
            nonce = None
            if self._auth_token is not None:
                # Challenge/response keyed by the shared secret: the MAC
                # binds the hello parameters, the worker's counter-proof
                # binds our nonce (mutual authentication).
                nonce = secrets.token_hex(16)
                hello["auth_nonce"] = nonce
                hello["auth_mac"] = _auth_mac(
                    self._auth_token, "hello", nonce, str(n), float(self._alpha).hex()
                )
            sent = _send_json(sock, hello)
            sent += _send_frame(sock, self._weights)
            reply = _recv_json(sock)
            if reply is not None and reply.get("kind") == "error":
                raise RemoteEvaluatorError(
                    f"worker {entry.address} rejected the handshake: "
                    f"{reply.get('message')}"
                )
            if reply is None or reply.get("kind") != "ready":
                raise RemoteEvaluatorError(
                    f"worker {entry.address} did not become ready: {reply!r}"
                )
            if self._auth_token is not None:
                proof = reply.get("auth_proof")
                expected = _auth_mac(self._auth_token, "ready", nonce)
                if not isinstance(proof, str) or not hmac.compare_digest(
                    proof, expected
                ):
                    raise RemoteEvaluatorError(
                        f"worker {entry.address} failed authentication: it did "
                        "not prove knowledge of the shared secret (--auth-token)"
                    )
            # Batches may legitimately take long, but a *hung* worker must
            # not block the client forever: every later socket operation
            # runs under the batch deadline.
            sock.settimeout(self._batch_timeout)
        except BaseException:
            with contextlib.suppress(OSError):
                sock.close()
            raise
        self._bytes_sent += sent
        entry.sock = sock
        entry.ever_connected = True
        entry.last_error = None
        # A live connection resets the endpoint's breaker state entirely:
        # tripped/probing endpoints are "recovered" the moment a full
        # handshake succeeds.
        entry.consecutive_failures = 0
        entry.tripped = False
        entry.probe_attempts = 0
        entry.next_probe_at = 0.0

    def _record_failure(self, entry: _Endpoint, exc: BaseException, now: float) -> None:
        """Count one endpoint failure and advance its circuit-breaker state."""
        entry.failures += 1
        entry.last_error = f"{type(exc).__name__}: {exc}"
        self._failures += 1
        if self._breaker is None:
            return
        entry.consecutive_failures += 1
        if not entry.tripped:
            if entry.consecutive_failures >= self._breaker.trip_after:
                entry.tripped = True
                entry.probe_attempts = 0
                entry.next_probe_at = now + self._breaker.delay(0, self._breaker_rng)
                self._breaker_trips += 1
        else:
            # A failed probe of an already-tripped endpoint: back off further.
            entry.probe_attempts += 1
            entry.next_probe_at = now + self._breaker.delay(
                entry.probe_attempts, self._breaker_rng
            )

    def _ensure_connections(self) -> list[_Endpoint]:
        """Live endpoints for the next batch, lazily (re)connecting down ones.

        With a :class:`BreakerPolicy` armed, tripped endpoints whose backoff
        has not expired are skipped without a connect attempt.  Raises when
        no endpoint is live afterwards — preserving the underlying
        :class:`OSError` when every endpoint refused, so a misconfigured
        fleet fails with the real error, not a wrapper.
        """
        if not len(self._endpoints):
            raise RemoteEvaluatorError("no endpoints configured")
        had_live = bool(self._endpoints.live())
        now = self._clock()
        last_error: Exception | None = None
        for entry in self._endpoints:
            if entry.sock is not None:
                continue
            if self._breaker is not None and entry.tripped and now < entry.next_probe_at:
                continue  # breaker open: not due for a probe yet
            rejoining = entry.ever_connected
            try:
                self._handshake(entry)
            except (OSError, RemoteEvaluatorError) as exc:
                last_error = exc
                self._record_failure(entry, exc, now)
            else:
                if rejoining:
                    self._reconnects += 1
        live = self._endpoints.live()
        if not live:
            if last_error is None:
                # Every down endpoint is breaker-tripped with an unexpired
                # backoff: nothing was even attempted this call.
                wait = min(
                    entry.next_probe_at for entry in self._endpoints
                ) - now
                # Rounded for the human-facing error only; this string
                # never crosses the wire or a checkpoint header.
                eta = f"{max(0.0, wait):.2f}"  # repro-lint: disable=DET004
                raise RemoteEvaluatorError(
                    f"all {len(self._endpoints)} endpoint(s) are tripped by "
                    f"the circuit breaker; next probe due in {eta}s"
                )
            raise last_error
        if not had_live:
            self.pools_started += 1
            if not self._atexit_registered:
                # Registered once per evaluator lifetime: reconnect cycles
                # (set revivals *and* per-endpoint rejoins) must not stack
                # duplicate registrations.
                atexit.register(self.close)
                self._atexit_registered = True
        return live

    def revive(self) -> bool:
        """Try to get at least one endpoint live, without ever raising.

        The failover ladder polls this at batch boundaries while running
        degraded: it honors the circuit-breaker schedule (tripped endpoints
        whose backoff has not expired are skipped), so calling it every
        batch costs nothing until a probe is actually due.  Returns True
        when the fleet has a live connection afterwards.
        """
        try:
            self._ensure_connections()
        except (OSError, RemoteEvaluatorError):
            return False
        return True

    def _drop(self, entry: _Endpoint, exc: BaseException) -> None:
        """Drop one failed endpoint's connection (no bye — it is desynchronized)."""
        self._record_failure(entry, exc, self._clock())
        sock, entry.sock = entry.sock, None
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.close()

    def _disconnect(self, entry: _Endpoint) -> None:
        """Close one synchronized endpoint connection politely (bye, then close)."""
        sock, entry.sock = entry.sock, None
        if sock is None:
            return
        with contextlib.suppress(OSError, RemoteEvaluatorError):
            _send_json(sock, {"kind": "bye"})
        with contextlib.suppress(OSError):
            sock.close()

    def close(self) -> None:
        """Close every connection (idempotent); the worker servers keep running."""
        for entry in self._endpoints:
            self._disconnect(entry)

    def __enter__(self) -> "RemoteEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        tasks: Iterable[tuple[int, np.ndarray, Sequence[int]]],
        response: str = "best",
        *,
        max_candidates: int = 22,
    ) -> list[BestResponseResult]:
        """Score ``(agent, d_rest, strategy)`` tasks across the worker fleet.

        The batch is split into contiguous shards over the live endpoints
        (sizes differing by at most one; with fewer tasks than endpoints
        the surplus endpoints receive nothing — not even a header).  Every
        shard ships each of its distinct residual matrices once, all shards
        are sent before any reply is read (endpoint ``k`` scores while
        shard ``k+1`` is in transit) and results are reassembled in
        **submission order** — so the output is independent of the endpoint
        count *and* of any mid-batch redistribution: a shard whose endpoint
        fails is re-dispatched to the survivors and its results land at the
        same indices.
        """
        task_list = list(tasks)
        if not task_list:
            return []
        live = self._ensure_connections()
        self._batches += 1
        self._tasks += len(task_list)
        try:
            return self._evaluate_with_retry(
                live, task_list, response, max_candidates
            )
        except RemoteEvaluatorError:
            # Controlled failure: every endpoint involved was individually
            # dropped at the moment it failed, and every survivor finished
            # its shard exchange — the remaining connections sit at a clean
            # message boundary and stay usable for the next batch.
            raise
        except BaseException:
            # Uncontrolled failure (caller interrupt, serializer bug):
            # connections may hold half-sent batches or unread replies that
            # the *next* batch would read as its own results — drop the set
            # so a surviving caller reconnects cleanly.
            self.close()
            raise

    def _evaluate_with_retry(
        self,
        live: list[_Endpoint],
        task_list: list[tuple[int, np.ndarray, Sequence[int]]],
        response: str,
        max_candidates: int,
    ) -> list[BestResponseResult]:
        results: list[BestResponseResult | None] = [None] * len(task_list)
        pending = list(range(len(task_list)))
        redispatches = 0
        last_error: Exception | None = None
        while True:
            shards = self._shard(len(pending), len(live))
            sent: list[tuple[_Endpoint, list[int]]] = []
            for entry, (start, stop) in zip(live, shards):
                indices = pending[start:stop]
                if redispatches:
                    entry.retries += 1
                    self._retries += 1
                try:
                    self._send_shard(
                        entry,
                        [task_list[i] for i in indices],
                        response,
                        max_candidates,
                    )
                except OSError as exc:
                    last_error = exc
                    self._drop(entry, exc)
                else:
                    sent.append((entry, indices))
            gathered: set[int] = set()
            for entry, indices in sent:
                try:
                    shard_results = self._recv_shard(entry, len(indices))
                except (OSError, RemoteEvaluatorError) as exc:
                    last_error = exc
                    self._drop(entry, exc)
                else:
                    for index, result in zip(indices, shard_results):
                        results[index] = result
                    gathered.update(indices)
            if gathered:
                pending = [i for i in pending if i not in gathered]
            if not pending:
                return results  # type: ignore[return-value]
            live = self._endpoints.live()
            if not live:
                raise RemoteEvaluatorError(
                    f"batch failed: all {len(self._endpoints)} endpoint(s) are "
                    f"down (last error: {last_error})"
                ) from last_error
            redispatches += 1
            if redispatches > self._max_retries:
                raise RemoteEvaluatorError(
                    f"batch failed: {len(pending)} task(s) still unscored "
                    f"after {self._max_retries} shard re-dispatch(es) "
                    f"(last error: {last_error})"
                ) from last_error

    def _send_shard(
        self,
        entry: _Endpoint,
        shard_tasks: list[tuple[int, np.ndarray, Sequence[int]]],
        response: str,
        max_candidates: int,
    ) -> None:
        # Each distinct matrix ships once.  The first ships dense and is the
        # shard's base; under the delta encoding every later one ships as a
        # packed delta against it when that is smaller.
        descriptors: list[dict[str, Any]] = []
        frames: list[bytes | np.ndarray] = []
        base: np.ndarray | None = None
        index_of: dict[int, int] = {}
        wire_tasks: list[list[Any]] = []
        for agent, d_rest, strategy in shard_tasks:
            key = id(d_rest)
            if key not in index_of:
                index_of[key] = len(frames)
                matrix = np.ascontiguousarray(d_rest, dtype=np.float64)
                payload = None
                if base is None:
                    base = matrix
                elif self._encoding == "delta":
                    payload = delta_if_smaller(base, matrix)
                if payload is None:
                    descriptors.append({"enc": "dense"})
                    frames.append(matrix)
                else:
                    # The packed layout leads with its little-endian row count.
                    rows = int.from_bytes(payload[:8], "little")
                    descriptors.append({"enc": "delta", "base": 0, "rows": rows})
                    frames.append(payload)
            wire_tasks.append([int(agent), index_of[key], [int(v) for v in strategy]])
        header: dict[str, Any] = {
            "kind": "batch",
            "response": str(response),
            "max_candidates": int(max_candidates),
            "matrices": descriptors,
            "tasks": wire_tasks,
        }
        sent = _send_json(entry.sock, header)
        for frame in frames:
            sent += _send_frame(entry.sock, frame)
        self._bytes_sent += sent

    def _recv_shard(self, entry: _Endpoint, count: int) -> list[BestResponseResult]:
        reply = self._recv_counted(entry.sock)
        if reply is None:
            raise RemoteEvaluatorError(
                f"worker {entry.address} disconnected before replying"
            )
        if reply.get("kind") == "error":
            raise RemoteEvaluatorError(f"worker failed: {reply.get('message')}")
        if reply.get("kind") != "results":
            raise RemoteEvaluatorError(
                f"expected results, got {reply.get('kind')!r}"
            )
        try:
            shard_results = [_unpack_result(item) for item in reply["results"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise RemoteEvaluatorError(
                f"worker {entry.address} returned malformed results: {exc}"
            ) from exc
        if len(shard_results) != count:
            raise RemoteEvaluatorError(
                f"worker {entry.address} returned {len(shard_results)} results "
                f"for {count} tasks"
            )
        return shard_results

    def _recv_counted(self, sock: socket.socket) -> dict | None:
        frame = _recv_frame(sock)
        if frame is None:
            return None
        self._bytes_received += _LEN.size + len(frame)
        try:
            reply = json.loads(frame.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RemoteEvaluatorError(f"malformed reply frame: {exc}") from exc
        if not isinstance(reply, dict):
            raise RemoteEvaluatorError(
                f"reply must be an object, got {type(reply).__name__}"
            )
        return reply

    @staticmethod
    def _shard(total: int, parts: int) -> list[tuple[int, int]]:
        """Contiguous near-even **non-empty** ``(start, stop)`` shards.

        With more parts than tasks the surplus parts get no shard at all —
        an idle endpoint receives no batch header (and owes no reply), so
        ``tasks < endpoints`` and ``tasks == 0`` never put a connection in
        a half-spoken state.
        """
        if total <= 0:
            return []
        parts = min(int(parts), total)
        base, extra = divmod(total, parts)
        bounds = [0]
        for index in range(parts):
            bounds.append(bounds[-1] + base + (1 if index < extra else 0))
        return list(zip(bounds[:-1], bounds[1:]))
