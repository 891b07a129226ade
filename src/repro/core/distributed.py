"""Distributed multi-host sweeps: a coordinator/agent layer over TCP.

The paper's remedy for measurement bias is setup randomization *at
scale* — the more randomized setups a campaign can afford, the tighter
its confidence intervals.  One host caps that affordance; this module
removes the cap while preserving the lab's sacred invariant: **the
distributed report is byte-identical to the fault-free serial run**.

Two halves:

- an **agent** (``repro agent --listen HOST:PORT``) wraps a local
  :class:`~repro.core.supervisor.SupervisedPool` behind a TCP listener:
  it accepts one coordinator session at a time, receives setups, runs
  them across its worker processes, and streams results (and heartbeats)
  back;
- the **coordinator** (:class:`AgentPool`, reached via
  ``repro run ... --hosts host1:port,host2:port``) treats each agent as
  a super-worker with ``jobs`` capacity behind the same
  :class:`~repro.core.supervisor.DispatchPool` interface the local pool
  implements, so the sweep runner cannot tell local workers from remote
  hosts.

Failure philosophy (mirroring the supervised pool, one layer up):

- **framing** — every message is a length-prefixed frame whose payload
  carries its own SHA-256 (the checkpoint journal's record discipline,
  applied to the wire): a torn or corrupted frame is *detected*, never
  silently half-applied;
- **liveness** — agents heartbeat over the socket; an agent silent past
  ``hang_timeout`` is declared partitioned, whatever TCP thinks;
- **failover** — a lost agent's in-flight setups are requeued **at the
  same attempt number**; network loss never consumes a measurement's
  retry budget;
- **recovery** — the coordinator reconnects to lost agents within a
  bounded budget (a partition heals; a dead agent's refused connections
  spend the budget and drop it from the roster);
- **honest degradation** — when no agent remains the pool emits a
  ``degraded`` event and the runner finishes the sweep locally,
  naming every setup in the report; never a silent partial table.

Chaos testing: three network fault kinds (:mod:`repro.faults`) make
every path above deterministic and CI-pinnable — ``agent_crash`` (the
agent process dies on task receipt), ``net_partition`` (the connection
drops at dispatch), ``message_corrupt`` (a task frame is corrupted in
flight; the agent's checksum check rejects it and hangs up).  See
docs/distributed.md for the wire protocol, the failure matrix, and the
operator's runbook.
"""

from __future__ import annotations

import collections
import hashlib
import hmac
import json
import os
import queue
import secrets
import select
import socket
import struct
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro import __version__, faults
from repro._errors import ReproError
from repro.core import runner as _runner
from repro.core.session import (
    canonical_json,
    record_checksum,
    setup_from_dict,
    setup_to_dict,
)
from repro.core.supervisor import (
    DEFAULT_HANG_TIMEOUT,
    DispatchPool,
    PoolEvent,
    SupervisedPool,
    Task,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Wire protocol version; the handshake rejects a mismatch loudly
#: rather than let two releases talk past each other.  v2 added the
#: agent's ``challenge`` message ahead of the coordinator's ``hello``
#: (replay-proof challenge-response authentication); v3 has every
#: ``result`` echo its task frame's ``key`` and ``dispatch``, which the
#: service's lease pool matches before it accepts a result.
PROTOCOL_VERSION = 3

#: Frame magic: 4 bytes ahead of every length prefix, so a socket that
#: drifted out of sync fails fast instead of mis-framing forever.
MAGIC = b"RPR1"

_HEADER = struct.Struct("!4sI")

#: Upper bound on one frame's payload; a length beyond this means the
#: stream is corrupt (no legitimate message is near it).
MAX_FRAME_BYTES = 16 << 20


class ProtocolError(ReproError):
    """A TCP frame failed validation (magic, length, JSON, or checksum).

    Retryable by classification: the *connection* is unusable, but the
    coordinator's failover re-dispatches the in-flight work elsewhere.
    """

    retryable = True


class AgentUnavailable(ReproError):
    """An agent named on the command line could not be reached.

    Fatal: a misspelled or unreachable ``--hosts`` entry is operator
    error and must fail the run loudly before any measurement starts.
    """

    retryable = False


# -- authentication ----------------------------------------------------------


def auth_proof(secret: str, nonce: str) -> str:
    """The hello's ``auth`` proof: HMAC-SHA256 of the agent's challenge
    nonce under the shared secret.

    The secret itself never crosses the wire, and neither does any
    replayable stand-in for it: the agent opens every session with a
    fresh random ``challenge`` nonce, the coordinator answers with this
    keyed digest over *that* nonce, and the agent compares with
    :func:`hmac.compare_digest` (so a byte-by-byte timing probe learns
    nothing).  A passive observer who captures a whole handshake holds
    a proof for a nonce that will never be issued again — unlike a
    static digest, it is not a password equivalent.  This authenticates
    *sessions*, not bytes — operators who need transport integrity
    against an active network attacker (who could hijack the TCP stream
    after the handshake) should tunnel agent traffic (ssh -L,
    WireGuard) as docs/distributed.md describes.
    """
    return hmac.new(
        secret.encode(), b"repro-agent-hello:" + nonce.encode(), hashlib.sha256
    ).hexdigest()


# -- fork hygiene ------------------------------------------------------------

#: Every TCP socket this module opens (listeners, sessions, links), so
#: fork-started pool workers can drop their inherited copies.
_process_sockets: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def _track(sock: socket.socket) -> socket.socket:
    _process_sockets.add(sock)
    return sock


def close_inherited_sockets() -> None:
    """Close this process's copies of the distributed layer's sockets.

    The agent's :class:`~repro.core.supervisor.SupervisedPool` forks
    worker processes, and a forked child inherits every open file
    descriptor — the agent's listener, its session connection, and (when
    agent and coordinator share a process, as in loopback tests) the
    coordinator's link sockets too.  TCP only delivers EOF when the
    *last* copy of a socket closes, so a child that keeps those fds
    silently breaks close detection everywhere: a "crashed" agent's
    listener keeps accepting, a torn-down link never reads as closed,
    and sessions wedge instead of ending.  The agent passes this as the
    pool's ``child_setup`` so workers start with clean hands.
    """
    for sock in list(_process_sockets):
        try:
            sock.close()
        except OSError:
            pass


# -- addresses --------------------------------------------------------------


def parse_host(spec: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``; raises ValueError when malformed."""
    spec = spec.strip()
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"bad host spec {spec!r}: expected HOST:PORT")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValueError(f"bad port in host spec {spec!r}") from exc
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in host spec {spec!r}")
    return host, port


def parse_hosts(spec: str) -> List[Tuple[str, int]]:
    """Parse a ``--hosts`` list: ``"h1:p1,h2:p2"`` -> ``[(h1, p1), ...]``."""
    entries = [part for part in spec.split(",") if part.strip()]
    if not entries:
        raise ValueError("empty --hosts list")
    return [parse_host(part) for part in entries]


# -- framing ----------------------------------------------------------------


def encode_message(
    kind: str, data: Dict[str, Any], corrupt: bool = False
) -> bytes:
    """One checksummed, length-prefixed frame, ready to write.

    The payload is the canonical JSON of ``{"kind", "data", "sha256"}``
    where the checksum covers ``data`` — the same record discipline as
    the checkpoint journal, applied to the wire.  ``corrupt=True`` flips
    the payload's final byte (the ``message_corrupt`` chaos kind); the
    receiver's checksum validation must reject it.  Shared by the
    blocking socket path below and the service coordinator's asyncio
    transports, so every transport speaks byte-identical frames.
    """
    payload = canonical_json(
        {"kind": kind, "data": data, "sha256": record_checksum(data)}
    ).encode()
    frame = _HEADER.pack(MAGIC, len(payload)) + payload
    if corrupt:
        frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
    return frame


def decode_payload(payload: bytes) -> Tuple[str, Dict[str, Any]]:
    """Validate one frame payload; raises :class:`ProtocolError` on any
    corruption (JSON, shape, or checksum)."""
    try:
        message = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload is not an object")
    kind = message.get("kind")
    data = message.get("data")
    if not isinstance(kind, str) or not isinstance(data, dict):
        raise ProtocolError("frame payload missing kind/data")
    if message.get("sha256") != record_checksum(data):
        raise ProtocolError(f"frame checksum mismatch on {kind!r} message")
    return kind, data


def check_frame_header(magic: bytes, length: int) -> None:
    """Validate a frame's magic + declared length before reading it."""
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")


def send_message(
    sock: socket.socket, kind: str, data: Dict[str, Any], corrupt: bool = False
) -> None:
    """Send one checksummed, length-prefixed message (see
    :func:`encode_message`)."""
    sock.sendall(encode_message(kind, data, corrupt=corrupt))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; raises EOFError on a clean close."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("connection closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Tuple[str, Dict[str, Any]]:
    """Receive one message; raises :class:`ProtocolError` on corruption,
    EOFError on a clean close, OSError/socket.timeout on transport loss."""
    magic, length = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    check_frame_header(magic, length)
    return decode_payload(_recv_exact(sock, length))


# -- task payload <-> wire --------------------------------------------------


def payload_to_wire(payload: Tuple) -> Dict[str, Any]:
    """A runner task payload (one measurement attempt) as JSON.

    The tuple layout is :func:`repro.core.runner._measure_task`'s
    contract; setups cross the wire as their archive-record dicts.
    """
    (index, workload, size, seed, setup, verify, attempt, timeout,
     max_cycles, delay) = payload
    return {
        "index": index,
        "workload": workload,
        "size": size,
        "seed": seed,
        "setup": setup_to_dict(setup),
        "verify": verify,
        "attempt": attempt,
        "timeout": timeout,
        "max_cycles": max_cycles,
        "delay": delay,
    }


def wire_to_payload(data: Dict[str, Any]) -> Tuple:
    """Inverse of :func:`payload_to_wire`."""
    return (
        data["index"],
        data["workload"],
        data["size"],
        data["seed"],
        setup_from_dict(data["setup"]),
        data["verify"],
        data["attempt"],
        data["timeout"],
        data["max_cycles"],
        data["delay"],
    )


# -- the agent --------------------------------------------------------------


class _AgentCrash(Exception):
    """Internal: an injected ``agent_crash`` fired; die like a process."""


@dataclass
class _FrameTask(Task):
    """A task as an agent received it: ``dispatch`` is the coordinator's
    dispatch count from the task frame, echoed with ``key`` in the
    result so the coordinator can tell which lease it answers."""

    dispatch: int = 1


class _SessionConfig:
    """Policy knobs for one agent session, parsed from the
    coordinator's ``hello`` (listen mode) or ``registered`` (dial-in
    mode) message — the two carry the same fields."""

    __slots__ = (
        "plan", "heartbeat_interval", "hang_timeout", "max_respawns",
        "tracing",
    )

    def __init__(self, plan, heartbeat_interval, hang_timeout,
                 max_respawns, tracing) -> None:
        self.plan = plan
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.max_respawns = max_respawns
        self.tracing = tracing


def _parse_session_config(data: Dict[str, Any]) -> _SessionConfig:
    plan_dict = data.get("fault_plan")
    plan = faults.FaultPlan(**plan_dict) if plan_dict else None
    knobs = data.get("runner") or {}
    # None means "adapt": the agent's own pool derives its hang
    # threshold from observed task durations (see SupervisedPool).
    raw_hang = knobs.get("hang_timeout", DEFAULT_HANG_TIMEOUT)
    return _SessionConfig(
        plan=plan,
        heartbeat_interval=float(knobs.get("heartbeat_interval", 0.2)),
        hang_timeout=None if raw_hang is None else float(raw_hang),
        max_respawns=int(knobs.get("max_respawns", 8)),
        tracing=bool(data.get("tracing", False)),
    )


class AgentServer:
    """One sweep agent: a TCP listener wrapping a supervised pool.

    The agent is deliberately thin: every policy knob (fault plan,
    heartbeat cadence, hang deadline, respawn budget, tracing) arrives
    in the coordinator's ``hello``, so one command line controls the
    whole fleet.  Sessions are serial — one coordinator at a time — and
    the listener survives across sessions, which is what lets a
    partitioned coordinator reconnect and what an operator's process
    supervisor (systemd, runit) expects of a restartable service.

    Args:
        host: interface to bind.
        port: TCP port (0 picks a free one; see ``port_file``).
        jobs: local worker processes per session.
        port_file: when set, the bound port is written here after
            :meth:`bind` — the race-free way for scripts to use port 0.
        quiet: suppress the per-event log lines on stderr.
        secret: optional shared secret; when set, every hello must
            answer the session's ``challenge`` nonce with the matching
            :func:`auth_proof` or the session is refused before any
            task is accepted (``--secret`` / ``REPRO_AGENT_SECRET`` on
            both ends).  Unset = open agent, as before.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        port_file: Optional[str] = None,
        quiet: bool = False,
        secret: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.port_file = port_file
        self.quiet = quiet
        self.secret = secret
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        #: Set when an injected ``agent_crash`` killed the agent; the
        #: CLI exits non-zero so a process supervisor can tell a crash
        #: from an orderly shutdown.
        self.crashed = False

    # -- lifecycle --------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port); valid after :meth:`bind`."""
        assert self._listener is not None, "agent not bound"
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    def bind(self) -> Tuple[str, int]:
        """Bind the listener (writing ``port_file`` if configured)."""
        listener = _track(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(4)
        listener.settimeout(0.2)  # so stop() is honored promptly
        self._listener = listener
        if self.port_file:
            tmp = self.port_file + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(f"{self.address[1]}\n")
            os.replace(tmp, self.port_file)
        return self.address

    def stop(self) -> None:
        """Ask :meth:`serve_forever` to return after the current accept
        timeout (threads use this; the CLI uses SIGINT)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Accept coordinator sessions until :meth:`stop` or a crash.

        An injected ``agent_crash`` tears down the listener too — a
        crashed process takes its listening socket with it, so the
        coordinator's reconnect attempts are refused, exactly as they
        would be against a real dead host.
        """
        if self._listener is None:
            self.bind()
        try:
            while not self._stop.is_set():
                try:
                    conn, peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                _track(conn)
                self._log(f"session from {peer[0]}:{peer[1]}")
                try:
                    self._serve_session(conn)
                except _AgentCrash:
                    self.crashed = True
                    self._log("injected agent_crash: dying")
                    return
                except (ProtocolError, EOFError, OSError) as exc:
                    self._log(f"session lost: {exc}")
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
        finally:
            self._close_listener()

    def serve_connect(
        self,
        host: str,
        port: int,
        backoff_base: float = 0.5,
        backoff_seed: int = 0,
        max_retries: Optional[int] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        """Dial-in rendezvous: register with a service coordinator and
        serve its sessions, reconnecting across coordinator restarts.

        This inverts :meth:`serve_forever`'s direction — the agent
        connects *out* to ``repro serve``'s rendezvous port, proves
        itself against the coordinator's ``challenge`` with
        :func:`auth_proof` (when a secret is configured), and then runs
        the exact same session body the listening mode does.  A
        coordinator that vanishes mid-session (SIGKILL, restart, net
        partition) is redialed on the shared seeded exponential backoff
        (:func:`repro.core.runner.seeded_backoff`), so a whole fleet of
        agents re-registers on a deterministic, de-synchronized
        schedule instead of stampeding the reborn service.

        Ends on: an orderly ``shutdown`` from the coordinator, an
        injected ``agent_crash`` (``self.crashed`` set, like listen
        mode), an authentication refusal (fatal — a wrong secret never
        heals), or a spent ``max_retries`` budget (None = unbounded).
        The per-outage budget resets whenever a session is established.
        """
        attempt = 0
        while not self._stop.is_set():
            attempt += 1
            if max_retries is not None and attempt > max_retries + 1:
                self._log(
                    f"coordinator {host}:{port}: reconnect budget spent "
                    f"({max_retries} retries)"
                )
                return
            delay = _runner.seeded_backoff(
                backoff_base,
                backoff_seed,
                f"rendezvous:{host}:{port}",
                attempt,
                cap=10.0,
            )
            if delay:
                time.sleep(delay)
            try:
                reason = self._dial_session(host, port, connect_timeout)
            except _AgentCrash:
                self.crashed = True
                self._log("injected agent_crash: dying")
                return
            except (ProtocolError, EOFError, OSError) as exc:
                self._log(f"coordinator {host}:{port}: {exc}")
                continue
            if reason == "shutdown":
                self._log("orderly shutdown")
                return
            # "closed": the coordinator went away mid-session.  Reset
            # the backoff so a healthy restart is re-joined promptly;
            # repeated failures then back off again from the start.
            attempt = 0

    def _dial_session(
        self, host: str, port: int, connect_timeout: float
    ) -> str:
        """One dial-in connection: handshake, then the session body."""
        sock = _track(socket.create_connection(
            (host, port), timeout=connect_timeout
        ))
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(30.0)
            kind, challenge = recv_message(sock)
            if kind != "challenge":
                raise ProtocolError(
                    f"coordinator {host}:{port} opened with {kind!r}, "
                    "expected a challenge"
                )
            nonce = challenge.get("nonce")
            if not isinstance(nonce, str) or not nonce:
                raise ProtocolError(
                    f"coordinator {host}:{port} sent a malformed challenge"
                )
            register = self._identity()
            register["auth"] = (
                auth_proof(self.secret, nonce) if self.secret else None
            )
            send_message(sock, "register", register)
            kind, data = recv_message(sock)
            if kind == "error":
                if data.get("code") == "auth":
                    # Fatal, not retried: a wrong secret is operator
                    # error, and redialing would never heal it.
                    raise AgentUnavailable(
                        f"coordinator {host}:{port} refused registration: "
                        f"{data.get('message')}"
                    )
                raise ProtocolError(
                    f"coordinator {host}:{port} refused registration: "
                    f"{data.get('message')}"
                )
            if kind != "registered" or data.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"coordinator {host}:{port} sent an unexpected "
                    f"handshake ({kind!r}, protocol "
                    f"{data.get('protocol')!r})"
                )
            self._log(f"registered with coordinator {host}:{port}")
            session = _parse_session_config(data)
            sock.settimeout(None)
            return self._session_body(sock, session)
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None

    def _log(self, text: str) -> None:
        if not self.quiet:
            import sys

            print(f"[agent {self.host}:{self.address_or_port()}] {text}",
                  file=sys.stderr)

    def address_or_port(self) -> int:
        """The bound port, or the configured one before binding."""
        try:
            return self.address[1]
        except AssertionError:
            return self.port

    # -- one session ------------------------------------------------------

    def _serve_session(self, conn: socket.socket) -> None:
        conn.settimeout(30.0)
        # Challenge first: a fresh random nonce per session, so an auth
        # proof is only ever valid for the handshake it was minted for
        # (a captured hello replays as garbage against the next nonce).
        nonce = secrets.token_hex(16)
        send_message(conn, "challenge", {
            "protocol": PROTOCOL_VERSION,
            "nonce": nonce,
        })
        kind, hello = recv_message(conn)
        if kind != "hello":
            raise ProtocolError(f"expected hello, got {kind!r}")
        if hello.get("protocol") != PROTOCOL_VERSION:
            send_message(conn, "error", {
                "message": f"protocol mismatch: agent speaks "
                           f"{PROTOCOL_VERSION}, coordinator sent "
                           f"{hello.get('protocol')!r}",
            })
            raise ProtocolError("protocol version mismatch")
        if self.secret is not None:
            proof = hello.get("auth")
            expected = auth_proof(self.secret, nonce)
            if not (
                isinstance(proof, str)
                and hmac.compare_digest(proof, expected)
            ):
                # Refuse before reading policy knobs: an unauthenticated
                # coordinator configures nothing.  The error names its
                # code so the coordinator can count auth failures apart
                # from transport losses, but never echoes the digest.
                send_message(conn, "error", {
                    "code": "auth",
                    "message": "authentication failed: agent requires a "
                               "shared secret (--secret)",
                })
                raise ProtocolError("coordinator failed authentication")
        session = _parse_session_config(hello)
        send_message(conn, "hello_ack", self._identity())
        # The handshake had a deadline; the session does not — a
        # coordinator with nothing to say is idle, not dead (liveness
        # flows the other way, via our heartbeats).
        conn.settimeout(None)
        self._session_body(conn, session)

    def _identity(self) -> Dict[str, Any]:
        """The agent's self-description, sent in ``hello_ack`` (listen
        mode) and ``register`` (dial-in mode)."""
        return {
            "protocol": PROTOCOL_VERSION,
            "hostname": socket.gethostname(),
            "pid": os.getpid(),
            "agent_version": __version__,
            "jobs": self.jobs,
        }

    def _session_body(
        self, conn: socket.socket, session: "_SessionConfig"
    ) -> str:
        """Run one configured session until it ends; both the listening
        accept loop and the dial-in rendezvous loop land here after
        their handshakes, so the task/result/heartbeat protocol is one
        code path however the connection was established.  Returns the
        end reason: ``"shutdown"`` (orderly) or ``"closed"`` (the
        coordinator went away)."""
        plan = session.plan
        heartbeat_interval = session.heartbeat_interval
        inbox: "queue.Queue[Tuple[str, Any]]" = queue.Queue()
        # The reader rings ``wake`` after every message it queues, so
        # the loop below blocks in one place — on coordinator messages,
        # worker events and the next heartbeat together — and acts on
        # a task frame the moment it lands.
        wake, ring = (_track(s) for s in socket.socketpair())
        wake.setblocking(False)
        ring.setblocking(False)

        def read_loop() -> None:
            alive = True
            while alive:
                try:
                    item = recv_message(conn)
                except (ProtocolError, EOFError, OSError) as exc:
                    item, alive = ("closed", {"reason": str(exc)}), False
                inbox.put(item)
                try:
                    ring.send(b"\0")
                except OSError:
                    pass  # already ringing (buffer full) or session over

        threading.Thread(target=read_loop, daemon=True).start()

        pool = SupervisedPool(
            workers=self.jobs,
            task_fn=_runner._measure_task,
            fault_plan=plan,
            heartbeat_interval=heartbeat_interval,
            hang_timeout=session.hang_timeout,
            max_respawns=session.max_respawns,
            tracing=session.tracing,
            child_setup=close_inherited_sockets,
            wake=wake,
        )
        degraded = False
        next_beat = time.monotonic() + heartbeat_interval
        try:
            with faults.injected_faults(plan):
                while True:
                    # Silence the ring before reading the inbox: a
                    # message queued after this point rings again.
                    _drain_socket(wake)
                    reason = self._drain_inbox(
                        conn, inbox, pool, plan, degraded
                    )
                    if reason:
                        return reason
                    event = pool.poll(
                        timeout=max(0.0, next_beat - time.monotonic())
                    )
                    if event is None:
                        # Woken, heartbeat due, or drained: a drained
                        # pool waits here for the next message or beat.
                        _readable(wake, next_beat - time.monotonic())
                    elif event.kind == "result":
                        self._send_result(
                            conn, event.task, event.result, event.records
                        )
                    elif event.kind in ("crash", "hang"):
                        obs_metrics.counter(
                            f"agent.worker_{event.kind}s"
                        ).inc()
                        self._log(f"worker {event.worker} {event.kind}")
                    elif event.kind == "degraded":
                        # Local respawn budget spent: finish everything
                        # the pool hands back in-process, and run any
                        # later-arriving task the same way.  The
                        # coordinator never sees the difference — the
                        # agent's report obligations are per-result.
                        degraded = True
                        obs_metrics.counter("agent.degraded_sessions").inc()
                        self._log(
                            "worker pool degraded; running in-process"
                        )
                        for task in event.tasks:
                            self._run_inline(conn, task)
                    now = time.monotonic()
                    if now >= next_beat:
                        send_message(conn, "heartbeat", {})
                        next_beat = now + heartbeat_interval
        finally:
            pool.close()
            wake.close()
            ring.close()

    def _drain_inbox(self, conn, inbox, pool, plan, degraded) -> str:
        """Apply queued coordinator messages; returns the session's end
        reason (``"shutdown"``/``"closed"``) or ``""`` while it lives."""
        while True:
            try:
                kind, data = inbox.get_nowait()
            except queue.Empty:
                return ""
            if kind == "task":
                key = data.get("key", "")
                dispatch = int(data.get("dispatch", 1))
                if plan is not None and plan.fires(
                    "agent_crash", key, dispatch
                ):
                    # Die the way a power cut would: no result, no
                    # goodbye, listener gone (handled by serve_forever).
                    raise _AgentCrash(key)
                task = _FrameTask(
                    index=int(data["payload"]["index"]),
                    key=key,
                    attempt=int(data["payload"]["attempt"]),
                    payload=wire_to_payload(data["payload"]),
                    dispatch=dispatch,
                )
                if degraded:
                    self._run_inline(conn, task)
                else:
                    pool.submit(task)
            elif kind == "shutdown":
                self._log("orderly shutdown")
                return "shutdown"
            elif kind == "closed":
                self._log(f"coordinator gone: {data.get('reason')}")
                return "closed"
            # Unknown kinds are ignored: forward-compatible by default.

    def _run_inline(self, conn: socket.socket, task: "_FrameTask") -> None:
        """Degraded mode: measure on the agent's own thread."""
        if obs_trace.active().enabled:
            tracer = obs_trace.Tracer(label="agent-inline")
            with obs_trace.tracing(tracer):
                result = _runner._measure_task(task.payload)
            records: Optional[List[Dict[str, Any]]] = tracer.to_dicts()
        else:
            result = _runner._measure_task(task.payload)
            records = None
        self._send_result(conn, task, result, records)

    @staticmethod
    def _send_result(conn, task: "_FrameTask", result, records) -> None:
        send_message(conn, "result", {
            "key": task.key,
            "dispatch": task.dispatch,
            "outcome": list(result),
            "records": records,
        })


# -- the coordinator --------------------------------------------------------


class _Link:
    """Coordinator-side handle for one connected agent."""

    __slots__ = (
        "slot", "host", "port", "sock", "info", "in_flight", "last_recv",
    )

    def __init__(self, slot: int, host: str, port: int, sock, info) -> None:
        self.slot = slot
        self.host = host
        self.port = port
        self.sock = sock
        self.info = info
        self.in_flight: Dict[int, Task] = {}
        self.last_recv = time.monotonic()

    @property
    def label(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def capacity(self) -> int:
        return max(1, int(self.info.get("jobs", 1)))


class AgentPool(DispatchPool):
    """Remote agents behind the local pool's dispatch interface.

    Every agent is a super-worker with ``jobs`` capacity; dispatching,
    result collection, heartbeat-staleness partition detection, failover
    requeueing, and bounded reconnection all happen inside
    :meth:`poll`, mirroring :class:`SupervisedPool`'s contract exactly —
    the sweep runner drives both through
    :class:`~repro.core.supervisor.DispatchPool` and cannot tell them
    apart.

    Args:
        hosts: ``(host, port)`` pairs; every one must accept the initial
            connection (a bad roster is operator error and fails loudly
            as :class:`AgentUnavailable`).
        hello: session parameters sent to every agent (fault plan,
            runner knobs, tracing flag); see :func:`build_hello`.
        fault_plan: coordinator-side draws for the ``net_partition`` and
            ``message_corrupt`` chaos kinds (``agent_crash`` is drawn
            agent-side, where the dying happens).
        heartbeat_interval: how often agents beat (sent in the hello).
        hang_timeout: an agent silent past this is declared partitioned.
            None falls back to
            :data:`~repro.core.supervisor.DEFAULT_HANG_TIMEOUT` — link
            liveness is paced by heartbeats, not task durations, so the
            coordinator has nothing to adapt to (each agent's *local*
            pool still adapts; the hello forwards None).
        max_reconnects: reconnection attempts **per lost agent** before
            that agent is dropped for good.  Per-link (unlike the local
            pool's global respawn budget) because agent failures are
            independent: one dead host refusing connections must not
            spend the budget a merely-partitioned host needs to heal.
        connect_timeout: TCP connect + handshake deadline per attempt.
        secret: optional shared secret used to answer each agent's
            per-session ``challenge`` nonce (see :func:`auth_proof`).
            Held here rather than baked into the hello because the
            proof depends on the nonce — every connect (and reconnect)
            computes a fresh one.
        backoff_seed: seed for the deterministic reconnect jitter
            (:func:`repro.core.runner.seeded_backoff`); the runner
            forwards its ``backoff_seed`` so retries and reconnects
            share one reproducible schedule.
    """

    def __init__(
        self,
        hosts: Sequence[Tuple[str, int]],
        hello: Dict[str, Any],
        fault_plan: Optional[faults.FaultPlan] = None,
        heartbeat_interval: float = 0.2,
        hang_timeout: Optional[float] = None,
        max_reconnects: int = 8,
        connect_timeout: float = 10.0,
        poll_interval: float = 0.05,
        secret: Optional[str] = None,
        backoff_seed: int = 0,
    ) -> None:
        if not hosts:
            raise ValueError("AgentPool needs at least one host")
        self.hello = dict(hello)
        self.secret = secret
        self.fault_plan = fault_plan
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = (
            DEFAULT_HANG_TIMEOUT if hang_timeout is None else hang_timeout
        )
        self.max_reconnects = max_reconnects
        self.connect_timeout = connect_timeout
        self.poll_interval = poll_interval
        self.backoff_seed = backoff_seed
        self._queue: Deque[Task] = collections.deque()
        self._events: Deque[PoolEvent] = collections.deque()
        self._dispatched: Dict[int, int] = {}
        self._links: List[_Link] = []
        self._down: List[Dict[str, Any]] = []  # reconnect work items
        self._reconnects = 0
        self._closed = False
        self._degraded = False
        #: Provenance: per-address agent identity + results served,
        #: aggregated across reconnects (feeds the manifest's ``hosts``).
        self._host_info: Dict[str, Dict[str, Any]] = {}
        for slot, (host, port) in enumerate(hosts):
            try:
                self._links.append(self._connect(slot, host, port))
            except (OSError, ProtocolError, EOFError) as exc:
                self.close()
                raise AgentUnavailable(
                    f"agent {host}:{port} is unreachable: {exc}"
                ) from exc

    # -- introspection ----------------------------------------------------

    @property
    def reconnects(self) -> int:
        """Reconnection attempts spent so far."""
        return self._reconnects

    def alive_agents(self) -> int:
        """Agents currently connected."""
        return len(self._links)

    def hosts_info(self) -> List[Dict[str, Any]]:
        """Per-host provenance for the manifest: every agent this pool
        ever spoke to, its identity, and the results it served."""
        return [dict(self._host_info[k]) for k in sorted(self._host_info)]

    # -- connection management --------------------------------------------

    def _connect(self, slot: int, host: str, port: int) -> _Link:
        sock = _track(socket.create_connection(
            (host, port), timeout=self.connect_timeout
        ))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            kind, challenge = recv_message(sock)
            if kind != "challenge":
                raise ProtocolError(
                    f"agent {host}:{port} opened with {kind!r}, expected "
                    f"a challenge (protocol < {PROTOCOL_VERSION}?)"
                )
            nonce = challenge.get("nonce")
            if not isinstance(nonce, str) or not nonce:
                raise ProtocolError(
                    f"agent {host}:{port} sent a malformed challenge"
                )
            hello = dict(self.hello)
            hello["auth"] = (
                auth_proof(self.secret, nonce) if self.secret else None
            )
            send_message(sock, "hello", hello)
            kind, info = recv_message(sock)
        except Exception:
            sock.close()
            raise
        if kind == "error":
            sock.close()
            if info.get("code") == "auth":
                # Counted apart from transport losses: a wrong secret is
                # an operator/configuration problem, and it spends the
                # same per-link budget a dead host would (initial
                # connects still fail fast as AgentUnavailable).
                obs_metrics.counter("distributed.auth_failures").inc()
            raise ProtocolError(
                f"agent {host}:{port} rejected the session: "
                f"{info.get('message')}"
            )
        if kind != "hello_ack" or info.get("protocol") != PROTOCOL_VERSION:
            sock.close()
            raise ProtocolError(
                f"agent {host}:{port} sent an unexpected handshake "
                f"({kind!r}, protocol {info.get('protocol')!r})"
            )
        sock.settimeout(max(self.connect_timeout, self.hang_timeout))
        link = _Link(slot, host, port, sock, info)
        entry = self._host_info.setdefault(link.label, {
            "host": host,
            "port": port,
            "results": 0,
            "sessions": 0,
        })
        entry.update(
            hostname=info.get("hostname"),
            pid=info.get("pid"),
            agent_version=info.get("agent_version"),
            jobs=info.get("jobs"),
        )
        entry["sessions"] += 1
        return link

    def _fail_link(self, link: _Link, reason: str) -> None:
        """Salvage, requeue, schedule reconnection — the failover path."""
        if link not in self._links:
            return
        # An agent that sent results and *then* died must not cost the
        # sweep measurements: drain whatever already reached our socket
        # buffer before tearing the link down.
        try:
            while link.in_flight and _readable(link.sock):
                kind, data = recv_message(link.sock)
                if kind == "result":
                    self._accept_result(link, data)
        except (ProtocolError, EOFError, OSError):
            pass
        self._links.remove(link)
        try:
            link.sock.close()
        except OSError:
            pass
        requeued = [link.in_flight[i] for i in sorted(link.in_flight)]
        link.in_flight.clear()
        for task in reversed(requeued):
            # Failover, not retry: head of the queue, same attempt.
            self._queue.appendleft(task)
        self._events.append(PoolEvent(
            reason,
            worker=link.slot,
            tasks=requeued,
            label=link.label,
        ))
        self._down.append({
            "slot": link.slot,
            "host": link.host,
            "port": link.port,
            "next_try": time.monotonic() + self.poll_interval,
            "failures": 0,
        })

    def _try_reconnects(self) -> None:
        now = time.monotonic()
        still_down: List[Dict[str, Any]] = []
        for item in self._down:
            if item["next_try"] > now:
                still_down.append(item)
                continue
            if item["failures"] >= self.max_reconnects:
                continue  # this agent's budget is spent: drop it
            self._reconnects += 1
            try:
                link = self._connect(
                    item["slot"], item["host"], item["port"]
                )
            except (OSError, ProtocolError, EOFError):
                item["failures"] += 1
                # Seeded exponential backoff with deterministic jitter
                # (the runner's retry policy, reused): repeated failures
                # against one address space out geometrically, capped at
                # 2s, and the per-address jitter keeps a pool that lost
                # several agents at once from redialing them in lockstep.
                item["next_try"] = now + _runner.seeded_backoff(
                    self.poll_interval,
                    self.backoff_seed,
                    f"reconnect:{item['host']}:{item['port']}",
                    item["failures"] + 1,
                    cap=2.0,
                )
                still_down.append(item)
                continue
            self._links.append(link)
            self._events.append(PoolEvent(
                "respawn", worker=link.slot, label=link.label
            ))
        self._down = still_down
        if not self._links and not self._down and not self._degraded:
            # No agent left, none coming back: hand every unfinished
            # task to the caller so it can degrade honestly.
            remaining = list(self._queue)
            self._queue.clear()
            self._degraded = True
            self._events.append(PoolEvent("degraded", tasks=remaining))

    # -- DispatchPool interface -------------------------------------------

    def submit(self, task: Task) -> None:
        """Queue a task; it is dispatched on the next :meth:`poll`."""
        self._queue.append(task)

    def poll(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        """The next supervision event (see :class:`DispatchPool`)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._events:
                return self._events.popleft()
            if not self._queue and not any(
                link.in_flight for link in self._links
            ):
                return None
            self._dispatch_queued()
            if self._events:
                continue
            self._read_links()
            self._dispatch_queued()  # refill before report
            self._scan_liveness()
            self._try_reconnects()
            if (
                deadline is not None
                and not self._events
                and time.monotonic() >= deadline
            ):
                return None

    def close(self) -> None:
        """Hang up on every agent (they return to their accept loop)."""
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            try:
                send_message(link.sock, "shutdown", {})
            except OSError:
                pass
            try:
                link.sock.close()
            except OSError:
                pass
        self._links.clear()
        self._queue.clear()
        self._down.clear()

    # -- supervision internals --------------------------------------------

    def _dispatch_queued(self) -> None:
        plan = self.fault_plan
        for link in list(self._links):
            while self._queue and len(link.in_flight) < link.capacity:
                task = self._queue[0]
                count = self._dispatched.get(task.index, 0) + 1
                if plan is not None and plan.fires(
                    "net_partition", task.key, count
                ):
                    # The network dies as we dispatch: nothing is sent,
                    # the dispatch is spent (so a transient partition
                    # clears on the re-dispatch), and the link fails
                    # over like any other loss.
                    self._dispatched[task.index] = count
                    self._fail_link(link, "crash")
                    break
                corrupt = plan is not None and plan.fires(
                    "message_corrupt", task.key, count
                )
                try:
                    send_message(
                        link.sock,
                        "task",
                        {
                            "key": task.key,
                            "dispatch": count,
                            "payload": payload_to_wire(task.payload),
                        },
                        corrupt=corrupt,
                    )
                except OSError:
                    self._fail_link(link, "crash")
                    break
                self._queue.popleft()
                self._dispatched[task.index] = count
                link.in_flight[task.index] = task
            if not self._queue:
                break

    def _read_links(self) -> None:
        socks = [link.sock for link in self._links]
        if not socks:
            time.sleep(self.poll_interval)
            return
        try:
            readable, _, _ = select.select(
                socks, [], [], min(self.poll_interval, self.heartbeat_interval)
            )
        except OSError:
            readable = []
        by_sock = {link.sock: link for link in self._links}
        for sock in readable:
            link = by_sock.get(sock)
            if link is None or link not in self._links:
                continue
            try:
                kind, data = recv_message(link.sock)
            except (ProtocolError, EOFError, OSError) as exc:
                del exc
                self._fail_link(link, "crash")
                continue
            link.last_recv = time.monotonic()
            if kind == "result":
                self._accept_result(link, data)
            # heartbeats only refresh last_recv; unknown kinds ignored.

    def _accept_result(self, link: _Link, data: Dict[str, Any]) -> None:
        outcome = data.get("outcome")
        if not isinstance(outcome, list) or len(outcome) != 4:
            raise ProtocolError("malformed result outcome")
        index = outcome[1]
        task = link.in_flight.pop(index, None)
        self._host_info[link.label]["results"] += 1
        self._events.append(PoolEvent(
            "result",
            worker=link.slot,
            task=task,
            result=tuple(outcome),
            records=data.get("records"),
            label=link.label,
        ))

    def _scan_liveness(self) -> None:
        now = time.monotonic()
        for link in list(self._links):
            if now - link.last_recv > self.hang_timeout:
                self._fail_link(link, "hang")


def _readable(sock: socket.socket, timeout: float = 0.0) -> bool:
    """Whether ``sock`` turns readable within ``timeout`` seconds."""
    try:
        readable, _, _ = select.select([sock], [], [], max(0.0, timeout))
    except OSError:
        return False
    return bool(readable)


def _drain_socket(sock: socket.socket) -> None:
    """Read and discard whatever a non-blocking socket holds."""
    try:
        while sock.recv(4096):
            pass
    except OSError:
        pass  # nothing left (BlockingIOError) or already closed


def build_hello(
    fault_plan: Optional[faults.FaultPlan],
    heartbeat_interval: float,
    hang_timeout: Optional[float],
    max_respawns: int,
    tracing: bool,
    note: str = "",
) -> Dict[str, Any]:
    """The coordinator's session-opening message.

    Carries every policy knob an agent needs, so the whole fleet is
    configured from one command line: the fault plan (as a plain dict —
    agents re-hydrate it), the supervision cadence for the agent's own
    worker pool (``hang_timeout=None`` asks each agent's pool to adapt
    its own threshold), and whether workers should trace their tasks.
    The ``auth`` field is deliberately absent here:
    :class:`AgentPool` fills it per connection, because the
    :func:`auth_proof` depends on the session's challenge nonce.
    """
    from dataclasses import asdict

    return {
        "protocol": PROTOCOL_VERSION,
        "fault_plan": asdict(fault_plan) if fault_plan is not None else None,
        "runner": {
            "heartbeat_interval": heartbeat_interval,
            "hang_timeout": hang_timeout,
            "max_respawns": max_respawns,
        },
        "tracing": tracing,
        "note": note,
    }
