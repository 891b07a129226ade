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
- the **coordinator** side (``repro run ... --hosts
  host1:port,host2:port``) dials each agent with :func:`open_session`
  into a :class:`repro.core.service.HostRoster` and leases it work
  through :class:`repro.core.service.LeasePool`, the one remote pool
  (``repro serve``'s dialed-in agents use it too).  Each agent is a
  super-worker with ``jobs`` capacity behind the same
  :class:`~repro.core.supervisor.DispatchPool` interface the local pool
  implements, so the sweep runner cannot tell local workers from remote
  hosts.

Failure philosophy (mirroring the supervised pool, one layer up):

- **framing** — every message is a length-prefixed frame whose payload
  carries its own SHA-256 (the checkpoint journal's record discipline,
  applied to the wire): a torn or corrupted frame is *detected*, never
  silently half-applied;
- **liveness** — agents heartbeat over the socket; an agent silent past
  the lease deadline is declared partitioned, whatever TCP thinks;
- **failover** — a lost agent's in-flight setups are requeued **at the
  same attempt number**; network loss never consumes a measurement's
  retry budget;
- **recovery** — the coordinator redials lost agents within a bounded
  budget (a partition heals; a dead agent's refused connections spend
  the budget and drop it from the roster);
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
from typing import Any, Dict, List, Optional, Tuple

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
    InlinePool,
    SupervisedPool,
    Task,
)
from repro.obs import metrics as obs_metrics

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


def challenge() -> Dict[str, Any]:
    """The checking side's opening frame body: a fresh random nonce per
    session, so a proof is only ever valid for the handshake it was
    minted for (a captured opener replays as garbage against the next
    nonce)."""
    return {"protocol": PROTOCOL_VERSION, "nonce": secrets.token_hex(16)}


def refusal(
    opener: Dict[str, Any], nonce: str, secret: Optional[str], role: str
) -> Optional[Dict[str, Any]]:
    """The checking half of the handshake, one copy for both directions:
    a listening agent checks its coordinator's ``hello`` (``role`` is
    ``"agent"``) and ``repro serve`` checks each dialing agent's
    ``register`` (``role`` is ``"coordinator"``).

    Returns the ``error`` frame body that refuses ``opener``, or None to
    accept it.  The protocol version and the proof are checked before
    any other field of the opener is used: an unauthenticated peer
    configures nothing.  An auth refusal carries ``code: "auth"`` so the
    peer can count it apart from transport losses, and never echoes the
    digest.
    """
    sent = opener.get("protocol")
    if sent != PROTOCOL_VERSION:
        # A listening agent also names what its coordinator sent.
        detail = f", coordinator sent {sent!r}" if role == "agent" else ""
        return {
            "message": f"protocol mismatch: {role} speaks "
                       f"{PROTOCOL_VERSION}{detail}",
        }
    if secret is not None:
        proof = opener.get("auth")
        if not (
            isinstance(proof, str)
            and hmac.compare_digest(proof, auth_proof(secret, nonce))
        ):
            return {
                "code": "auth",
                "message": f"authentication failed: {role} requires a "
                           "shared secret (--secret)",
            }
    return None


def open_session(
    sock: socket.socket,
    opener: str,
    data: Dict[str, Any],
    secret: Optional[str],
    peer: str,
    expect: str,
) -> Tuple[str, Dict[str, Any]]:
    """The proving half of the handshake, one copy for both directions:
    a coordinator dialing a listening agent (``hello``, expecting
    ``hello_ack``) and an agent dialing ``repro serve`` (``register``,
    expecting ``registered``).

    Reads the peer's ``challenge``, sends ``opener`` carrying ``data``
    plus the :func:`auth_proof` of the challenge nonce (None without a
    secret), and returns the peer's reply: ``expect`` at this protocol
    version, or an ``error`` the caller turns into its own refusal.
    Anything else raises :class:`ProtocolError` naming ``peer``.
    """
    kind, opening = recv_message(sock)
    if kind != "challenge":
        raise ProtocolError(
            f"{peer} opened with {kind!r}, expected a challenge "
            f"(protocol < {PROTOCOL_VERSION}?)"
        )
    nonce = opening.get("nonce")
    if not isinstance(nonce, str) or not nonce:
        raise ProtocolError(f"{peer} sent a malformed challenge")
    proof = auth_proof(secret, nonce) if secret else None
    send_message(sock, opener, dict(data, auth=proof))
    kind, reply = recv_message(sock)
    if kind == "error" or (
        kind == expect and reply.get("protocol") == PROTOCOL_VERSION
    ):
        return kind, reply
    raise ProtocolError(
        f"{peer} sent an unexpected handshake ({kind!r}, protocol "
        f"{reply.get('protocol')!r})"
    )


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
            kind, data = open_session(
                sock, "register", self._identity(), self.secret,
                f"coordinator {host}:{port}", "registered",
            )
            if kind == "error":
                # An auth refusal is fatal, not retried: a wrong secret
                # is operator error, and redialing would never heal it.
                refused = (
                    AgentUnavailable if data.get("code") == "auth"
                    else ProtocolError
                )
                raise refused(
                    f"coordinator {host}:{port} refused registration: "
                    f"{data.get('message')}"
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
        opening = challenge()
        send_message(conn, "challenge", opening)
        kind, hello = recv_message(conn)
        if kind != "hello":
            raise ProtocolError(f"expected hello, got {kind!r}")
        refused = refusal(hello, opening["nonce"], self.secret, "agent")
        if refused is not None:
            send_message(conn, "error", refused)
            raise ProtocolError(
                f"refused the coordinator: {refused['message']}"
            )
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
        next_beat = time.monotonic() + heartbeat_interval
        try:
            with faults.injected_faults(plan):
                while True:
                    # Silence the ring before reading the inbox: a
                    # message queued after this point rings again.
                    _drain_socket(wake)
                    reason = self._drain_inbox(inbox, pool, plan)
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
                        # Local respawn budget spent: the tasks the pool
                        # hands back, and every later task frame, run on
                        # this thread.  The coordinator never sees the
                        # difference — the agent's report obligations
                        # are per-result, spans included.
                        obs_metrics.counter("agent.degraded_sessions").inc()
                        self._log(
                            "worker pool degraded; running in-process"
                        )
                        pool.close()
                        pool = InlinePool(
                            _runner._measure_task, tracing=session.tracing
                        )
                        for task in event.tasks:
                            pool.submit(task)
                    now = time.monotonic()
                    if now >= next_beat:
                        send_message(conn, "heartbeat", {})
                        next_beat = now + heartbeat_interval
        finally:
            pool.close()
            wake.close()
            ring.close()

    def _drain_inbox(self, inbox, pool, plan) -> str:
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
                pool.submit(task)
            elif kind == "shutdown":
                self._log("orderly shutdown")
                return "shutdown"
            elif kind == "closed":
                self._log(f"coordinator gone: {data.get('reason')}")
                return "closed"
            # Unknown kinds are ignored: forward-compatible by default.

    @staticmethod
    def _send_result(conn, task: "_FrameTask", result, records) -> None:
        send_message(conn, "result", {
            "key": task.key,
            "dispatch": task.dispatch,
            "outcome": list(result),
            "records": records,
        })


# -- the coordinator --------------------------------------------------------


class AgentLink:
    """The lease pool's handle for one agent session.

    ``conn`` is the link's asyncio stream writer, owned by the agent
    registry's event loop (:class:`repro.core.service.AgentRegistry`),
    whichever side dialed: an agent that dialed in to ``repro serve`` or
    a ``--hosts`` agent the coordinator dialed.
    """

    __slots__ = (
        "slot", "label", "info", "conn", "in_flight", "last_recv", "lost",
        "results",
    )

    def __init__(self, slot: int, label: str, info: Dict[str, Any],
                 conn: Any) -> None:
        self.slot = slot
        self.label = label
        self.info = info
        self.conn = conn
        #: Tasks dispatched to this agent and not yet settled
        #: (index -> Task); owned by the pool that dispatches to the link
        #: (the thread polling it, never the event loop).
        self.in_flight: Dict[int, Task] = {}
        self.last_recv = time.monotonic()
        #: Set once the link is known gone (transport closed, or failed
        #: over by the lease pool); a lost link takes no further task.
        self.lost = False
        #: Results accepted from this link (dropped duplicates aside).
        self.results = 0

    @property
    def capacity(self) -> int:
        """Concurrent tasks this agent advertises (its ``--jobs``)."""
        return max(1, int(self.info.get("jobs", 1)))


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
    :func:`open_session` fills it per connection, because the
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
