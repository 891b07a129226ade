"""Unit tests: the distributed coordinator/agent layer.

Covers the distributed acceptance criteria: a loopback sweep across two
TCP agents — with and without injected network chaos (agent crashes,
partitions, corrupted frames) — produces a report byte-identical to the
fault-free serial run; a roster with no live agent left degrades
honestly to local execution; a bad roster fails loudly before any
measurement; remote spans are grafted under host-qualified aliases;
the manifest names every host that served results; a ``--hosts``
sweep leases, so each session beyond a host's first is one counted
reconnect and an expired lease's twin never reaches the report;
dispatch is event-driven: an agent starts a task frame without waiting
on a timer, and the coordinator refills a freed agent before it
reports; the roster-backed lease pool reports the worker gauges a
metrics timeline samples; and an agent whose worker pool degrades
keeps serving in-process, sending spans exactly when its session asks
for them.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro import faults, workloads
from repro.core import Experiment, ExperimentalSetup
from repro.core import distributed as dist
from repro.core import service as svc
from repro.core.runner import RunnerConfig, SweepRunner
from repro.core.supervisor import Task
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

WORKLOAD = "sphinx3"

SETUPS = [
    ExperimentalSetup(env_bytes=e) for e in (100, 116, 132, 148, 164, 180)
]

#: Network chaos validated to fire every kind at least once against
#: SETUPS (asserted in the chaos test, not assumed).
CHAOS_PLAN = faults.FaultPlan(
    seed=10,
    agent_crash_rate=0.12,
    net_partition_rate=0.3,
    message_corrupt_rate=0.3,
    transient_fraction=1.0,
    max_transient_attempts=1,
)

#: Coordinator knobs tuned for test wall-clock.
FAST_DIST = dict(
    heartbeat_interval=0.05,
    hang_timeout=2.0,
    max_respawns=2,
    connect_timeout=3.0,
)


def fresh_experiment():
    return Experiment(workloads.get(WORKLOAD))


def keys():
    exp = fresh_experiment()
    return [
        faults.fault_key(exp.workload.name, exp.size, exp.seed, s)
        for s in SETUPS
    ]


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


@contextlib.contextmanager
def lone_agent(jobs, **kwargs):
    """One loopback agent on an ephemeral port, stopped on exit."""
    server = dist.AgentServer(jobs=jobs, quiet=True, **kwargs)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=5.0)


@contextlib.contextmanager
def roster_pool(addresses):
    """A lease pool over a roster that dials ``addresses``, closed on
    exit (the pool a ``--hosts`` sweep runs on)."""
    roster = svc.HostRoster(
        addresses, dist.build_hello(None, 0.05, 2.0, 2, False),
        connect_timeout=3.0,
    )
    pool = svc.LeasePool(
        roster, lease_timeout=2.0, heartbeat_interval=0.05,
        agentless_grace=float("inf"),
    )
    try:
        yield pool
    finally:
        pool.close()
        roster.close()


@pytest.fixture
def agents():
    """Two loopback agents on ephemeral ports, stopped at teardown."""
    with lone_agent(jobs=2) as first, lone_agent(jobs=2) as second:
        yield [first, second]


def hosts_arg(servers):
    return ",".join(f"127.0.0.1:{s.address[1]}" for s in servers)


def make_task(index, delay=0.0):
    """A runner-shaped attempt-1 task for ``SETUPS[index]``."""
    exp = fresh_experiment()
    payload = (
        index, WORKLOAD, exp.size, exp.seed, SETUPS[index], True, 1, None,
        None, delay,
    )
    return Task(index=index, key=keys()[index], attempt=1, payload=payload)


def open_session(server):
    """Handshake with ``server`` as a coordinator would; the caller
    owns the returned session socket."""
    sock = socket.create_connection(server.address, timeout=10.0)
    kind, _ = dist.recv_message(sock)
    assert kind == "challenge"
    dist.send_message(sock, "hello", dist.build_hello(None, 0.05, None, 2,
                                                      False))
    kind, _ = dist.recv_message(sock)
    assert kind == "hello_ack"
    return sock


def send_task(sock, task, dispatch=1):
    dist.send_message(sock, "task", {
        "key": task.key,
        "dispatch": dispatch,
        "payload": dist.payload_to_wire(task.payload),
    })


def recv_result(sock):
    """The next result frame on a session (heartbeats skipped)."""
    while True:
        kind, data = dist.recv_message(sock)
        if kind == "result":
            return data


def run_sweep(plan=None, hosts=None, **cfg):
    runner = SweepRunner(
        fresh_experiment(),
        RunnerConfig(jobs=1, max_retries=2, hosts=hosts, **cfg),
        fault_plan=plan,
        sleep=lambda s: None,
    )
    return runner.run(SETUPS), runner


class TestFraming:
    def roundtrip(self, kind, data, corrupt=False):
        a, b = socket.socketpair()
        try:
            dist.send_message(a, kind, data, corrupt=corrupt)
            return dist.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_message_roundtrip(self):
        kind, data = self.roundtrip("task", {"key": "k", "n": [1, 2, 3]})
        assert kind == "task"
        assert data == {"key": "k", "n": [1, 2, 3]}

    def test_corrupted_frame_is_rejected(self):
        with pytest.raises(
            dist.ProtocolError, match="JSON|checksum|frame"
        ):
            self.roundtrip("task", {"key": "k"}, corrupt=True)

    def test_bad_magic_is_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"NOPE" + b"\x00" * 8)
            with pytest.raises(dist.ProtocolError, match="magic"):
                dist.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_is_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(
                dist._HEADER.pack(dist.MAGIC, dist.MAX_FRAME_BYTES + 1)
            )
            with pytest.raises(dist.ProtocolError, match="length"):
                dist.recv_message(b)
        finally:
            a.close()
            b.close()

    def test_clean_close_is_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                dist.recv_message(b)
        finally:
            b.close()

    def test_task_payload_roundtrip(self):
        exp = fresh_experiment()
        payload = (
            3, WORKLOAD, exp.size, exp.seed, SETUPS[3], True, 2, None,
            None, 0.0,
        )
        assert dist.wire_to_payload(dist.payload_to_wire(payload)) == payload


class TestAddressParsing:
    def test_parse_host(self):
        assert dist.parse_host(" node1:9000 ") == ("node1", 9000)

    @pytest.mark.parametrize(
        "spec", ["node1", ":9000", "node1:", "node1:port", "node1:70000"]
    )
    def test_parse_host_rejects(self, spec):
        with pytest.raises(ValueError):
            dist.parse_host(spec)

    def test_parse_hosts(self):
        assert dist.parse_hosts("a:1, b:2,") == [("a", 1), ("b", 2)]

    def test_parse_hosts_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            dist.parse_hosts(" , ")

    def test_runner_config_validates_hosts_eagerly(self):
        with pytest.raises(ValueError):
            RunnerConfig(hosts="node1")
        with pytest.raises(ValueError):
            RunnerConfig(connect_timeout=0.0)


class TestAgentServer:
    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            dist.AgentServer(jobs=0)

    def test_version_2_coordinator_is_refused_at_the_handshake(self):
        """Version 3 results echo their task key; a version-2 peer is
        turned away before any task instead of talking past the agent."""
        with lone_agent(jobs=1) as server:
            sock = socket.create_connection(server.address, timeout=10.0)
            try:
                _, challenge = dist.recv_message(sock)
                hello = dist.build_hello(None, 0.05, None, 2, False)
                hello["protocol"] = 2
                dist.send_message(sock, "hello", hello)
                kind, data = dist.recv_message(sock)
            finally:
                sock.close()
        assert challenge["protocol"] == dist.PROTOCOL_VERSION == 3
        assert kind == "error" and "protocol mismatch" in data["message"]

    def test_port_file_written(self, tmp_path):
        port_file = tmp_path / "agent.port"
        server = dist.AgentServer(port_file=str(port_file), quiet=True)
        try:
            host, port = server.bind()
            assert int(port_file.read_text()) == port
        finally:
            server.stop()
            server._close_listener()


class TestDistributedSweep:
    @pytest.mark.slow
    def test_fault_free_report_is_byte_identical_to_serial(self, agents):
        serial, _ = run_sweep()
        result, runner = run_sweep(hosts=hosts_arg(agents), **FAST_DIST)
        assert result.report.to_json() == serial.report.to_json()
        assert result.report.complete and not result.report.degraded
        served = {h["port"]: h for h in runner.hosts_served}
        assert set(served) == {s.address[1] for s in agents}
        assert sum(h["results"] for h in served.values()) == len(SETUPS)
        for info in served.values():
            assert info["hostname"] == socket.gethostname()
            assert info["jobs"] == 2

    @pytest.mark.slow
    def test_chaos_report_is_byte_identical_to_serial(self, agents):
        """The tentpole criterion: agent crashes, partitions and
        corrupted frames are infrastructure faults — invisible in the
        report."""
        # The plan must exercise every network failure path.  A
        # partition at first dispatch suppresses corruption (nothing is
        # sent) and both suppress the agent-side crash draw (the task
        # never arrives), so assert on *effective* outcomes.
        fired = {"agent_crash": 0, "net_partition": 0, "message_corrupt": 0}
        for key in keys():
            part = CHAOS_PLAN.fires("net_partition", key, 1)
            corrupt = CHAOS_PLAN.fires("message_corrupt", key, 1) and not part
            crash = (
                CHAOS_PLAN.fires("agent_crash", key, 1)
                and not part
                and not corrupt
            )
            fired["net_partition"] += part
            fired["message_corrupt"] += corrupt
            fired["agent_crash"] += crash
        assert all(fired.values()), f"inert chaos plan: {fired}"

        serial, _ = run_sweep()
        result, runner = run_sweep(
            plan=CHAOS_PLAN, hosts=hosts_arg(agents), **FAST_DIST
        )
        assert result.report.to_json() == serial.report.to_json()
        assert result.report.complete and not result.report.degraded
        assert result.report.retries == 0, (
            "network failover was charged as a measurement retry"
        )
        assert sum(s.crashed for s in agents) == 1
        assert sum(h["results"] for h in runner.hosts_served) == len(SETUPS)

    @pytest.mark.slow
    def test_all_agents_lost_degrades_honestly(self, agents):
        """Every agent crashing must finish the sweep locally and name
        every unfinished setup — never a silent partial table."""
        plan = faults.FaultPlan(
            seed=1, agent_crash_rate=1.0, transient_fraction=0.0
        )
        baseline, _ = run_sweep()
        result, _ = run_sweep(
            plan=plan, hosts=hosts_arg(agents), **FAST_DIST
        )
        rep = result.report
        assert rep.degraded
        assert rep.degraded_setups == [s.describe() for s in SETUPS]
        assert rep.complete  # the local fallback measured everything
        assert all(s.crashed for s in agents)
        assert [m.cycles for m in result.ok] == [
            m.cycles for m in baseline.ok
        ]

    @pytest.mark.slow
    def test_each_session_after_a_hosts_first_is_one_reconnect(
        self, agents
    ):
        """A join counts as a reconnect only when its link rejoins a
        slot whose agent was lost, so the counter matches the sessions
        the manifest names beyond each host's first."""
        reconnects = obs_metrics.counter("distributed.reconnects")
        before = reconnects.value
        result, runner = run_sweep(
            plan=CHAOS_PLAN, hosts=hosts_arg(agents), **FAST_DIST
        )
        assert result.report.complete
        sessions = [h["sessions"] for h in runner.hosts_served]
        assert max(sessions) > 1
        assert reconnects.value - before == sum(sessions) - len(sessions)

    @pytest.mark.slow
    def test_expired_leases_are_invisible_in_the_report(self, agents):
        """A ``--hosts`` sweep leases: a forced lease expiry requeues the
        setup at the same attempt, the agent's late twin is dropped, and
        the report and the per-host results stay exact."""
        plan = faults.FaultPlan(
            seed=3, lease_expire_rate=0.4, transient_fraction=1.0,
            max_transient_attempts=1,
        )
        assert sum(plan.fires("lease_expire", key, 1) for key in keys()) == 2
        expired = obs_metrics.counter("service.leases_expired")
        before = expired.value
        serial, _ = run_sweep()
        result, runner = run_sweep(
            plan=plan, hosts=hosts_arg(agents), **FAST_DIST
        )
        assert result.report.to_json() == serial.report.to_json()
        assert expired.value - before >= 2
        assert sum(h["results"] for h in runner.hosts_served) == len(SETUPS)

    def test_bad_roster_fails_loudly(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(dist.AgentUnavailable, match="unreachable"):
            run_sweep(
                hosts=f"127.0.0.1:{dead_port}", connect_timeout=3.0
            )

    @pytest.mark.slow
    def test_remote_spans_graft_under_host_aliases(self, agents):
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            result, _ = run_sweep(hosts=hosts_arg(agents), **FAST_DIST)
        assert result.report.complete
        remote = [s for s in tracer.spans if "/setup@" in s.path]
        assert remote, "no remote spans were grafted"
        labels = {f"127.0.0.1:{s.address[1]}" for s in agents}
        aliases = set()
        for span in remote:
            host_part, alias = span.path.split("/")[1:3]
            assert host_part in labels
            aliases.add(alias)
        assert aliases == {f"setup@{i}.1" for i in range(len(SETUPS))}

    @pytest.mark.slow
    def test_manifest_names_every_host(self, agents, tmp_path):
        result, runner = run_sweep(hosts=hosts_arg(agents), **FAST_DIST)
        manifest = obs_manifest.build_manifest(
            experiment=fresh_experiment(),
            setups=SETUPS,
            report=result.report,
            hosts=runner.hosts_served,
        )
        assert obs_manifest.validate_manifest(manifest) == []
        assert {h["port"] for h in manifest["hosts"]} == {
            s.address[1] for s in agents
        }
        path = tmp_path / "manifest.json"
        obs_manifest.save_manifest(str(path), manifest)
        reloaded = obs_manifest.load_manifest(str(path))
        assert obs_manifest.validate_manifest(reloaded) == []
        assert reloaded["hosts"] == manifest["hosts"]


class TestEventDrivenDispatch:
    """An agent acts on a task frame as soon as it lands, and the
    coordinator hands a freed agent its next task before reporting."""

    @pytest.mark.slow
    def test_idle_agent_takes_each_task_without_a_timer(self):
        started = time.monotonic()
        run_sweep()
        runs = time.monotonic() - started  # the six runs' own time
        pause = 0.02  # a coordinator's bookkeeping between two setups
        with lone_agent(jobs=1) as server:
            # The bound below allows each task 0.25 s between its frame
            # landing and its result going out, beyond the runs' own
            # time: far above their noise, so only an agent that leaves
            # a landed task frame waiting on a timer fails it.
            sock = open_session(server)
            try:
                started = time.monotonic()
                for index in range(len(SETUPS)):
                    send_task(sock, make_task(index))
                    outcome = recv_result(sock)["outcome"]
                    assert outcome[:3] == ["ok", index, 1]
                    time.sleep(pause)
                elapsed = time.monotonic() - started
                dist.send_message(sock, "shutdown", {})
            finally:
                sock.close()
        idle = elapsed - runs - len(SETUPS) * pause
        assert idle < 0.25 * len(SETUPS)

    def test_spare_worker_takes_a_task_while_another_runs(self):
        slow, quick = make_task(0, delay=1.5), make_task(1)
        with lone_agent(jobs=2) as server:
            # The quick task's result must lead the slow one's by more
            # than 0.3 s (asserted below): an agent that parked it behind
            # the busy worker would report the two back to back.
            sock = open_session(server)
            try:
                send_task(sock, slow)
                # The slow task is surely running when the quick one
                # lands.
                time.sleep(0.6)
                send_task(sock, quick, dispatch=7)
                first = recv_result(sock)
                first_at = time.monotonic()
                second = recv_result(sock)
                second_at = time.monotonic()
                dist.send_message(sock, "shutdown", {})
            finally:
                sock.close()
        assert first["outcome"][1] == quick.index
        assert second_at - first_at > 0.3
        # Results echo their task frame's key and dispatch (protocol 3).
        assert (first["key"], first["dispatch"]) == (quick.key, 7)
        assert (second["key"], second["dispatch"]) == (slow.key, 1)

    def test_agent_pool_refills_before_it_reports(self):
        with lone_agent(jobs=1) as server, \
                roster_pool([server.address]) as pool:
            first, second = make_task(0), make_task(1)
            pool.submit(first)
            pool.submit(second)
            event = pool.poll(timeout=30.0)
            assert event.kind == "result" and event.task is first
            (link,) = pool.registry.live_links()
            assert link.in_flight == {second.index: second}
            event = pool.poll(timeout=30.0)
            assert event.kind == "result" and event.task is second


class TestDegradedAgent:
    """An agent whose own worker pool degrades keeps serving in-process,
    and still sends the spans its session asked for — whether or not
    the agent's own process traces."""

    #: Every worker dies on its first task and none is respawned, so the
    #: agent's pool degrades at once.
    DOOMED = faults.FaultPlan(seed=1, worker_crash_rate=1.0)

    def degraded_result(self, task, tracing):
        """The result frame a degraded ``jobs=1`` agent sends for
        ``task`` in a session whose hello asks for ``tracing``."""
        with lone_agent(jobs=1) as server:
            sock = socket.create_connection(server.address, timeout=30.0)
            try:
                kind, _ = dist.recv_message(sock)
                assert kind == "challenge"
                dist.send_message(sock, "hello", dist.build_hello(
                    self.DOOMED, 0.05, None, 0, tracing
                ))
                kind, _ = dist.recv_message(sock)
                assert kind == "hello_ack"
                send_task(sock, task)
                result = recv_result(sock)
                dist.send_message(sock, "shutdown", {})
            finally:
                sock.close()
        assert result["outcome"][:3] == ["ok", task.index, 1]
        return result

    def test_traced_session_gets_the_setups_spans(self):
        # An env size no other test here measures, so the run is never
        # a cache hit, which would record no span.
        exp = fresh_experiment()
        setup = ExperimentalSetup(env_bytes=1001)
        task = Task(
            index=0,
            key=faults.fault_key(exp.workload.name, exp.size, exp.seed, setup),
            attempt=1,
            payload=(0, WORKLOAD, exp.size, exp.seed, setup, True, 1, None,
                     None, 0.0),
        )
        assert obs_trace.active().enabled is False
        result = self.degraded_result(task, tracing=True)
        assert isinstance(result["records"], list)
        assert "run" in {r["name"] for r in result["records"]}

    def test_untraced_session_gets_no_spans_from_a_traced_agent(self):
        with obs_trace.tracing(obs_trace.Tracer(label="agent process")):
            result = self.degraded_result(make_task(0), tracing=False)
        assert result["records"] is None


class TestTimelineGauges:
    def test_agent_pool_stats_counts_agents_and_queue(self):
        """A ``--hosts`` sweep's metrics timeline reads the agent pool's
        own gauges — live agents, busy agents and undispatched tasks —
        not the serial-mode placeholders."""
        tasks = [make_task(index, delay=0.5) for index in range(5)]
        with lone_agent(jobs=2) as server, \
                roster_pool([server.address]) as pool:
            for task in tasks:
                pool.submit(task)
            # Two tasks fill the agent's jobs; none is back yet.
            assert pool.poll(timeout=0.1) is None
            assert pool.stats() == {
                "workers_alive": 1,
                "workers_busy": 1,
                "queue_depth": 3,
                "leases": 2,
            }


class TestAuthentication:
    @pytest.fixture
    def secured_agent(self):
        with lone_agent(jobs=2, secret="s3cret") as server:
            yield server

    def test_proof_is_not_the_secret_and_is_nonce_bound(self):
        proof = dist.auth_proof("s3cret", "aa" * 16)
        assert proof == dist.auth_proof("s3cret", "aa" * 16)
        assert "s3cret" not in proof
        assert proof != dist.auth_proof("other", "aa" * 16)
        assert proof != dist.auth_proof("s3cret", "bb" * 16)
        int(proof, 16)

    def test_hello_carries_no_static_auth(self):
        # The proof depends on the per-session challenge nonce, so the
        # reusable hello must not embed any secret-derived material.
        hello = dist.build_hello(None, 0.2, None, 8, False)
        assert "auth" not in hello

    def test_captured_proof_does_not_replay(self, secured_agent):
        """A passive observer of one handshake cannot authenticate with
        the captured proof: the next session challenges with a fresh
        nonce."""
        host, port = secured_agent.address

        def handshake(proof):
            sock = socket.create_connection((host, port), timeout=3.0)
            try:
                sock.settimeout(3.0)
                kind, challenge = dist.recv_message(sock)
                assert kind == "challenge"
                nonce = challenge["nonce"]
                hello = dist.build_hello(None, 0.2, None, 8, False)
                hello["auth"] = (
                    proof if proof is not None
                    else dist.auth_proof("s3cret", nonce)
                )
                dist.send_message(sock, "hello", hello)
                reply, data = dist.recv_message(sock)
                if reply == "hello_ack":
                    dist.send_message(sock, "shutdown", {})
                return reply, data, nonce, hello["auth"]
            finally:
                sock.close()

        reply, _data, first_nonce, captured = handshake(None)
        assert reply == "hello_ack"
        replayed, data, second_nonce, _ = handshake(captured)
        assert second_nonce != first_nonce
        assert replayed == "error" and data.get("code") == "auth"

    def test_missing_secret_is_refused_and_counted(self, secured_agent):
        from repro.obs import metrics as obs_metrics

        before = obs_metrics.counter("distributed.auth_failures").value
        host, port = secured_agent.address
        with pytest.raises(dist.AgentUnavailable, match="rejected"):
            run_sweep(hosts=f"{host}:{port}", **FAST_DIST)
        assert (
            obs_metrics.counter("distributed.auth_failures").value
            == before + 1
        )

    def test_wrong_secret_is_refused(self, secured_agent):
        host, port = secured_agent.address
        with pytest.raises(dist.AgentUnavailable, match="rejected"):
            run_sweep(hosts=f"{host}:{port}", secret="wrong", **FAST_DIST)

    @pytest.mark.slow
    def test_matching_secret_sweeps_byte_identically(self, secured_agent):
        serial, _ = run_sweep()
        host, port = secured_agent.address
        result, _ = run_sweep(
            hosts=f"{host}:{port}", secret="s3cret", **FAST_DIST
        )
        assert result.report.to_json() == serial.report.to_json()
        assert result.report.complete and not result.report.degraded

    def test_open_agent_ignores_coordinator_secret(self, agents):
        """A secret on the coordinator side only must not break an
        unsecured fleet (rolling deployment order is free)."""
        result, _ = run_sweep(
            hosts=hosts_arg(agents), secret="s3cret", **FAST_DIST
        )
        assert result.report.complete
