#!/usr/bin/env python
"""Crash-consistency harness: SIGKILL real sweeps at deterministic
barriers, resume them, and prove the recovery machinery airtight.

The robustness docs promise that a sweep killed at *any* instant can be
resumed without losing or changing data.  This tool makes that promise
executable.  It runs a real ``repro`` command in a subprocess with one
of four **barriers** monkeypatched into the product code, SIGKILLs the
process at the barrier, re-runs with the same ``--resume`` journal (or
restarts the service on the same workdir), and then asserts the
recovered state is *byte-identical* to what an uninterrupted run
produces:

``journal:N``
    SIGKILL immediately after the sync that makes the Nth journal
    record durable — the classic "power cut between checkpoints".
``warm-journal:N``
    The journal barrier in a warm cycle: an uninterrupted run fills a
    store first, and every phase then starts from a copy of it and a
    fresh journal, so all records arrive in the store probe's one group
    commit and the barrier lands inside that batch.  The reference's
    warm journal must also be byte-identical to the filling run's cold
    one.
``store-put:N``
    On the Nth content-addressed store put, leave a torn ``.tmp-`` file
    in the shard directory and SIGKILL *before* the atomic rename — a
    crash mid-put must never publish a partial entry.
``archive:N``
    On the Nth atomic archive write, persist half the payload to the
    temp file and SIGKILL before ``os.replace`` — readers must keep
    seeing the old state, and a re-run must converge.
``queue:N``
    SIGKILL a ``repro serve`` coordinator immediately after the sync
    that makes the Nth *lease* record durable in its study-queue WAL —
    mid-study, with agents registered and work in flight.  The harness
    restarts the service on the same workdir (its dial-in agents
    re-register on their own), resubmits the same spec, and asserts the
    finished report is byte-identical to a serial ``repro study`` —
    plus that the WAL holds exactly one ``complete`` record per setup
    (nothing double-counted, nothing dropped) and that ``repro fsck``
    signs off on it.

The ``journal``, ``warm-journal`` and ``queue`` barriers share one hook:
:func:`repro.core.checklog.commit`, where every journal and WAL record
becomes durable, counts the records each sync makes durable.

Byte-identity cannot be asserted on the *resumed* report directly (it
legitimately says "resumed" where the reference says "measured"), so
each cycle compares two things instead:

1. the published stdout tables (minus the ``sweep:`` accounting line),
   which must not change at all, and
2. a **verification re-run** from each journal: re-running the
   reference sweep resumes everything from its journal, re-running the
   crash-recovered sweep resumes everything from *its* journal, and
   those two all-resumed reports must be byte-identical.

``sigstop`` mode covers the *coordinator* fault family instead: the
whole process group (parent + workers) is SIGSTOP'd mid-sweep for
longer than ``--hang-timeout``, then resumed.  Without the
supervisor's parent-stall re-baseline this manufactures heartbeat
false-positives — every worker looks hung, gets killed, and (with
``--max-respawns 0``) the sweep degrades; the run asserts the report
stays clean and byte-identical to the serial reference.

Usage (CI runs ``all``)::

    python tools/crashsim.py cycle --barrier journal:3 --workdir /tmp/cs
    python tools/crashsim.py cycle --barrier warm-journal:3 --workdir /tmp/cs
    python tools/crashsim.py sigstop --workdir /tmp/cs
    python tools/crashsim.py all --workdir /tmp/cs

Exit status: 0 when every assertion holds, 1 otherwise.  The ``child``
command is internal (the subprocess entry that installs the barrier).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Tuple

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: The standard 8-setup sweep every cycle exercises; ``@RUN@`` is
#: substituted with the per-phase run directory so reference, crash and
#: resume runs each get their own journal/store/report files.
DEFAULT_SPEC = (
    "study sphinx3 env --env-start 100 --env-stop 228 --env-step 32 "
    "--quiet --resume @RUN@/j.jsonl --store @RUN@/st "
    "--report-out @RUN@/rep.json"
)
ARCHIVE_SPEC = "archive sphinx3 @RUN@/arch.json"

#: The study the ``queue`` barrier submits to the service, as plain
#: spec flags shared verbatim between ``repro submit`` and the serial
#: ``repro study`` reference (that is what makes the byte-identity
#: comparison honest).
QUEUE_STUDY = "sphinx3 env --env-start 100 --env-stop 228 --env-step 32"

BARRIER_KINDS = ("journal", "warm-journal", "store-put", "archive", "queue")


def parse_barrier(text: str) -> Tuple[str, int]:
    """``journal:3`` -> ("journal", 3), with loud validation."""
    kind, _, count = text.partition(":")
    if kind not in BARRIER_KINDS or not count.isdigit() or int(count) < 1:
        raise SystemExit(
            f"crashsim: bad barrier {text!r} (want KIND:N with KIND in "
            f"{'/'.join(BARRIER_KINDS)} and N >= 1)"
        )
    return kind, int(count)


# -- child side: install the barrier, then be the real CLI ------------------


def _die() -> None:
    """SIGKILL ourselves: no atexit, no finally, no flushing — exactly
    what a power cut looks like to the files we leave behind."""
    os.kill(os.getpid(), signal.SIGKILL)


def _torn_tmp(directory: str, prefix: str, content: str) -> None:
    """Persist a torn temp file the way a crash mid-write would: partial
    content, fsynced (it *will* survive), never renamed into place."""
    os.makedirs(directory or ".", exist_ok=True)
    fd, _ = tempfile.mkstemp(prefix=prefix, dir=directory or ".")
    with os.fdopen(fd, "w") as fh:
        fh.write(content)
        fh.flush()
        os.fsync(fh.fileno())


def install_barrier(kind: str, count: int) -> None:
    """Monkeypatch the product so the Nth event of ``kind`` is a crash."""
    calls = {"n": 0}
    if kind in ("journal", "warm-journal", "queue"):
        from repro.core import checklog

        orig_commit = checklog.commit

        def counted(text: str) -> bool:
            record = json.loads(text)
            if kind == "queue":
                return record.get("kind") == "lease"
            return "index" in record  # a measurement record

        def commit(fh, lines, path):
            # The one place a journal or WAL record becomes durable:
            # count what this sync made durable (a store probe's group
            # commit holds several records), then die.
            orig_commit(fh, lines, path)
            calls["n"] += sum(1 for line in lines if counted(line.text))
            if calls["n"] >= count:
                _die()

        checklog.commit = commit
    elif kind == "store-put":
        from repro.store import backend as backend_mod

        orig_put = backend_mod.DiskBackend.put

        def disk_put(self, key, payload):
            calls["n"] += 1
            if calls["n"] >= count:
                shard = os.path.dirname(self._path(key))
                _torn_tmp(shard, ".tmp-", '{"sha256": "dead", "payload_')
                _die()
            return orig_put(self, key, payload)

        backend_mod.DiskBackend.put = disk_put
    else:  # archive
        from repro import storageio

        orig_write = storageio.atomic_write_text

        def atomic_write_text(path, text, key=""):
            calls["n"] += 1
            if calls["n"] >= count:
                _torn_tmp(
                    os.path.dirname(path),
                    f".tmp-{os.path.basename(path)}-",
                    text[: max(1, len(text) // 2)],
                )
                _die()
            return orig_write(path, text, key)

        storageio.atomic_write_text = atomic_write_text


def cmd_child(args: argparse.Namespace) -> int:
    """Internal subprocess entry: barrier in, then the real CLI."""
    install_barrier(*parse_barrier(args.barrier))
    from repro import cli

    return cli.main(args.repro_args)


# -- parent side: run, kill, resume, compare --------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_STORE", None)  # never leak the operator's store in
    return env


def _run(
    argv: List[str], check: Optional[int] = 0, **popen_kw
) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        argv, env=_env(), capture_output=True, text=True, **popen_kw
    )
    if check is not None and proc.returncode != check:
        raise AssertionError(
            f"command {' '.join(argv)} exited {proc.returncode}, "
            f"expected {check}\nstderr:\n{proc.stderr[-2000:]}"
        )
    return proc


def _repro(spec: str, run_dir: str, extra: str = "") -> List[str]:
    os.makedirs(run_dir, exist_ok=True)
    words = (spec + (" " + extra if extra else "")).split()
    return [sys.executable, "-m", "repro.cli"] + [
        w.replace("@RUN@", run_dir) for w in words
    ]


def _crashing(barrier: str, spec: str, run_dir: str) -> List[str]:
    os.makedirs(run_dir, exist_ok=True)
    return [
        sys.executable,
        os.path.abspath(__file__),
        "child",
        "--barrier",
        barrier,
        "--",
    ] + [w.replace("@RUN@", run_dir) for w in spec.split()]


def _tables(stdout: str) -> str:
    """The published stdout minus the ``sweep:`` accounting block —
    resumed-vs-measured counts legitimately differ across a crash
    cycle; the science tables must not."""
    lines = stdout.splitlines()
    out: List[str] = []
    skipping = False
    for line in lines:
        if line.startswith("sweep:"):
            skipping = True  # the summary block (and any degraded
            continue  # sub-lines) ends at the first unindented line
        if skipping and line.startswith("    "):
            continue
        skipping = False
        out.append(line)
    return "\n".join(out)


def _assert(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _fsck(paths: List[str]) -> None:
    proc = _run(
        [sys.executable, "-m", "repro.cli", "fsck"] + paths, check=None
    )
    _assert(
        proc.returncode == 0,
        f"repro fsck found unrepaired damage after recovery:\n{proc.stdout}",
    )


def run_cycle(barrier: str, workdir: str, spec: str) -> None:
    """One kill/resume cycle at ``barrier``; raises AssertionError on
    any divergence from the uninterrupted reference."""
    kind, _ = parse_barrier(barrier)
    if kind == "archive":
        _archive_cycle(barrier, workdir)
        return
    if kind == "queue":
        _queue_cycle(barrier, workdir)
        return
    tag = barrier.replace(":", "-")
    ref_dir = os.path.join(workdir, f"{tag}-ref")
    crash_dir = os.path.join(workdir, f"{tag}-crash")
    if kind == "warm-journal":
        fill_dir = os.path.join(workdir, f"{tag}-fill")
        _run(_repro(spec, fill_dir))
        for run_dir in (ref_dir, crash_dir):
            shutil.copytree(
                os.path.join(fill_dir, "st"), os.path.join(run_dir, "st")
            )

    ref = _run(_repro(spec, ref_dir))
    if kind == "warm-journal":
        _assert(
            _read(os.path.join(ref_dir, "j.jsonl"))
            == _read(os.path.join(fill_dir, "j.jsonl")),
            "a warm sweep's journal differs from the cold one that "
            "filled its store",
        )
    crash = _run(_crashing(barrier, spec, crash_dir), check=None)
    _assert(
        crash.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL),
        f"barrier {barrier} did not SIGKILL the sweep "
        f"(exit {crash.returncode}); is the spec long enough?",
    )
    resumed = _run(_repro(spec, crash_dir))
    _assert(
        _tables(resumed.stdout) == _tables(ref.stdout),
        f"published tables diverged after {barrier} crash/resume",
    )
    report = json.loads(_read(os.path.join(crash_dir, "rep.json")))
    _assert(
        report["resumed"] > 0,
        f"resume after {barrier} re-measured everything (journal lost?)",
    )
    _assert(not report["degraded"], f"resume after {barrier} degraded")
    if kind == "warm-journal":
        # The barrier fired after the store hits' one sync: every hit
        # was durable, so the resume measures nothing.
        _assert(
            report["resumed"] == report["requested"],
            f"resume after {barrier} lost part of the store-hit batch",
        )

    # Verification re-run: both journals now hold the complete sweep, so
    # re-running each resumes 100% — those reports must match to the byte.
    again_ref = _run(_repro(spec, ref_dir))
    again_crash = _run(_repro(spec, crash_dir))
    rep_a = _read(os.path.join(ref_dir, "rep.json"))
    rep_b = _read(os.path.join(crash_dir, "rep.json"))
    _assert(
        rep_a == rep_b,
        f"verification re-run reports differ after {barrier} cycle",
    )
    _assert(
        _tables(again_ref.stdout) == _tables(again_crash.stdout),
        f"verification re-run tables differ after {barrier} cycle",
    )
    _fsck(
        [
            os.path.join(crash_dir, "j.jsonl"),
            os.path.join(crash_dir, "st"),
        ]
    )


def _archive_cycle(barrier: str, workdir: str) -> None:
    """Archive barrier: the crash must leave only torn temp debris (the
    target archive never appears half-written), and a re-run must
    produce records byte-identical to the uninterrupted reference."""
    tag = barrier.replace(":", "-")
    ref_dir = os.path.join(workdir, f"{tag}-ref")
    crash_dir = os.path.join(workdir, f"{tag}-crash")
    _run(_repro(ARCHIVE_SPEC, ref_dir))
    crash = _run(_crashing(barrier, ARCHIVE_SPEC, crash_dir), check=None)
    _assert(
        crash.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL),
        f"barrier {barrier} did not SIGKILL the archive write",
    )
    target = os.path.join(crash_dir, "arch.json")
    _assert(
        not os.path.exists(target),
        "a torn archive was published despite the crash mid-write",
    )
    _assert(
        glob.glob(os.path.join(crash_dir, ".tmp-*")),
        "expected torn .tmp- debris from the crashed atomic write",
    )
    _run(_repro(ARCHIVE_SPEC, crash_dir))
    # Records are deterministic; the embedded manifests carry wall-clock
    # timestamps, so compare the measurement sections canonically.
    ref_records = json.loads(_read(os.path.join(ref_dir, "arch.json")))
    new_records = json.loads(_read(target))
    _assert(
        json.dumps(ref_records["measurements"], sort_keys=True)
        == json.dumps(new_records["measurements"], sort_keys=True),
        "re-written archive records differ from the reference",
    )
    _fsck([target])


def _free_port() -> int:
    """A currently-free loopback port (bind 0, read, close)."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_port_file(path: str, proc: subprocess.Popen) -> dict:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh)
        _assert(
            proc.poll() is None,
            f"serve exited before binding its ports (exit {proc.poll()})",
        )
        time.sleep(0.05)
    raise AssertionError("serve never wrote its port file")


def _queue_cycle(barrier: str, workdir: str) -> None:
    """Kill ``repro serve`` after lease N, restart it on the same
    workdir, and prove the finished study byte-identical to a serial
    ``repro study`` — with exactly one WAL ``complete`` per setup."""
    tag = barrier.replace(":", "-")
    ref_dir = os.path.join(workdir, f"{tag}-ref")
    crash_dir = os.path.join(workdir, f"{tag}-crash")
    os.makedirs(ref_dir, exist_ok=True)
    os.makedirs(crash_dir, exist_ok=True)
    state_dir = os.path.join(crash_dir, "svc")
    http_port, agent_port = _free_port(), _free_port()
    serve_args = [
        "serve", "--workdir", state_dir,
        "--http", f"127.0.0.1:{http_port}",
        "--listen", f"127.0.0.1:{agent_port}",
        "--agentless-grace", "60",
        "--port-file", os.path.join(crash_dir, "ports.json"),
    ]
    submit_args = (
        ["submit"] + QUEUE_STUDY.split()
        + ["--http", f"127.0.0.1:{http_port}"]
    )
    procs: List[subprocess.Popen] = []

    def _spawn(argv: List[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        procs.append(proc)
        return proc

    try:
        serve = _spawn(
            [sys.executable, os.path.abspath(__file__), "child",
             "--barrier", barrier, "--"] + serve_args
        )
        _wait_port_file(os.path.join(crash_dir, "ports.json"), serve)
        for seed in (1, 2):
            _spawn(
                [sys.executable, "-m", "repro.cli", "agent",
                 "--connect", f"127.0.0.1:{agent_port}", "--jobs", "2",
                 "--backoff-seed", str(seed), "--quiet"]
            )
        _run(
            [sys.executable, "-m", "repro.cli"] + submit_args + ["--no-wait"]
        )
        serve.wait(timeout=180)
        _assert(
            serve.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL),
            f"barrier {barrier} did not SIGKILL the coordinator "
            f"(exit {serve.returncode}); too few leases before the study "
            f"finished?\nstderr:\n{serve.stderr.read()[-2000:]}",
        )
        # Same workdir, same ports: the durable queue resumes the study
        # and the dial-in agents re-register on their seeded backoff.
        serve2 = _spawn(
            [sys.executable, "-m", "repro.cli"] + serve_args
        )
        resubmit = _run(
            [sys.executable, "-m", "repro.cli"] + submit_args
            + ["--report-out", os.path.join(crash_dir, "rep.json")]
        )
        serve2.send_signal(signal.SIGTERM)
        serve2.wait(timeout=60)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    ref = _run(
        [sys.executable, "-m", "repro.cli", "study"] + QUEUE_STUDY.split()
        + ["--quiet", "--report-out", os.path.join(ref_dir, "rep.json")]
    )
    _assert(
        _read(os.path.join(crash_dir, "rep.json"))
        == _read(os.path.join(ref_dir, "rep.json")),
        f"service report after {barrier} crash/restart differs from the "
        "serial reference",
    )
    _assert(
        _tables(resubmit.stdout) == _tables(ref.stdout),
        f"published tables diverged after {barrier} crash/restart",
    )

    # The WAL must account every setup exactly once, ever — across both
    # coordinator incarnations.
    sys.path.insert(0, REPO_SRC)
    from repro.core.servicewal import ServiceWAL

    wal_path = os.path.join(state_dir, "queue.wal")
    state = ServiceWAL(wal_path).load()
    requested = 8  # QUEUE_STUDY: 4 env points x (base, treatment)
    record = next(iter(state.studies.values()))
    _assert(
        state.counts["submit"] == 1,
        f"resubmission was not deduplicated ({state.counts['submit']} "
        "submit records)",
    )
    _assert(
        record.completed == set(range(requested)),
        f"WAL completions wrong: {sorted(record.completed)}",
    )
    _assert(
        state.counts["complete"] == requested,
        f"setups double-counted: {state.counts['complete']} complete "
        f"records for {requested} setups",
    )
    _assert(
        state.counts["done"] == 1 and record.done,
        "study never reached its WAL done record",
    )
    _fsck([wal_path])


def run_sigstop(
    workdir: str, spec: str, stop_seconds: float, hang_timeout: float
) -> None:
    """SIGSTOP the whole sweep (coordinator + workers) mid-run for
    longer than the hang timeout, SIGCONT, and assert the report is
    clean and byte-identical to the serial reference.

    ``--max-respawns 0`` makes any heartbeat false-positive fatal to
    byte-identity: one spuriously "hung" worker would be killed, the
    pool would degrade to in-process execution, and the report would
    say so."""
    ref_dir = os.path.join(workdir, "sigstop-ref")
    stop_dir = os.path.join(workdir, "sigstop-run")
    ref = _run(_repro(spec, ref_dir))
    os.makedirs(stop_dir, exist_ok=True)
    argv = _repro(
        spec,
        stop_dir,
        extra=f"--jobs 2 --hang-timeout {hang_timeout} --max-respawns 0",
    )
    child = subprocess.Popen(
        argv,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    journal = os.path.join(stop_dir, "j.jsonl")
    deadline = time.monotonic() + 120
    try:
        # Wait until the sweep is demonstrably mid-flight (header plus
        # at least one measurement record in the journal).
        while time.monotonic() < deadline:
            if child.poll() is not None:
                raise AssertionError(
                    "sweep exited before the stop could be injected:\n"
                    + child.stderr.read()[-2000:]
                )
            try:
                with open(journal) as fh:
                    if sum(1 for line in fh if line.strip()) >= 2:
                        break
            except OSError:
                pass
            time.sleep(0.05)
        else:
            raise AssertionError("journal never gained a record")
        pgid = os.getpgid(child.pid)
        os.killpg(pgid, signal.SIGSTOP)
        time.sleep(stop_seconds)
        os.killpg(pgid, signal.SIGCONT)
        out, err = child.communicate(timeout=300)
    finally:
        if child.poll() is None:
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
    _assert(
        child.returncode == 0,
        f"stopped sweep exited {child.returncode}:\n{err[-2000:]}",
    )
    report = json.loads(_read(os.path.join(stop_dir, "rep.json")))
    _assert(
        not report["degraded"],
        "parent SIGSTOP degraded the sweep — heartbeat false-positive "
        f"(report: {report['degraded_setups']})",
    )
    rep_a = _read(os.path.join(ref_dir, "rep.json"))
    rep_b = _read(os.path.join(stop_dir, "rep.json"))
    _assert(rep_a == rep_b, "report after SIGSTOP/SIGCONT diverged")
    _assert(
        _tables(out) == _tables(ref.stdout),
        "published tables diverged after SIGSTOP/SIGCONT",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="crashsim", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    child = sub.add_parser("child", help="internal: crashing subprocess")
    child.add_argument("--barrier", required=True)
    child.add_argument("repro_args", nargs=argparse.REMAINDER)
    child.set_defaults(func=cmd_child)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workdir",
            default=None,
            help="scratch directory (default: a fresh temp dir)",
        )
        p.add_argument(
            "--spec",
            default=DEFAULT_SPEC,
            help="repro argv template; @RUN@ becomes the run directory",
        )

    cycle = sub.add_parser("cycle", help="one kill/resume cycle")
    cycle.add_argument("--barrier", required=True, help="KIND:N")
    _common(cycle)

    sig = sub.add_parser("sigstop", help="coordinator SIGSTOP/SIGCONT run")
    _common(sig)
    sig.add_argument("--stop-seconds", type=float, default=3.0)
    sig.add_argument("--hang-timeout", type=float, default=1.0)

    everything = sub.add_parser("all", help="every barrier plus sigstop")
    _common(everything)
    everything.add_argument("--stop-seconds", type=float, default=3.0)
    everything.add_argument("--hang-timeout", type=float, default=1.0)

    args = parser.parse_args(argv)
    if args.command == "child":
        # argparse.REMAINDER keeps a leading "--"; drop it.
        if args.repro_args and args.repro_args[0] == "--":
            args.repro_args = args.repro_args[1:]
        return args.func(args)

    workdir = args.workdir or tempfile.mkdtemp(prefix="crashsim-")
    os.makedirs(workdir, exist_ok=True)
    if args.command == "cycle":
        checks = [(args.barrier, lambda: run_cycle(args.barrier, workdir, args.spec))]
    elif args.command == "sigstop":
        checks = [
            (
                "sigstop",
                lambda: run_sigstop(
                    workdir, args.spec, args.stop_seconds, args.hang_timeout
                ),
            )
        ]
    else:
        barriers = [
            "journal:3", "warm-journal:3", "store-put:2", "archive:1",
            "queue:3",
        ]
        checks = [
            (b, lambda b=b: run_cycle(b, workdir, args.spec))
            for b in barriers
        ]
        checks.append(
            (
                "sigstop",
                lambda: run_sigstop(
                    workdir, args.spec, args.stop_seconds, args.hang_timeout
                ),
            )
        )
    failures = 0
    for name, check in checks:
        started = time.monotonic()
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            continue
        print(f"PASS {name} ({time.monotonic() - started:.1f}s)")
    if failures:
        print(f"crashsim: {failures} check(s) failed", file=sys.stderr)
        return 1
    print("crashsim: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
