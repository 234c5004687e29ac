"""Crash-recovery scenarios driven by the fault-injection hooks.

The daemon's durability story (journal + checkpoint, PR 2) was verified by
*incidental* failure tests — a SIGKILL landed wherever the test happened to
be.  This module makes failure *systematic*: named hook sites in the
production code consult a seeded fault plan (:mod:`repro.runtime.faults`,
which documents the sites and their actions), and a scheduled fault fires
at an exact, reproducible point in the event stream (the 41st journal
append, the 2nd worker task, the 1st checkpoint rename).

Each scenario runs a full workload against an injected fault and asserts
the recovery invariants: bit-identical bounds after a crash-restart,
at-least-once client semantics, graceful engine degradation,
corrupt-cache recompute.  A driver returns a details dict and raises
AssertionError on a violated invariant; ``bmbp verify`` runs them.  Injected crashes
exit with :data:`CRASH_EXIT_CODE`, so a scenario can prove the fault
actually fired (and distinguish it from an accidental death).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.faults import CRASH_EXIT_CODE, ENV_VAR, install, reset

__all__ = ["SCENARIOS", "run_fault_scenarios"]


#: Daemon flags for deterministic, fast-training scenario runs: epoch 0
#: refits on every submission (quotes become a pure function of history).
_DAEMON_ARGS = ["--training-jobs", "5", "--epoch", "0"]

#: Length of the scenario event stream (jobs; 2 mutation events each).
_STREAM_JOBS = 60


def _daemon_env(faults_spec: Optional[str]) -> Dict[str, str]:
    """Environment overrides for a scenario daemon.

    Ensures the subprocess can import ``repro`` however this process found
    it, and *always* sets ``BMBP_FAULTS`` explicitly — to the schedule, or
    to empty — so a plan leaked into the parent environment can never
    infect a spawn that asked for a clean daemon.
    """
    import repro

    env: Dict[str, str] = {ENV_VAR: faults_spec or ""}
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _spawn(state_dir: Path, faults_spec: Optional[str] = None) -> subprocess.Popen:
    """Start a scenario daemon (optionally faulty) on an ephemeral port."""
    from repro.server.client import spawn_daemon

    return spawn_daemon(
        state_dir,
        extra_args=_DAEMON_ARGS,
        checkpoint_interval=3600.0,  # only explicit/shutdown checkpoints
        env=_daemon_env(faults_spec),
    )


def _connect(state_dir: Path):
    from repro.server.client import ForecastClient, read_port_file

    client = ForecastClient("127.0.0.1", read_port_file(state_dir), retries=1, backoff=0.05)
    client.wait_until_up()
    return client


def _event(i: int) -> Tuple[str, float, float]:
    """Deterministic (job, submit_time, start_time) for stream position i."""
    submit_at = i * 400.0
    return f"j{i}", submit_at, submit_at + 100.0 + (i % 7) * 37.0


def _snapshot(client) -> Dict[str, Any]:
    """The externally visible prediction state (metrics excluded)."""
    return {
        "forecast": client.forecast("normal", procs=4),
        "outlook": client.outlook("normal"),
        "describe": client.describe(),
    }


def _terminate(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def _reference_snapshot(tmp: Path) -> Dict[str, Any]:
    """One uninterrupted run of the scenario stream: the ground truth."""
    state_dir = tmp / "reference"
    state_dir.mkdir()
    process = _spawn(state_dir)
    try:
        client = _connect(state_dir)
        for i in range(_STREAM_JOBS):
            job, submit_at, start_at = _event(i)
            client.submit(job, "normal", 4, now=submit_at)
            client.start(job, now=start_at)
        snapshot = _snapshot(client)
        client.close()
    finally:
        _terminate(process)
    return snapshot


def _drive_with_crash_recovery(
    state_dir: Path, faults_spec: str
) -> Dict[str, Any]:
    """Feed the scenario stream, surviving exactly one injected daemon crash.

    Every mutation is retried after a restart until the daemon confirms it
    was applied — ``conflict`` on a retried submit and ``unknown-job`` on a
    retried start mean the pre-crash attempt actually landed (the journal
    got it before the ack was lost), which is precisely the documented
    at-least-once contract.
    """
    from repro.server.client import ServerError, TransportError

    state_dir.mkdir()
    process = _spawn(state_dir, faults_spec=faults_spec)
    client = _connect(state_dir)
    crash_exit: Optional[int] = None
    restarts = 0

    def recover():
        nonlocal process, client, crash_exit, restarts
        client.close()
        exit_code = process.wait(timeout=15.0)
        if crash_exit is None:
            crash_exit = exit_code
        restarts += 1
        process = _spawn(state_dir)  # clean restart: no faults
        client = _connect(state_dir)

    def apply(op: str, *args, **kwargs) -> None:
        for attempt in range(4):
            try:
                getattr(client, op)(*args, **kwargs)
                return
            except TransportError:
                recover()  # daemon died mid-request; retry after restart
            except ServerError as exc:
                if attempt > 0 and op == "submit" and exc.code == "conflict":
                    return  # pre-crash attempt was durable: at-least-once
                if attempt > 0 and op == "start" and exc.code in (
                    "unknown-job", "bad-event"
                ):
                    return
                raise
        raise AssertionError(f"could not apply {op} after repeated recovery")

    try:
        for i in range(_STREAM_JOBS):
            job, submit_at, start_at = _event(i)
            apply("submit", job, "normal", 4, now=submit_at)
            apply("start", job, now=start_at)
        snapshot = _snapshot(client)
        client.close()
    finally:
        _terminate(process)
    assert restarts >= 1, "the scheduled fault never fired"
    assert crash_exit == CRASH_EXIT_CODE, (
        f"daemon died with exit code {crash_exit}, not the injected "
        f"crash code {CRASH_EXIT_CODE}"
    )
    return {"snapshot": snapshot, "restarts": restarts, "crash_exit": crash_exit}


def _assert_matches_reference(
    outcome: Dict[str, Any], reference: Dict[str, Any], scenario: str
) -> None:
    for field_name in ("forecast", "outlook", "describe"):
        got = outcome["snapshot"][field_name]
        want = reference[field_name]
        assert got == want, (
            f"{scenario}: recovered {field_name} diverged from the "
            f"uninterrupted reference:\n  got:  {got!r}\n  want: {want!r}"
        )


# Jobs alternate submit (odd journal hit) / start (even); event 41 is the
# submit of j20 — comfortably mid-stream, past training, between checkpoints.
_MID_STREAM_HIT = 41


def scenario_torn_journal(tmp: Path, reference: Dict[str, Any]) -> Dict[str, Any]:
    """Crash mid-journal-append: the torn tail is dropped, nothing acked is
    lost, and recovery quotes bit-identical bounds."""
    outcome = _drive_with_crash_recovery(
        tmp / "torn-journal", f"journal.write:torn@{_MID_STREAM_HIT}"
    )
    _assert_matches_reference(outcome, reference, "torn-journal")
    return outcome


def scenario_durable_unacked(tmp: Path, reference: Dict[str, Any]) -> Dict[str, Any]:
    """Crash after the journal flush but before the ack: the event IS
    durable, the client never heard — the retry's ``conflict`` must read as
    success (at-least-once), and bounds stay bit-identical."""
    outcome = _drive_with_crash_recovery(
        tmp / "durable-unacked", f"journal.write:crash@{_MID_STREAM_HIT}"
    )
    _assert_matches_reference(outcome, reference, "durable-unacked")
    return outcome


def _drive_checkpoint_crash(tmp: Path, name: str, action: str) -> Dict[str, Any]:
    """Feed half the stream, crash inside checkpoint(), restart, finish."""
    from repro.server.client import TransportError

    state_dir = tmp / name
    state_dir.mkdir()
    half = _STREAM_JOBS // 2
    process = _spawn(state_dir, faults_spec=f"checkpoint.replace:{action}@1")
    client = _connect(state_dir)
    try:
        for i in range(half):
            job, submit_at, start_at = _event(i)
            client.submit(job, "normal", 4, now=submit_at)
            client.start(job, now=start_at)
        try:
            client.checkpoint()
            raise AssertionError(f"{name}: checkpoint survived the scheduled crash")
        except TransportError:
            pass
        crash_exit = process.wait(timeout=15.0)
        client.close()
        assert crash_exit == CRASH_EXIT_CODE, (
            f"{name}: daemon exited {crash_exit}, expected {CRASH_EXIT_CODE}"
        )
        process = _spawn(state_dir)  # clean restart
        client = _connect(state_dir)
        replayed = client.metrics()["durability"]["replayed_on_boot"]
        for i in range(half, _STREAM_JOBS):
            job, submit_at, start_at = _event(i)
            client.submit(job, "normal", 4, now=submit_at)
            client.start(job, now=start_at)
        snapshot = _snapshot(client)
        client.close()
    finally:
        _terminate(process)
    return {"snapshot": snapshot, "crash_exit": crash_exit, "replayed_on_boot": replayed}


def scenario_checkpoint_crash_before_replace(
    tmp: Path, reference: Dict[str, Any]
) -> Dict[str, Any]:
    """Crash after the checkpoint temp file is written but before the atomic
    rename: the old checkpoint + full journal must still recover everything."""
    outcome = _drive_checkpoint_crash(
        tmp, "checkpoint-before", "crash-before"
    )
    # No durable checkpoint existed, so boot replays the entire journal.
    assert outcome["replayed_on_boot"] == _STREAM_JOBS, (
        f"expected full-journal replay of {_STREAM_JOBS} events, got "
        f"{outcome['replayed_on_boot']}"
    )
    _assert_matches_reference(outcome, reference, "checkpoint-crash-before-replace")
    return outcome


def scenario_checkpoint_crash_after_replace(
    tmp: Path, reference: Dict[str, Any]
) -> Dict[str, Any]:
    """Crash after the rename but before the journal truncation: replay must
    skip the pre-checkpoint journal entries instead of double-applying them."""
    outcome = _drive_checkpoint_crash(tmp, "checkpoint-after", "crash-after")
    # The checkpoint is durable; the untruncated journal is redundant.
    assert outcome["replayed_on_boot"] == 0, (
        f"expected 0 replayed events on top of the durable checkpoint, got "
        f"{outcome['replayed_on_boot']} (pre-checkpoint entries re-applied?)"
    )
    _assert_matches_reference(outcome, reference, "checkpoint-crash-after-replace")
    return outcome


def scenario_dropped_connection(tmp: Path, reference: Dict[str, Any]) -> Dict[str, Any]:
    """The daemon applies + journals a mutation, then resets the connection
    instead of acknowledging.  The client's reconnect/retry layer must
    deliver at-least-once semantics transparently (submit's retried
    ``conflict`` reads as success) and the daemon must stay up."""
    state_dir = tmp / "dropped-connection"
    state_dir.mkdir()
    # Mutation hit 45 is the submit of j22 (odd hits are submits), so the
    # withheld ack lands on an op whose retry path is fully client-internal.
    process = _spawn(state_dir, faults_spec="daemon.mutation:drop@45")
    try:
        client = _connect(state_dir)
        for i in range(_STREAM_JOBS):
            job, submit_at, start_at = _event(i)
            client.submit(job, "normal", 4, now=submit_at)
            client.start(job, now=start_at)
        snapshot = _snapshot(client)
        pending = client.queues()["pending"]
        client.close()
        assert process.poll() is None, "daemon died; the drop should be survivable"
    finally:
        _terminate(process)
    assert pending == 0, f"{pending} jobs stuck pending after the retry"
    outcome = {"snapshot": snapshot, "daemon_survived": True}
    _assert_matches_reference(outcome, reference, "dropped-connection")
    return outcome


def _work_item(x: int) -> int:
    """Module-level (picklable) task for the engine scenarios."""
    return x * x + 1


def scenario_worker_death(tmp: Path) -> Dict[str, Any]:
    """A pool worker dies mid-fan-out: the engine must fall back to serial
    execution and still return results identical to a clean run."""
    from repro import runtime
    from repro.runtime.engine import Task

    tasks = [Task(func=_work_item, args=(i,), label=f"w{i}") for i in range(8)]
    expected = [_work_item(i) for i in range(8)]
    clean = runtime.run_tasks(tasks, jobs=1, cache=False)
    assert clean == expected
    install("engine.worker:die@2")
    try:
        faulted = runtime.run_tasks(tasks, jobs=2, cache=False)
    finally:
        reset()
    assert faulted == expected, (
        f"results diverged after worker death: {faulted!r} != {expected!r}"
    )
    return {"tasks": len(tasks), "results_identical": True}


def scenario_cache_corruption(tmp: Path) -> Dict[str, Any]:
    """A cache entry corrupted on disk must read as a miss and be
    recomputed — never an error, never a wrong value."""
    from repro import runtime
    from repro.runtime.engine import Task

    cache_dir = tmp / "fault-cache"
    runtime.configure(cache=True, cache_dir=str(cache_dir))
    task = [Task(func=_work_item, args=(7,), label="c7")]
    expected = [_work_item(7)]
    try:
        install("cache.put:corrupt@1")
        try:
            first = runtime.run_tasks(task, jobs=1)  # computed; entry corrupted
        finally:
            reset()
        before = runtime.stats()
        second = runtime.run_tasks(task, jobs=1)  # corrupt entry -> recompute
        recomputed = runtime.stats().since(before)
        third = runtime.run_tasks(task, jobs=1)  # clean entry -> hit
        hit = runtime.stats().since(before)
    finally:
        runtime.reset_configuration()
    assert first == second == third == expected
    assert recomputed.cache_misses == 1 and recomputed.cache_hits == 0, (
        "corrupt cache entry was served instead of recomputed"
    )
    assert hit.cache_hits == 1, "recomputed entry was not re-persisted"
    return {"recomputed_after_corruption": True, "rehit_after_recompute": True}


def scenario_broker_backend_crash(tmp: Path) -> Dict[str, Any]:
    """One backend's connection is aborted mid-fan-out (``broker.request:
    drop``): the route must still return a well-formed ranked response with
    every healthy site live, the dropped site degraded (not missing, not
    corrupt), no connection slot leaked, and the next clean route must go
    back to all-live."""
    import asyncio
    import json as json_module

    from repro.broker import RoutingBroker, SiteSpec

    bounds = {"alpha": 500.0, "beta": 1500.0, "gamma": 2500.0}

    def make_handler(bound: float):
        async def handler(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = json_module.loads(line)
                writer.write(json_module.dumps({
                    "id": request.get("id"), "ok": True,
                    "result": {"bound": bound},
                }).encode() + b"\n")
                await writer.drain()
            writer.close()
        return handler

    async def drive() -> Dict[str, Any]:
        servers = []
        specs = []
        try:
            for name, bound in bounds.items():
                server = await asyncio.start_server(
                    make_handler(bound), "127.0.0.1", 0
                )
                servers.append(server)
                specs.append(SiteSpec(
                    name=name, host="127.0.0.1",
                    port=server.sockets[0].getsockname()[1],
                ))
            # cache_ttl=0 forces every route onto the network, so the
            # scheduled drop is guaranteed to hit a live request; retries=0
            # makes exactly one quote degrade.
            broker = RoutingBroker(
                specs, request_timeout=0.5, retries=0, cache_ttl=0.0
            )
            clean = await broker.route(procs=2)
            assert [q.source for q in clean.ranked] == ["live"] * 3
            # Hit counters start at install, so the faulted fan-out's three
            # requests are hits 1-3; @2 drops the middle one.
            install("broker.request:drop@2")
            try:
                faulted = await broker.route(procs=2)
            finally:
                reset()
            after = await broker.route(procs=2)
            in_use = {
                name: backend.pool.in_use
                for name, backend in broker.backends.items()
            }
            await broker.close()
            return {
                "faulted": faulted.to_dict(),
                "after": after.to_dict(),
                "in_use": in_use,
            }
        finally:
            for server in servers:
                server.close()
                await server.wait_closed()

    outcome = asyncio.run(drive())
    faulted = outcome["faulted"]
    sources = [quote["source"] for quote in faulted["ranked"]]
    assert len(faulted["ranked"]) == len(bounds), (
        f"dropped site missing from the ranked response: {sources}"
    )
    assert sources.count("live") == len(bounds) - 1, (
        f"expected exactly one degraded quote, got sources {sources}"
    )
    degraded = [q for q in faulted["ranked"] if q["source"] != "live"]
    assert degraded[0]["source"] in ("stale", "none") and degraded[0]["error"], (
        f"dropped site not marked degraded: {degraded[0]}"
    )
    live_bounds = sorted(
        q["bound"] for q in faulted["ranked"] if q["source"] == "live"
    )
    assert all(bound in bounds.values() for bound in live_bounds), (
        f"live quotes corrupted by the aborted connection: {live_bounds}"
    )
    assert faulted["best"] is not None, "fault turned into a failed route"
    leaked = {site: n for site, n in outcome["in_use"].items() if n != 0}
    assert not leaked, f"connection slots leaked after the drop: {leaked}"
    after_sources = [quote["source"] for quote in outcome["after"]["ranked"]]
    assert after_sources == ["live"] * len(bounds), (
        f"broker did not recover to all-live after the fault: {after_sources}"
    )
    return {
        "ranked_intact": True,
        "degraded_site": degraded[0]["site"],
        "slots_leaked": 0,
        "recovered_all_live": True,
    }


def _fleet_for_scenario(
    tmp: Path, name: str, follower_env: Optional[Dict[str, str]] = None
):
    """A 1-shard replicated fleet running the deterministic scenario config."""
    from repro.fleet.manager import FleetManager

    return FleetManager(
        tmp / name,
        shard_count=1,
        replicate=True,
        extra_args=_DAEMON_ARGS,
        checkpoint_interval=3600.0,
        env=_daemon_env(None),
        follower_env=follower_env,
    )


def _fleet_client(manager, shard_id: int = 0, role: str = "primary"):
    """Client for a live fleet member (post-promotion aware: uses the
    manager's member table, not the on-disk port files, which still name
    the dead primary after a failover)."""
    from repro.server.client import ForecastClient

    members = manager.primaries if role == "primary" else manager.followers
    client = ForecastClient(
        manager.topology.host, members[shard_id].port, retries=3, backoff=0.05
    )
    client.wait_until_up()
    return client


def scenario_shard_crash_promote(
    tmp: Path, reference: Dict[str, Any]
) -> Dict[str, Any]:
    """SIGKILL a shard primary mid-stream, promote its warm follower, finish
    the stream on the promoted replica: the final bounds must be
    bit-identical to the uninterrupted single-daemon reference (no acked
    event lost anywhere in the failover), and the promoted primary must
    accept writes."""
    from repro.server.client import ServerError

    manager = _fleet_for_scenario(tmp, "shard-crash-promote")
    half = _STREAM_JOBS // 2
    try:
        manager.start()
        client = _fleet_client(manager, role="primary")
        for i in range(half):
            job, submit_at, start_at = _event(i)
            client.submit(job, "normal", 4, now=submit_at)
            client.start(job, now=start_at)
        client.close()
        kill_exit = manager.kill(0, "primary")  # SIGKILL: no drain, no checkpoint
        promoted = manager.promote(0)
        assert promoted["promoted"], f"promotion refused: {promoted}"
        assert promoted["seq"] == half * 2, (
            f"promoted replica at seq {promoted['seq']}, primary acked "
            f"{half * 2} events — an acknowledged event was lost"
        )
        client = _fleet_client(manager, role="primary")
        assert client.healthz()["role"] == "primary"
        for i in range(half, _STREAM_JOBS):
            job, submit_at, start_at = _event(i)
            try:
                client.submit(job, "normal", 4, now=submit_at)
            except ServerError as exc:
                if exc.code != "conflict":
                    raise
            client.start(job, now=start_at)
        snapshot = _snapshot(client)
        client.close()
    finally:
        manager.stop()
    outcome = {
        "snapshot": snapshot,
        "kill_exit": kill_exit,
        "promoted_seq": promoted["seq"],
        "caught_up_from_journal": promoted["caught_up"],
    }
    assert kill_exit == -9, f"expected SIGKILL exit -9, got {kill_exit}"
    _assert_matches_reference(outcome, reference, "shard-crash-promote")
    return outcome


def scenario_follower_lag_promote(
    tmp: Path, reference: Dict[str, Any]
) -> Dict[str, Any]:
    """Halt a follower's replication stream mid-run so it lags far behind,
    then kill the primary and promote anyway: lag must be *observable*
    (healthz ``replication_lag_seconds`` grows), promotion must catch up
    the missing entries from the primary's on-disk journal (``caught_up``
    > 0), and the promoted bounds must still be bit-identical — a lagging
    follower loses nothing, because acked means journaled."""
    manager = _fleet_for_scenario(
        tmp, "follower-lag-promote",
        # The 5th replication message lands mid-training: everything after
        # it reaches the follower only via the promotion disk catch-up.
        follower_env=_daemon_env("replication.apply:halt@5"),
    )
    try:
        manager.start()
        client = _fleet_client(manager, role="primary")
        for i in range(_STREAM_JOBS):
            job, submit_at, start_at = _event(i)
            client.submit(job, "normal", 4, now=submit_at)
            client.start(job, now=start_at)
        primary_seq = client.healthz()["seq"]
        client.close()
        # A healthy follower's staleness never exceeds ~1.3s (heartbeat
        # interval + poll slack); past 2s only a stalled stream explains it.
        time.sleep(2.5)
        follower = _fleet_client(manager, role="follower")
        health = follower.healthz()
        follower.close()
        assert health["role"] == "follower"
        lag = health["replication_lag_seconds"]
        assert lag > 2.0, (
            f"halted follower reports lag {lag:.3f}s; expected it to grow"
        )
        assert health["seq"] < primary_seq, (
            "follower kept up despite the halt fault; the scenario tests nothing"
        )
        kill_exit = manager.kill(0, "primary")
        promoted = manager.promote(0)
        assert promoted["promoted"]
        assert promoted["caught_up"] > 0, (
            "promotion read nothing from the dead primary's journal, but the "
            "follower was behind — where did the entries come from?"
        )
        assert promoted["seq"] == primary_seq, (
            f"promoted seq {promoted['seq']} != primary's acked seq "
            f"{primary_seq}: an acknowledged event was lost"
        )
        client = _fleet_client(manager, role="primary")
        snapshot = _snapshot(client)
        client.close()
    finally:
        manager.stop()
    outcome = {
        "snapshot": snapshot,
        "kill_exit": kill_exit,
        "observed_lag_seconds": round(lag, 3),
        "caught_up_from_journal": promoted["caught_up"],
    }
    _assert_matches_reference(outcome, reference, "follower-lag-promote")
    return outcome


def scenario_corpus_ingest_crash(tmp: Path) -> Dict[str, Any]:
    """A killed ingest leaves either no store or a valid one — never torn.

    Three crash points bracket the corpus ETL's atomic-finalize contract:

    1. mid-stream (``corpus.ingest:crash@2``): chunks flushed to the temp
       directory, crash — the destination must not exist;
    2. before promotion (``corpus.finalize:crash-before@1``): every column
       and the manifest written, crash just before ``os.replace`` — the
       destination must still not exist;
    3. after promotion (``corpus.finalize.after:crash@1``): crash right
       after the rename — the destination must be a complete, checksum-
       valid store with every row.

    Recovery is a plain re-run of the ingest over the same source; the
    rebuilt store must match the fixture's expected kept-row count and
    drop ledger exactly.
    """
    from repro.corpus.fixtures import expected_drops, generate_corpus_fixture
    from repro.corpus.store import CorpusStore

    work = tmp / "corpus-ingest-crash"
    work.mkdir(parents=True, exist_ok=True)
    log_path = work / "fixture.swf.gz"
    # Small fixture: the contract under test is atomicity, not scale, and
    # the fast tier's 90 s budget pays for four subprocess interpreter
    # startups here already.  chunk_rows=1000 below still gives the
    # mid-stream arm multiple flushed chunks before the crash.
    summary = generate_corpus_fixture(log_path, jobs=2500, seed=4242)

    def _spawn(spec: Optional[str], dest: Path) -> subprocess.Popen:
        env = dict(os.environ)
        env.update(_daemon_env(spec))
        code = (
            "from repro.corpus.etl import ingest; "
            f"ingest({str(log_path)!r}, {str(dest)!r}, chunk_rows=1000, "
            "force=True)"
        )
        return subprocess.Popen(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    # Each arm gets its own destination, so all three crash variants run
    # concurrently — the wall-clock cost is one interpreter startup, not
    # three, which matters inside the fast tier's 90 s budget.
    arms = (
        ("mid_stream", "corpus.ingest:crash@2", False),
        ("before_replace", "corpus.finalize:crash-before@1", False),
        ("after_replace", "corpus.finalize.after:crash@1", True),
    )
    procs = {
        label: (_spawn(spec, work / label), work / label)
        for label, spec, _ in arms
    }
    details: Dict[str, Any] = {}
    for label, spec, store_expected in arms:
        proc, dest = procs[label]
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == CRASH_EXIT_CODE, (
            f"{label}: ingest exited {proc.returncode}, expected the "
            f"injected crash code {CRASH_EXIT_CODE}; stderr: "
            f"{stderr.decode(errors='replace')[-300:]}"
        )
        if store_expected:
            store = CorpusStore(dest)
            assert store.rows == summary.jobs, (
                f"{label}: store promoted before the crash holds "
                f"{store.rows} rows, expected {summary.jobs}"
            )
            assert store.verify()["ok"], (
                f"{label}: promoted store fails column checksums"
            )
        else:
            assert not dest.exists(), (
                f"{label}: a torn store directory exists at {dest} after a "
                "crash before promotion"
            )
        details[label] = {
            "exit": proc.returncode,
            "store_exists": dest.exists(),
        }

    # Recovery: a clean re-run over the crashed mid-stream destination
    # must build the full store.  In-process — recovery needs no fault
    # env, and it saves another interpreter startup.
    from repro.corpus.etl import ingest

    dest = procs["mid_stream"][1]
    ingest(log_path, dest, chunk_rows=1000, force=True)
    store = CorpusStore(dest)
    assert store.rows == summary.jobs, (
        f"recovered store holds {store.rows} rows, expected {summary.jobs}"
    )
    drops = store.manifest["etl"]["drops"]
    assert drops == expected_drops(summary), (
        f"recovered drop ledger {drops} != injected {expected_drops(summary)}"
    )
    assert store.verify()["ok"], "recovered store fails column checksums"
    details["recovered_rows"] = store.rows
    details["recovered_drops"] = drops
    return details


def scenario_corpus_replay_worker_crash(tmp: Path) -> Dict[str, Any]:
    """A replay worker dies mid-unit: the run fails loudly, caches nothing.

    Three invariants around the parallel corpus replay's failure contract:

    1. ``corpus.replay.unit:die`` kills the process handling the 2nd work
       unit.  The engine's serial fallback re-enters the same hook (the
       unit fault is deliberately *not* guarded by ``in_worker_process``),
       so the whole replay dies with :data:`CRASH_EXIT_CODE` — no report
       artifact, no partial rows, and *nothing written to the cache* (the
       engine persists results only after the full task set settles).
    2. ``corpus.replay.unit:raise`` fails a unit in-worker; the parent
       must surface a :class:`~repro.runtime.engine.WorkerError` carrying
       the remote traceback, again without an artifact.  Units that *did*
       complete are cached — they are valid content-addressed results —
       but the failed ones are not.
    3. A clean re-run against the same cache directory completes, covers
       every unit (hits + misses == units, with the faulted units always
       recomputed), matches an uninterrupted in-process reference
       bit-for-bit, and a second run is served entirely from cache.
    """
    import json as json_module

    from repro.corpus.etl import ingest as corpus_ingest
    from repro.corpus.fixtures import generate_corpus_fixture
    from repro.corpus.replay import _strip_volatile, replay_store
    from repro.corpus.store import CorpusStore

    work = tmp / "corpus-replay-worker-crash"
    work.mkdir(parents=True, exist_ok=True)
    log_path = work / "fixture.swf.gz"
    generate_corpus_fixture(log_path, jobs=2500, seed=8686)
    store_dir = work / "site"
    store, _ = corpus_ingest(log_path, store_dir, site="crash-site", force=True)
    cache_dir = work / "cache"

    reference = _strip_volatile(
        replay_store(store, min_queue_jobs=200, jobs=1, cache=False)
    )

    def _spawn(spec: Optional[str], out: Path) -> subprocess.Popen:
        env = dict(os.environ)
        env.update(_daemon_env(spec))
        env["BMBP_CACHE_DIR"] = str(cache_dir)
        code = (
            "import json\n"
            "from repro.corpus.store import CorpusStore\n"
            "from repro.corpus.replay import replay_store\n"
            f"report = replay_store(CorpusStore({str(store_dir)!r}), "
            "min_queue_jobs=200, jobs=2, cache=True)\n"
            f"json.dump(report, open({str(out)!r}, 'w'))\n"
        )
        return subprocess.Popen(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )

    details: Dict[str, Any] = {}

    # Arm 1: worker death.  The fallback re-crash makes failure loud even
    # though the engine degrades pool losses to serial execution.
    died_out = work / "died.json"
    proc = _spawn("corpus.replay.unit:die@2", died_out)
    _, stderr = proc.communicate(timeout=180)
    assert proc.returncode == CRASH_EXIT_CODE, (
        f"faulted replay exited {proc.returncode}, expected the injected "
        f"crash code {CRASH_EXIT_CODE}; stderr: "
        f"{stderr.decode(errors='replace')[-300:]}"
    )
    assert not died_out.exists(), (
        "crashed replay left a (necessarily partial) report artifact behind"
    )
    leftover = list(cache_dir.rglob("*.pkl")) if cache_dir.exists() else []
    assert not leftover, (
        f"a crashed replay persisted {len(leftover)} cache entries; results "
        "must only be written after the full task set settles"
    )
    details["die"] = {"exit": proc.returncode, "artifact": False,
                      "cache_entries": 0}

    # Arm 2: in-worker exception -> WorkerError with the remote traceback.
    raised_out = work / "raised.json"
    proc = _spawn("corpus.replay.unit:raise@1", raised_out)
    _, stderr = proc.communicate(timeout=180)
    stderr_text = stderr.decode(errors="replace")
    assert proc.returncode not in (0, CRASH_EXIT_CODE), (
        f"faulted replay exited {proc.returncode}; expected an ordinary "
        f"failure, not success or a crash"
    )
    assert "WorkerError" in stderr_text, (
        f"replay failure did not surface as WorkerError; stderr: "
        f"{stderr_text[-300:]}"
    )
    assert "injected corpus.replay.unit fault" in stderr_text, (
        "WorkerError does not carry the remote traceback"
    )
    assert not raised_out.exists()
    details["raise"] = {"exit": proc.returncode, "worker_error": True}

    # Recovery: a clean run over the same cache must complete, recompute
    # at least the faulted units (the raise arm failed >= 1 unit, so its
    # result cannot have been cached), and match the reference exactly —
    # including any units legitimately cached by the raise arm.
    clean_out = work / "clean.json"
    proc = _spawn(None, clean_out)
    _, stderr = proc.communicate(timeout=180)
    assert proc.returncode == 0, (
        f"clean re-run failed with exit {proc.returncode}: "
        f"{stderr.decode(errors='replace')[-300:]}"
    )
    with open(clean_out) as fh:
        clean_report = json_module.load(fh)
    cache_counts = clean_report["provenance"]["cache"]
    n_units = len(clean_report["provenance"]["units"])
    assert cache_counts["hits"] + cache_counts["misses"] == n_units
    assert cache_counts["misses"] >= 1, (
        f"a unit that raised in-worker was served from cache: {cache_counts}"
    )
    assert _strip_volatile(clean_report) == reference, (
        "post-crash replay diverged from the uninterrupted reference"
    )

    # And the cache the clean run populated serves a full re-run.
    proc = _spawn(None, clean_out)
    _, stderr = proc.communicate(timeout=180)
    assert proc.returncode == 0, stderr.decode(errors="replace")[-300:]
    with open(clean_out) as fh:
        cached_report = json_module.load(fh)
    cached_counts = cached_report["provenance"]["cache"]
    assert cached_counts["hits"] == n_units and cached_counts["misses"] == 0, (
        f"cached re-run recomputed units: {cached_counts}"
    )
    assert _strip_volatile(cached_report) == reference
    details["recovery"] = {
        "units": n_units,
        "recomputed": cache_counts["misses"],
        "cached_hits": cached_counts["hits"],
        "identical_to_reference": True,
    }
    return details


#: Scenario registry: name -> (driver, needs_reference).
SCENARIOS: Dict[str, Tuple[Callable, bool]] = {
    "torn-journal": (scenario_torn_journal, True),
    "durable-unacked-crash": (scenario_durable_unacked, True),
    "checkpoint-crash-before-replace": (scenario_checkpoint_crash_before_replace, True),
    "checkpoint-crash-after-replace": (scenario_checkpoint_crash_after_replace, True),
    "dropped-connection": (scenario_dropped_connection, True),
    "worker-death": (scenario_worker_death, False),
    "cache-corruption": (scenario_cache_corruption, False),
    "broker-backend-crash": (scenario_broker_backend_crash, False),
    "shard-crash-promote": (scenario_shard_crash_promote, True),
    "follower-lag-promote": (scenario_follower_lag_promote, True),
    "corpus-ingest-crash": (scenario_corpus_ingest_crash, False),
    "corpus-replay-worker-crash": (scenario_corpus_replay_worker_crash, False),
}


def run_fault_scenarios(names: Optional[List[str]] = None) -> List[Dict[str, Any]]:
    """Run recovery scenarios; returns one record per scenario.

    Records carry ``{"name", "passed", "seconds", "details"/"error"}``.
    Daemon-backed scenarios share a single uninterrupted reference run.
    """
    chosen = list(SCENARIOS) if names is None else list(names)
    records: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="bmbp-faults-") as tmp_name:
        tmp = Path(tmp_name)
        reference: Optional[Dict[str, Any]] = None
        if any(SCENARIOS[name][1] for name in chosen):
            reference = _reference_snapshot(tmp)
        for name in chosen:
            driver, needs_reference = SCENARIOS[name]
            started = time.perf_counter()
            record: Dict[str, Any] = {"name": name}
            try:
                details = (
                    driver(tmp, reference) if needs_reference else driver(tmp)
                )
                record["passed"] = True
                record["details"] = details
            except Exception as exc:  # noqa: BLE001 - report, don't abort the suite
                record["passed"] = False
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["seconds"] = round(time.perf_counter() - started, 3)
            records.append(record)
    return records
