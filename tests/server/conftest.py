"""Fixtures for the server test suite.

Integration tests spawn real ``python -m repro serve`` subprocesses; the
session fixture guarantees the child can import ``repro`` regardless of
how pytest itself was launched.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro


@pytest.fixture(scope="session", autouse=True)
def _subprocess_can_import_repro():
    """Prepend the repro source root to PYTHONPATH for spawned daemons."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            src + (os.pathsep + existing if existing else "")
        )


@pytest.fixture
def daemon(tmp_path):
    """A running durable daemon on an ephemeral port; yields (client, dir).

    Fast-training configuration so tests can reach quotable bounds with
    ~100 jobs; ``epoch=0`` refits on every submission, which makes quotes
    a pure function of history (and therefore deterministic for the
    recovery tests).
    """
    from repro.server import ForecastClient, read_port_file, spawn_daemon

    state_dir = tmp_path / "state"
    state_dir.mkdir()
    process = spawn_daemon(
        state_dir, extra_args=["--training-jobs", "5", "--epoch", "0"]
    )
    # A daemon that never comes up still gets stopped.
    try:
        client = ForecastClient("127.0.0.1", read_port_file(state_dir))
        try:
            client.wait_until_up()
            yield client, state_dir
        finally:
            client.close()
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10.0)
            except Exception:
                process.kill()
                process.wait()


def feed_jobs(client, lo, hi, queue="normal", procs=4, gap=400.0):
    """Drive a deterministic submit/start stream through a client."""
    for i in range(lo, hi):
        submit_at = i * gap
        client.submit(f"j{i}", queue, procs, now=submit_at)
        client.start(f"j{i}", now=submit_at + 100.0 + (i % 7) * 37.0)
