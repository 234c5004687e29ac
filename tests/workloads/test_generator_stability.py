"""Seed stability of the synthetic generator across processes and engines.

The replay cache, the golden fixtures, and every seeded experiment assume
``generate_queue_trace(spec, config)`` is a pure function of (spec, seed):
the same stream bit-for-bit in this process, in a fresh interpreter, and
whether the experiment engine runs serially or through the worker pool.
A platform- or process-dependent RNG path would silently invalidate all
cached results; this file is the tripwire.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro import runtime
from repro.runtime.engine import Task
from repro.workloads.generator import GeneratorConfig, generate_queue_trace
from repro.workloads.spec import spec_for

CONFIG = GeneratorConfig(scale=0.1, seed=11, min_jobs=400)
PAIRS = [("nersc", "interactive"), ("datastar", "normal")]


def trace_digest(machine: str, queue: str) -> str:
    """Canonical content hash of one generated trace (all job fields)."""
    trace = generate_queue_trace(spec_for(machine, queue), CONFIG)
    h = hashlib.sha256()
    h.update(np.asarray([j.submit_time for j in trace], dtype=np.float64).tobytes())
    h.update(np.asarray([j.wait for j in trace], dtype=np.float64).tobytes())
    h.update(np.asarray([j.procs for j in trace], dtype=np.int64).tobytes())
    h.update("|".join(j.queue for j in trace).encode("utf-8"))
    return h.hexdigest()


class TestSeedStability:
    def test_same_process_repeatability(self):
        for machine, queue in PAIRS:
            assert trace_digest(machine, queue) == trace_digest(machine, queue)

    def test_seed_actually_matters(self):
        spec = spec_for(*PAIRS[0])
        a = generate_queue_trace(spec, CONFIG)
        b = generate_queue_trace(
            spec, GeneratorConfig(scale=0.1, seed=12, min_jobs=400)
        )
        assert [j.wait for j in a] != [j.wait for j in b]

    def test_fresh_interpreter_reproduces_the_stream(self):
        """A restarted process (new hash seed, new imports) must agree."""
        machine, queue = PAIRS[0]
        code = (
            "import hashlib, numpy as np\n"
            "from repro.workloads.generator import GeneratorConfig, generate_queue_trace\n"
            "from repro.workloads.spec import spec_for\n"
            f"trace = generate_queue_trace(spec_for({machine!r}, {queue!r}), "
            "GeneratorConfig(scale=0.1, seed=11, min_jobs=400))\n"
            "h = hashlib.sha256()\n"
            "h.update(np.asarray([j.submit_time for j in trace], dtype=np.float64).tobytes())\n"
            "h.update(np.asarray([j.wait for j in trace], dtype=np.float64).tobytes())\n"
            "h.update(np.asarray([j.procs for j in trace], dtype=np.int64).tobytes())\n"
            "h.update('|'.join(j.queue for j in trace).encode('utf-8'))\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == trace_digest(machine, queue)

    def test_serial_and_parallel_engine_runs_agree(self):
        """--jobs must not change the streams (fresh RNG per trace, no
        shared-state bleed between pool workers)."""
        tasks = [
            Task(func=trace_digest, args=pair, label=f"gen-{pair[0]}-{pair[1]}")
            for pair in PAIRS
        ]
        serial = runtime.run_tasks(tasks, jobs=1, cache=False)
        parallel = runtime.run_tasks(tasks, jobs=2, cache=False)
        assert serial == parallel == [trace_digest(*pair) for pair in PAIRS]
