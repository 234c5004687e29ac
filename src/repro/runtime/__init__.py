"""Execution runtime: parallel replay engine and persistent cache.

This package is the layer between the experiment definitions
(:mod:`repro.experiments`) and the hardware: it decides how many worker
processes replay the paper's machine/queue traces and serves previously
computed replay results from a versioned on-disk cache.
"""

from repro.runtime.cache import CACHE_VERSION, DiskCache, canonical_key, default_cache_dir
from repro.runtime.engine import (
    EngineStats,
    Task,
    TaskTiming,
    WorkerError,
    clear_disk_cache,
    configure,
    reset_configuration,
    reset_stats,
    resolve_jobs,
    run_tasks,
    stats,
)

__all__ = [
    "CACHE_VERSION",
    "DiskCache",
    "EngineStats",
    "Task",
    "TaskTiming",
    "WorkerError",
    "canonical_key",
    "clear_disk_cache",
    "configure",
    "default_cache_dir",
    "reset_configuration",
    "reset_stats",
    "resolve_jobs",
    "run_tasks",
    "stats",
]
