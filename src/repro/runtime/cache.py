"""Versioned persistent on-disk cache for replay results.

Every table and figure of the paper is assembled from replays of the same
32 machine/queue traces; those replays are deterministic functions of
``(work function, arguments, code version)``.  This module persists their
results across processes and CLI invocations so that a warm ``python -m
repro table3`` does zero replays.

Keys are content hashes of a *canonical JSON* rendering of the work item
(function identity plus arguments, dataclasses included field by field)
together with :data:`CACHE_VERSION`.  Values are pickled payloads that
embed the version and the full canonical key; an entry whose payload is
corrupt, whose version is stale, or whose key does not match (a hash
collision, however unlikely) is treated as a miss and recomputed — never
an error.

Bump :data:`CACHE_VERSION` whenever a change anywhere in the replay path
(generator, predictors, simulator, experiment work functions) can alter
cached values; stale entries are then ignored and eventually overwritten.

The cache directory resolves, in order:

1. the ``BMBP_CACHE_DIR`` environment variable,
2. ``$XDG_CACHE_HOME/bmbp-repro``,
3. ``~/.cache/bmbp-repro``.

``BMBP_CACHE=0`` (or ``--no-cache`` on the CLI) disables reads and writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.runtime import faults

__all__ = [
    "CACHE_VERSION",
    "CORPUS_REPLAY_VERSION",
    "DiskCache",
    "cache_enabled_from_env",
    "canonical_key",
    "corpus_unit_key",
    "default_cache_dir",
]

#: Version of everything a cached result depends on: the synthetic
#: generator, the predictors, the replay protocol, and the experiment work
#: functions.  Bump on any change that can move a cached number.
CACHE_VERSION = 1

#: Version of everything a cached *corpus replay unit* depends on beyond
#: its data: the replay kernel, the 9-method bank construction, and the
#: unit merge semantics.  Bump on any change that can move a per-queue
#: coverage row; data changes are covered by the content digests in the
#: key itself.
CORPUS_REPLAY_VERSION = 4

_FALSY = {"0", "false", "no", "off", ""}


def default_cache_dir() -> Path:
    """The cache directory honoring ``BMBP_CACHE_DIR`` and XDG conventions."""
    env = os.environ.get("BMBP_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "bmbp-repro"


def cache_enabled_from_env() -> bool:
    """Whether the environment allows persistent caching (``BMBP_CACHE``)."""
    return os.environ.get("BMBP_CACHE", "1").strip().lower() not in _FALSY


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable primitives, deterministically."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__qualname__, **fields}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, Path):
        return str(obj)
    # Fall back to repr for anything exotic; repr of the same value is
    # stable within a cache version.
    return repr(obj)


def canonical_key(*parts: Any) -> str:
    """Deterministic JSON string identifying one cacheable work item."""
    payload = {"cache_version": CACHE_VERSION, "parts": _canonical(list(parts))}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def corpus_unit_key(
    *,
    site: str,
    queue: str,
    rows: Any,
    data_digest: str,
    column_sha256: Any,
    config: Any,
) -> str:
    """Content-addressed key for one corpus replay work unit.

    Deliberately excludes the store *path*: the same rows replayed from a
    moved or re-ingested store hit the same entry.  Staleness is carried
    by two content layers — the manifest's per-column SHA-256s (cheap,
    ingest-time) and ``data_digest``, a hash of the exact bytes the unit
    replays (detects direct on-disk mutation of a single queue's rows,
    which the manifest cannot see) — plus :data:`CORPUS_REPLAY_VERSION`
    for the kernel/bank code itself.
    """
    return canonical_key(
        "corpus-replay-unit",
        {
            "corpus_replay_version": CORPUS_REPLAY_VERSION,
            "site": site,
            "queue": queue,
            "rows": _canonical(rows),
            "data_digest": data_digest,
            "column_sha256": _canonical(column_sha256),
            "config": _canonical(config),
        },
    )


class DiskCache:
    """Content-addressed pickle store; one file per entry, atomic writes."""

    def __init__(self, directory: Optional[Path] = None):
        self._dir = Path(directory) if directory is not None else None

    @property
    def directory(self) -> Path:
        return self._dir if self._dir is not None else default_cache_dir()

    def _path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.directory / f"v{CACHE_VERSION}" / f"{digest}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; corrupt or stale entries read as misses."""
        path = self._path_for(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError, TypeError):
            return False, None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or payload.get("key") != key
        ):
            return False, None
        return True, payload.get("value")

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``; failures are silently ignored.

        The write is atomic (temp file + rename) so concurrent workers and
        interrupted runs can never leave a torn entry behind.
        """
        path = self._path_for(key)
        payload = {"version": CACHE_VERSION, "key": key, "value": value}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)
                if faults.fire("cache.put") == "corrupt":
                    # Injected on-disk corruption: the next get() must read
                    # this entry as a miss, never serve garbage.
                    path.write_bytes(b"\x00corrupt-cache-entry\x00")
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            pass

    def clear(self) -> int:
        """Delete every entry (all versions); returns the number removed."""
        removed = 0
        root = self.directory
        if not root.is_dir():
            return 0
        for path in sorted(root.glob("v*/**/*.pkl")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for subdir in sorted(root.glob("v*"), reverse=True):
            try:
                subdir.rmdir()
            except OSError:
                pass
        return removed
