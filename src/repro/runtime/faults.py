"""Fault-injection hooks: named sites in production code that a plan fires.

Production code calls :func:`fire` at named hook sites.  It returns
``None`` unless a fault plan is active; otherwise it counts the hit and
returns the action scheduled for it, so a fault fires at an exact,
reproducible point (the 41st journal append, the 2nd worker task).  The
plan loads from ``BMBP_FAULTS`` at import, so a subprocess spawned with
it set is born faulty; in-process tests use :func:`install`/:func:`reset`.
The recovery scenarios live in :mod:`repro.verify.faults`.  Stdlib-only:
hook sites sit on hot paths.

Schedule spec format (``docs/verification.md``): ``site:action@N[,...]``
fires ``action`` on the N-th hit of ``site`` (1-based).  Hook sites and
their actions:

==================  ==========================================================
site                actions
==================  ==========================================================
journal.write       ``torn`` (write half the line, crash), ``crash`` (write
                    and flush the full line, then crash before the ack)
checkpoint.replace  ``crash-before`` (temp file written, crash before
                    ``os.replace``), ``crash-after`` (crash after the rename,
                    before the journal truncation)
daemon.mutation     ``drop`` (apply + journal the mutation, then reset the
                    connection instead of acknowledging)
engine.worker       ``die`` (``os._exit`` — only inside a pool worker
                    process), ``raise`` (raise inside the task)
cache.put           ``corrupt`` (scribble over the entry file just written)
broker.request      ``drop`` (abort the in-flight backend connection
                    mid-fan-out, as if the remote daemon crashed)
replication.apply   ``halt`` (a follower stops consuming its replication
                    stream — lag grows; promotion must catch up from the
                    primary's on-disk journal instead)
journal.compact     ``crash`` (crash between checkpoint rename and segment
                    deletion: redundant segments must be skipped on replay)
corpus.ingest       ``crash`` (``os._exit`` after a column chunk flush,
                    mid-ETL), ``raise`` (raise at the same point)
corpus.finalize     ``crash``/``crash-before`` (manifest written in the temp
                    directory, crash before the atomic ``os.replace``),
                    ``raise``
corpus.finalize.after  ``crash`` (crash immediately after the rename: the
                    store must already be complete and valid)
corpus.replay.unit  ``die`` (``os._exit`` at the start of a replay work
                    unit — in a pool worker *and* in the serial fallback,
                    so an injected worker death can never be silently
                    absorbed), ``raise`` (raise at the same point)
==================  ==========================================================

Injected crashes exit with :data:`CRASH_EXIT_CODE` so a scenario can prove
the fault actually fired (and distinguish it from an accidental death).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "active",
    "crash",
    "fire",
    "in_worker_process",
    "install",
    "parse_plan",
    "reset",
]

#: Environment variable holding the fault schedule for spawned processes.
ENV_VAR = "BMBP_FAULTS"

#: Exit code of an injected crash (``kill -9`` would be -9/137; a distinct
#: code proves the scheduled fault, not something else, killed the process).
CRASH_EXIT_CODE = 86


class FaultSpecError(ValueError):
    """A malformed fault schedule specification."""


@dataclass(frozen=True)
class FaultRule:
    """Fire ``action`` on the ``at``-th hit (1-based) of ``site``."""

    site: str
    action: str
    at: int


class FaultPlan:
    """A parsed schedule with per-site hit counters.

    Counters are per-process state: a forked pool worker inherits a *copy*
    of the parent's counters, which is exactly what makes worker-death
    schedules deterministic (each worker counts its own task invocations).
    """

    def __init__(self, rules: List[FaultRule]):
        self.rules = list(rules)
        self._hits: Dict[str, int] = {}

    def fire(self, site: str) -> Optional[str]:
        """Count one hit of ``site``; return the scheduled action, if any."""
        count = self._hits.get(site, 0) + 1
        self._hits[site] = count
        for rule in self.rules:
            if rule.site == site and rule.at == count:
                return rule.action
        return None

    def hits(self, site: str) -> int:
        return self._hits.get(site, 0)

    def spec(self) -> str:
        return ",".join(f"{r.site}:{r.action}@{r.at}" for r in self.rules)


def parse_plan(spec: str) -> FaultPlan:
    """Parse a ``site:action@N,...`` schedule spec into a plan."""
    rules: List[FaultRule] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            site_action, at_text = part.rsplit("@", 1)
            site, action = site_action.split(":", 1)
            at = int(at_text)
        except ValueError:
            raise FaultSpecError(
                f"bad fault spec {part!r} (want site:action@N)"
            ) from None
        if at < 1:
            raise FaultSpecError(f"fault hit index must be >= 1, got {at}")
        if not site or not action:
            raise FaultSpecError(f"bad fault spec {part!r} (empty site/action)")
        rules.append(FaultRule(site=site.strip(), action=action.strip(), at=at))
    return FaultPlan(rules)


# The active plan.  Loaded from the environment at import so a subprocess
# spawned with BMBP_FAULTS set is faulty from its very first event.
_plan: Optional[FaultPlan] = None

_env_spec = os.environ.get(ENV_VAR, "").strip()
if _env_spec:
    _plan = parse_plan(_env_spec)


def install(spec_or_plan) -> FaultPlan:
    """Activate a fault plan in this process (tests; pairs with reset())."""
    global _plan
    _plan = parse_plan(spec_or_plan) if isinstance(spec_or_plan, str) else spec_or_plan
    return _plan


def reset() -> None:
    """Deactivate fault injection in this process."""
    global _plan
    _plan = None


def active() -> bool:
    return _plan is not None


def fire(site: str) -> Optional[str]:
    """Hook-site entry point: a no-op (None) unless a plan is active."""
    if _plan is None:
        return None
    return _plan.fire(site)


def crash() -> None:
    """Die the way a crash does: no cleanup, no atexit, no flush."""
    os._exit(CRASH_EXIT_CODE)


def in_worker_process() -> bool:
    """True inside a ``multiprocessing`` pool worker (crash guards)."""
    return multiprocessing.parent_process() is not None
