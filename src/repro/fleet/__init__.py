"""Sharded, replicated forecast fleet for one site.

One :class:`~repro.server.daemon.ForecastServer` tops out on a single
core; a *fleet* partitions the site's queues across N shard primaries
(``protocol.shard_of``: stable CRC32 of the queue name), each with its
own segmented write-ahead journal and an optional warm follower tailing
that journal over the ``sync`` replication stream.  Kill a primary and
the follower is promoted — loss-free, because every acknowledged event
was flushed to the primary's journal before the ack, and promotion
replays the journal tail straight from disk.

Pieces:

* :mod:`repro.fleet.topology` — the on-disk fleet layout (``fleet.json``,
  per-shard state directories) and the queue→shard mapping.
* :mod:`repro.fleet.manager` — spawns/kills/promotes the worker
  processes; what ``bmbp fleet`` and the fault scenarios drive.
* :mod:`repro.fleet.client` — shard-aware synchronous client: routes by
  queue hash, remembers job→shard, fans out when it must.  ``bmbp tail
  --fleet DIR`` feeds a fleet from a log through it.
"""

from repro.fleet.client import FleetClient
from repro.fleet.manager import FleetManager
from repro.fleet.topology import FleetTopology, shard_of

__all__ = ["FleetClient", "FleetManager", "FleetTopology", "shard_of"]
