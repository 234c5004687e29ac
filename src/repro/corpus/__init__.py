"""Archive-scale trace corpus: ETL, columnar memmap store, replay harness.

Layers (see ``docs/corpus.md``):

* :mod:`repro.corpus.etl` — streaming, constant-memory ingest of
  Parallel Workloads Archive SWF logs and Alibaba GPU-trace CSVs into a
  normalized event form, with a counted (never silent) cleaning pass;
* :mod:`repro.corpus.store` — one memmap'd column directory per site,
  zero-copy loads, time/queue slicing, a ``Trace``-compatible view;
* :mod:`repro.corpus.replay` — million-job replays through the
  epoch-batched kernel and the method bank, and per-queue (0.95, 0.95)
  coverage;
* :mod:`repro.corpus.fixtures` — deterministic archive-shaped synthetic
  SWF logs so CI exercises the full path without committing real logs.
"""

from repro.corpus.etl import IngestStats, detect_format, ingest
from repro.corpus.fixtures import (
    FIXTURE_QUEUES,
    FixtureSummary,
    generate_corpus_fixture,
)
from repro.corpus.replay import replay_store
from repro.corpus.store import (
    COLUMNS,
    STORE_SCHEMA,
    ColumnWriter,
    CorpusError,
    CorpusStore,
    CorpusView,
)

__all__ = [
    "COLUMNS",
    "FIXTURE_QUEUES",
    "STORE_SCHEMA",
    "ColumnWriter",
    "CorpusError",
    "CorpusStore",
    "CorpusView",
    "FixtureSummary",
    "IngestStats",
    "detect_format",
    "generate_corpus_fixture",
    "ingest",
    "replay_store",
]
