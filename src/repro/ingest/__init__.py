"""Streaming ingest: the live, continuously-updating atypical forest.

The forest need not be a batch artifact: this package grows the day
level as events arrive, closing each day with the batch build's own day
step, so a streamed day is byte-identical to a batch-built one by
construction. Weeks and months are integrated on demand, as the paper's
partially materialized forest prescribes (Sec. IV).

* :mod:`repro.ingest.contract` — the frozen ``(sensor, window,
  severity)`` event contract and its NDJSON/JSON wire forms;
* :mod:`repro.ingest.engine` — :class:`IngestEngine`, the watermarked
  day buffer with day builds, staleness accounting and atomic
  snapshots;
* :mod:`repro.ingest.spool` — :class:`SpoolTailer`, the durable
  file-based ingest path behind ``repro ingest`` (rename-into-place
  spool protocol, crash-safe checkpoints).

Serving integration lives in :mod:`repro.serve.handlers` (``POST
/ingest``); the operational runbook is ``docs/OPERATIONS.md``.
"""

from repro.ingest.contract import (
    CONTRACT_VERSION,
    ContractError,
    parse_body,
    parse_json,
    parse_ndjson,
    render_ndjson,
    validate_event,
)
from repro.ingest.engine import IngestEngine, IngestOverload, IngestResult
from repro.ingest.spool import (
    SpoolTailer,
    load_checkpoint,
    write_checkpoint,
    write_spool_file,
)

__all__ = [
    "CONTRACT_VERSION",
    "ContractError",
    "IngestEngine",
    "IngestOverload",
    "IngestResult",
    "SpoolTailer",
    "load_checkpoint",
    "parse_body",
    "parse_json",
    "parse_ndjson",
    "render_ndjson",
    "validate_event",
    "write_checkpoint",
    "write_spool_file",
]
