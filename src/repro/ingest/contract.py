"""The frozen event contract of the streaming ingest path.

Every record entering the system through ``POST /ingest`` or a spool file
is one JSON object against contract **version 1**:

.. code-block:: json

    {"sensor": 17, "window": 2041, "severity": 12.5}

* ``sensor`` — non-negative integer id of a deployed sensor;
* ``window`` — non-negative absolute window index (``day * windows_per_day
  + window_in_day``);
* ``severity`` — finite number strictly greater than zero (the atypical
  measure ``f(s, t)``, congested minutes in the paper's deployment);
* ``v`` — optional contract version, must be ``1`` when present.

Unknown fields are rejected rather than ignored: the contract is frozen,
so a producer sending extra fields is either on a newer contract version
(which must bump ``v``) or misconfigured — both cases an operator wants
surfaced as a rejection count, not silently dropped data.

Two wire encodings carry batches of events:

* **NDJSON** (``application/x-ndjson``, the default): one event object
  per line, blank lines skipped. Malformed lines are counted per-reason
  and do not fail the batch — partial acceptance is the point of the
  per-batch ``accepted``/``rejected`` report.
* **JSON** (``application/json``): either a top-level array of event
  objects or ``{"events": [...]}``. A body that does not parse as JSON
  at all is a protocol error (HTTP 400), not a per-event rejection.

The keyword the rest of the package shares: a *row* is the validated
``(sensor, window, severity)`` triple.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Iterable, List, Tuple

__all__ = [
    "CONTRACT_VERSION",
    "EVENT_FIELDS",
    "ContractError",
    "validate_event",
    "parse_ndjson",
    "parse_json",
    "parse_body",
    "render_ndjson",
]

#: The only contract version this build of the service accepts.
CONTRACT_VERSION = 1

#: Fields an event object may carry (the contract is frozen).
EVENT_FIELDS = frozenset({"sensor", "window", "severity", "v"})

#: A validated event row: ``(sensor_id, absolute_window, severity)``.
Row = Tuple[int, int, float]


class ContractError(ValueError):
    """A request body that violates the batch framing (not one event).

    Raised when the envelope itself is unusable — undecodable bytes for a
    JSON document, a non-array top level, an unsupported content type.
    Per-event violations never raise; they are returned as rejection
    counts so the rest of the batch still lands.
    """


def _reject_reason(obj: object) -> str:
    """The rejection reason for one event object, or ``""`` when valid."""
    if not isinstance(obj, dict):
        return "not-object"
    unknown = set(obj) - EVENT_FIELDS
    if unknown:
        return "unknown-field"
    version = obj.get("v", CONTRACT_VERSION)
    if version != CONTRACT_VERSION:
        return "bad-version"
    for name in ("sensor", "window", "severity"):
        if name not in obj:
            return "missing-field"
    sensor, window, severity = obj["sensor"], obj["window"], obj["severity"]
    if isinstance(sensor, bool) or not isinstance(sensor, int) or sensor < 0:
        return "bad-sensor"
    if isinstance(window, bool) or not isinstance(window, int) or window < 0:
        return "bad-window"
    if isinstance(severity, bool) or not isinstance(severity, (int, float)):
        return "bad-severity"
    if not math.isfinite(float(severity)) or float(severity) <= 0.0:
        return "bad-severity"
    return ""


def validate_event(obj: object) -> Tuple[Row, str]:
    """Validate one decoded event object against the contract.

    Returns ``(row, "")`` for a valid event or ``((0, 0, 0.0), reason)``
    for a rejected one; ``reason`` is a stable slug suitable as a metric
    name suffix (``unknown-field``, ``bad-severity``, ...).
    """
    reason = _reject_reason(obj)
    if reason:
        return (0, 0, 0.0), reason
    assert isinstance(obj, dict)
    return (int(obj["sensor"]), int(obj["window"]), float(obj["severity"])), ""


def _validate_all(objects: Iterable[object]) -> Tuple[List[Row], Counter]:
    rows: List[Row] = []
    rejected: Counter = Counter()
    for obj in objects:
        row, reason = validate_event(obj)
        if reason:
            rejected[reason] += 1
        else:
            rows.append(row)
    return rows, rejected


def parse_ndjson(data: bytes) -> Tuple[List[Row], Counter]:
    """Decode an NDJSON batch into rows plus per-reason rejection counts.

    Undecodable or malformed lines are rejected (``parse``) without
    failing the batch; blank lines are skipped.
    """
    rows: List[Row] = []
    rejected: Counter = Counter()
    for line in data.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            rejected["parse"] += 1
            continue
        row, reason = validate_event(obj)
        if reason:
            rejected[reason] += 1
        else:
            rows.append(row)
    return rows, rejected


def parse_json(data: bytes) -> Tuple[List[Row], Counter]:
    """Decode a JSON document batch (array or ``{"events": [...]}``).

    Raises :class:`ContractError` when the document itself is not usable;
    per-event violations are returned as rejection counts.
    """
    try:
        doc = json.loads(data.decode() or "[]")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"request body is not valid JSON: {exc}")
    if isinstance(doc, dict):
        events = doc.get("events")
        if events is None or set(doc) - {"events"}:
            raise ContractError(
                'a JSON batch must be an array of events or {"events": [...]}'
            )
    else:
        events = doc
    if not isinstance(events, list):
        raise ContractError("the events payload must be a JSON array")
    return _validate_all(events)


def parse_body(data: bytes, content_type: str = "") -> Tuple[List[Row], Counter]:
    """Decode a request body by content type (NDJSON unless JSON claimed).

    ``application/json`` selects the JSON document form; anything else —
    including an absent content type — is treated as NDJSON, the spool
    file format.
    """
    token = content_type.partition(";")[0].strip().lower()
    if token == "application/json":
        return parse_json(data)
    return parse_ndjson(data)


def render_ndjson(rows: Iterable[Row]) -> bytes:
    """Encode rows as contract-conformant NDJSON (producer side).

    The inverse of :func:`parse_ndjson`; used by the spool writer, the
    load smoke and the tests. Severities are emitted through ``repr`` so
    a parse round-trip preserves the exact float.
    """
    lines = [
        '{"sensor": %d, "window": %d, "severity": %s}'
        % (sensor, window, repr(float(severity)))
        for sensor, window, severity in rows
    ]
    return ("\n".join(lines) + "\n").encode() if lines else b""
