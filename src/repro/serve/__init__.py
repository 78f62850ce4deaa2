"""The long-running query service: HTTP daemon and request telemetry.

``repro serve`` loads a built model once and answers analytical queries
over HTTP (see :mod:`repro.serve.handlers` for the endpoints), with
RED-style request telemetry — correlation ids, request/error counters,
sliding-window rates, latency histograms, per-stage query costs — wired
through the shared :mod:`repro.obs` registry, plus always-on
tail-sampled request tracing into a persistent
:class:`~repro.obs.tracestore.TraceStore`. Operators read the server
through ``/metrics``, ``/healthz``, ``/slo`` and ``/traces``, and
resolve a persisted trace offline with ``repro trace show``.

Layering: :mod:`~repro.serve.context` (per-request accounting) →
:mod:`~repro.serve.handlers` (endpoint logic, socket-free) →
:mod:`~repro.serve.server` (HTTP transport and graceful shutdown). The
benchmark harness and tests drive the handler layer in-process.
"""

from repro.serve.context import (
    ACCESS_LOGGER,
    RequestContext,
    new_request_id,
    sanitize_request_id,
)
from repro.serve.handlers import JSON_TYPE, METRICS_TYPE, Response, ServeApp
from repro.serve.server import QueryServer, build_handler, install_signal_handlers

__all__ = [
    "ACCESS_LOGGER",
    "RequestContext",
    "new_request_id",
    "sanitize_request_id",
    "ServeApp",
    "Response",
    "JSON_TYPE",
    "METRICS_TYPE",
    "QueryServer",
    "build_handler",
    "install_signal_handlers",
]
