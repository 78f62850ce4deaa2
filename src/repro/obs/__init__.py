"""Pipeline telemetry: metrics registry, phase spans, structured logging.

The observability layer gives every pipeline stage — Algorithm 1
extraction, online tracking, Algorithm 3 integration, the similarity
kernels, red-zone guided queries, the benchmark harness — a shared,
exportable set of runtime signals:

* :mod:`repro.obs.metrics` — counters, gauges, histograms and the
  :class:`MetricsRegistry` that owns them;
* :mod:`repro.obs.spans` — nested wall-time phase spans
  (``with obs.span("integrate.fixpoint"): ...``);
* :mod:`repro.obs.exporters` — JSON snapshots (``--metrics-out``,
  ``repro stats``) and Prometheus text exposition output;
* :mod:`repro.obs.tracing` — Chrome ``trace_event`` export of the span
  tree (``--trace-out``, loadable in Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.profiling` — opt-in cProfile / tracemalloc phase
  profiling (``--profile``);
* :mod:`repro.obs.logs` — stdlib logging with a key=value formatter;
* :mod:`repro.obs.tsdb` — a local time-series store: an in-process
  sampler folds registry snapshots into multi-resolution ring buffers
  and appends them to rotating NDJSON segments;
* :mod:`repro.obs.slo` — YAML-declared SLOs evaluated as multi-window
  burn-rate alerts (OK/WARN/PAGE) over the tsdb history;
* :mod:`repro.obs.tracestore` — tail-sampled request traces (errored /
  slow / deterministic head sample) persisted in rotating NDJSON
  segments, with critical-path and merged-profile analysis.

Collection is **disabled by default** and costs one flag check per
instrumentation site while off; see :mod:`repro.obs.runtime`. The span
taxonomy and metric names are documented in DESIGN.md ("Observability").
"""

from repro.obs.exporters import (
    load_snapshot,
    render_snapshot,
    to_json,
    to_openmetrics_text,
    to_prometheus_text,
    write_snapshot,
)
from repro.obs.logs import LOG_LEVELS, configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import PROFILERS, profile_phase
from repro.obs.runtime import (
    activate,
    correlation,
    correlation_id,
    counter,
    enabled,
    gauge,
    histogram,
    registry,
    window,
)
from repro.obs.spans import external_span, span
from repro.obs.tracing import to_chrome_trace, write_chrome_trace

__all__ = [
    # metrics
    "MetricsRegistry",
    # runtime
    "enabled",
    "registry",
    "activate",
    "counter",
    "gauge",
    "histogram",
    "window",
    "correlation",
    "correlation_id",
    # spans
    "span",
    "external_span",
    # exporters
    "to_json",
    "write_snapshot",
    "load_snapshot",
    "to_prometheus_text",
    "to_openmetrics_text",
    "render_snapshot",
    # tracing
    "to_chrome_trace",
    "write_chrome_trace",
    # profiling
    "PROFILERS",
    "profile_phase",
    # logging
    "configure_logging",
    "get_logger",
    "LOG_LEVELS",
]
