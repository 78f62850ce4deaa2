"""Snapshot exporters: JSON, Prometheus exposition text, terminal render.

A *snapshot* is the plain dict produced by
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`. The JSON form is what
``--metrics-out`` writes and ``repro stats`` reads back; the Prometheus
form follows the text exposition format (``# TYPE`` / ``# HELP`` comments,
cumulative ``_bucket{le=...}`` histogram samples, span aggregates as a
labelled summary) so the output can be served from a textfile collector or
pushed to a gateway unchanged.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "to_json",
    "write_snapshot",
    "load_snapshot",
    "to_prometheus_text",
    "to_openmetrics_text",
    "render_snapshot",
    "format_seconds",
    "OPENMETRICS_TYPE",
]

_PROM_PREFIX = "repro_"


def to_json(snapshot: Mapping[str, object]) -> str:
    """Render a registry snapshot as pretty-printed JSON."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def write_snapshot(
    snapshot: Mapping[str, object] | MetricsRegistry, path: Path | str
) -> Path:
    """Serialize a snapshot (or a registry) to ``path`` as JSON."""
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_json(snapshot))
    return path


def load_snapshot(path: Path | str) -> Dict[str, object]:
    """Read back a snapshot written by :func:`write_snapshot`."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "counters" not in data:
        raise ValueError(f"{path} is not a metrics snapshot (no 'counters' key)")
    return data


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier.

    The exposition format allows only ``[a-zA-Z0-9_:]`` in metric names
    (and a non-digit first character). Anything else — including non-ASCII
    letters, which ``str.isalnum()`` would wave through — is mapped to
    ``_``, so a hostile or merely unicode metric name can never corrupt a
    sample line.
    """
    out = "".join(
        c if (c.isascii() and c.isalnum()) or c == "_" else "_" for c in name
    )
    if not out:
        out = "_"
    if out[0].isdigit():
        out = "_" + out
    return _PROM_PREFIX + out


def _prom_value(value: float) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _prom_label(value: object) -> str:
    """Quote a label value, escaping backslash, quote and newline (in that
    order, per the exposition format)."""
    text = str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _prom_help(text: str) -> str:
    """Escape a HELP docstring: backslash and newline only (quotes are
    legal in HELP text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def to_prometheus_text(snapshot: Mapping[str, object]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name) + "_total"
        lines.append(f"# HELP {prom} Counter {_prom_help(name)}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")

    for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} Gauge {_prom_help(name)}")
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")

    for name, win in snapshot.get("windows", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name) + "_rate"
        lines.append(
            f"# HELP {prom} Events/second over trailing windows ({_prom_help(name)})"
        )
        lines.append(f"# TYPE {prom} gauge")
        for seconds, rate in win["rates"].items():
            label = f"window={_prom_label(seconds + 's')}"
            lines.append(f"{prom}{{{label}}} {_prom_value(float(rate))}")

    for name, hist in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# HELP {prom} Histogram {_prom_help(name)}")
        lines.append(f"# TYPE {prom} histogram")
        running = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            running += count
            lines.append(
                f'{prom}_bucket{{le={_prom_label(_prom_value(float(bound)))}}} '
                f"{running}"
            )
        running += hist["counts"][len(hist["buckets"])]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {running}')
        lines.append(f"{prom}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{prom}_count {hist['count']}")

    summary = snapshot.get("span_summary", {})
    if summary:
        prom = _PROM_PREFIX + "span_duration_seconds"
        lines.append(f"# HELP {prom} Wall time per span name")
        lines.append(f"# TYPE {prom} summary")
        for name, agg in summary.items():  # type: ignore[union-attr]
            label = f"span={_prom_label(name)}"
            lines.append(f"{prom}_sum{{{label}}} {_prom_value(agg['total_seconds'])}")
            lines.append(f"{prom}_count{{{label}}} {int(agg['count'])}")

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# OpenMetrics (exemplar-capable) exposition
# ----------------------------------------------------------------------
#: Content type the OpenMetrics renderer is served under (the query
#: service negotiates on the ``Accept`` header).
OPENMETRICS_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


def _om_exemplar(exemplar: Mapping[str, object]) -> str:
    """Render an OpenMetrics exemplar suffix for a bucket sample line."""
    trace_id = _prom_label(exemplar.get("trace_id", ""))
    value = _prom_value(float(exemplar.get("value", 0.0)))  # type: ignore[arg-type]
    stamp = float(exemplar.get("timestamp", 0.0))  # type: ignore[arg-type]
    return f" # {{trace_id={trace_id}}} {value} {stamp:.3f}"


def to_openmetrics_text(snapshot: Mapping[str, object]) -> str:
    """Render a snapshot as OpenMetrics text, with histogram exemplars.

    The default ``/metrics`` body stays plain Prometheus exposition text
    (:func:`to_prometheus_text`); clients that send
    ``Accept: application/openmetrics-text`` get this renderer instead.
    The payload differs in the OpenMetrics ways — counter ``# TYPE``
    lines drop the ``_total`` suffix, the body ends with ``# EOF`` — and
    each histogram bucket that remembers an exemplar carries it as
    ``# {trace_id="..."} value timestamp``, which is how a scrape links
    a latency bucket to a stored request trace.
    """
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"# HELP {prom} Counter {_prom_help(name)}")
        lines.append(f"{prom}_total {_prom_value(value)}")

    for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"# HELP {prom} Gauge {_prom_help(name)}")
        lines.append(f"{prom} {_prom_value(value)}")

    for name, win in snapshot.get("windows", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name) + "_rate"
        lines.append(f"# TYPE {prom} gauge")
        lines.append(
            f"# HELP {prom} Events/second over trailing windows ({_prom_help(name)})"
        )
        for seconds, rate in win["rates"].items():
            label = f"window={_prom_label(seconds + 's')}"
            lines.append(f"{prom}{{{label}}} {_prom_value(float(rate))}")

    for name, hist in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        lines.append(f"# HELP {prom} Histogram {_prom_help(name)}")
        exemplars: Mapping[str, Mapping[str, object]] = hist.get("exemplars", {})
        running = 0
        for index, (bound, count) in enumerate(zip(hist["buckets"], hist["counts"])):
            running += count
            suffix = ""
            exemplar = exemplars.get(str(index))
            if exemplar:
                suffix = _om_exemplar(exemplar)
            lines.append(
                f'{prom}_bucket{{le={_prom_label(_prom_value(float(bound)))}}} '
                f"{running}{suffix}"
            )
        overflow_index = len(hist["buckets"])
        running += hist["counts"][overflow_index]
        suffix = ""
        exemplar = exemplars.get(str(overflow_index))
        if exemplar:
            suffix = _om_exemplar(exemplar)
        lines.append(f'{prom}_bucket{{le="+Inf"}} {running}{suffix}')
        lines.append(f"{prom}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{prom}_count {hist['count']}")

    summary = snapshot.get("span_summary", {})
    if summary:
        prom = _PROM_PREFIX + "span_duration_seconds"
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"# HELP {prom} Wall time per span name")
        for name, agg in summary.items():  # type: ignore[union-attr]
            label = f"span={_prom_label(name)}"
            lines.append(f"{prom}_sum{{{label}}} {_prom_value(agg['total_seconds'])}")
            lines.append(f"{prom}_count{{{label}}} {int(agg['count'])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Terminal rendering (``repro stats``)
# ----------------------------------------------------------------------
def format_seconds(seconds: float) -> str:
    """Adaptive s/ms/us rendering shared by the terminal exporters."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.3f}"
    return f"{int(value):,}"


def render_snapshot(
    snapshot: Mapping[str, object], max_spans: int = 15
) -> str:
    """Human-readable summary of a metrics snapshot."""
    lines: List[str] = []

    counters: Mapping[str, float] = snapshot.get("counters", {})  # type: ignore[assignment]
    if counters:
        lines.append("counters")
        width = max(len(n) for n in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {_fmt_number(value)}")

    gauges: Mapping[str, float] = snapshot.get("gauges", {})  # type: ignore[assignment]
    if gauges:
        lines.append("")
        lines.append("gauges")
        width = max(len(n) for n in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {_fmt_number(value)}")

    histograms: Mapping[str, Mapping[str, object]] = snapshot.get("histograms", {})  # type: ignore[assignment]
    if histograms:
        lines.append("")
        lines.append("histograms")
        for name, hist in histograms.items():
            count = int(hist["count"])  # type: ignore[arg-type]
            mean = float(hist["sum"]) / count if count else 0.0  # type: ignore[arg-type]
            lines.append(
                f"  {name}: count={count:,} sum={_fmt_number(float(hist['sum']))} "  # type: ignore[arg-type]
                f"mean={mean:,.1f}"
            )

    summary: Mapping[str, Mapping[str, float]] = snapshot.get("span_summary", {})  # type: ignore[assignment]
    if summary:
        lines.append("")
        lines.append("spans (aggregate)")
        width = max(len(n) for n in summary)
        lines.append(
            f"  {'name':<{width}}  {'count':>6}  {'total':>10}  "
            f"{'mean':>10}  {'max':>10}"
        )
        ordered = sorted(
            summary.items(), key=lambda kv: -kv[1]["total_seconds"]
        )
        for name, agg in ordered:
            count = int(agg["count"])
            total = agg["total_seconds"]
            lines.append(
                f"  {name:<{width}}  {count:>6}  {format_seconds(total):>10}  "
                f"{format_seconds(total / count):>10}  "
                f"{format_seconds(agg['max_seconds']):>10}"
            )

    spans: List[Mapping[str, object]] = snapshot.get("spans", [])  # type: ignore[assignment]
    if spans:
        slowest = sorted(spans, key=lambda s: -float(s["seconds"]))[:max_spans]  # type: ignore[arg-type]
        lines.append("")
        lines.append(f"slowest spans (top {len(slowest)} of {len(spans)})")
        for record in sorted(slowest, key=lambda s: float(s["start"])):  # type: ignore[arg-type]
            indent = "  " * (int(record["depth"]) + 1)  # type: ignore[arg-type]
            attrs: Mapping[str, object] = record.get("attrs", {})  # type: ignore[assignment]
            attr_text = (
                " " + " ".join(f"{k}={v}" for k, v in attrs.items()) if attrs else ""
            )
            lines.append(
                f"{indent}{record['name']} "
                f"{format_seconds(float(record['seconds']))}{attr_text}"  # type: ignore[arg-type]
            )

    if not lines:
        return "(empty snapshot)"
    return "\n".join(lines)
