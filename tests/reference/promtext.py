"""Reader of the Prometheus text exposition format, for tests.

:func:`parse_prometheus_text` inverts
:func:`repro.obs.exporters.to_prometheus_text`: the exporter tests
round-trip a registry through it, and the server tests read the
``/metrics`` body with it.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["parse_prometheus_text"]


def _parse_label_block(text: str) -> Dict[str, str]:
    """Parse the inside of a ``{...}`` label block, undoing the exposition
    escapes (``\\\\``, ``\\"``, ``\\n``) in label values."""
    labels: Dict[str, str] = {}
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i] in ", \t":
            i += 1
        if i >= n:
            break
        eq = text.index("=", i)
        key = text[i:eq].strip()
        if eq + 1 >= n or text[eq + 1] != '"':
            raise ValueError(f"unquoted label value for {key!r}")
        j = eq + 2
        buf: List[str] = []
        while j < n and text[j] != '"':
            if text[j] == "\\" and j + 1 < n:
                nxt = text[j + 1]
                buf.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt))
                j += 2
            else:
                buf.append(text[j])
                j += 1
        if j >= n:
            raise ValueError(f"unterminated label value for {key!r}")
        labels[key] = "".join(buf)
        i = j + 1
    return labels


def _split_sample(line: str) -> tuple:
    """Split one sample line into ``(name, labels, value)``."""
    brace = line.find("{")
    if brace >= 0:
        close = line.rindex("}")
        name = line[:brace].strip()
        labels = _parse_label_block(line[brace + 1 : close])
        value_text = line[close + 1 :].strip()
    else:
        name, _, value_text = line.partition(" ")
        labels = {}
    return name, labels, float(value_text)


def parse_prometheus_text(text: str) -> Dict[str, object]:
    """Parse exposition text produced by
    :func:`repro.obs.exporters.to_prometheus_text`.

    The round-trip oracle of the exporter tests and the tests' reader of
    the served ``/metrics`` body. Returns a dict of::

        {"counters":   {prom_name: value},           # includes _total suffix
         "gauges":     {prom_name: value},
         "rates":      {prom_name: {"60s": rate, ...}},  # *_rate window gauges
         "histograms": {base_name: {"buckets": [...], "counts": [...],
                                    "sum": s, "count": n}},
         "summaries":  {base_name: {label_value: {"sum": s, "count": n}}}}

    Histogram ``counts`` are converted back to the in-memory per-bucket
    form (the final slot is the +Inf overflow), matching the snapshot
    layout so values compare directly against the source registry. Lines
    of unknown shape raise ``ValueError`` — a scrape is either well-formed
    or rejected.
    """
    types: Dict[str, str] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    rates: Dict[str, Dict[str, float]] = {}
    hist_raw: Dict[str, Dict[str, object]] = {}
    summaries: Dict[str, Dict[str, Dict[str, float]]] = {}

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        name, labels, value = _split_sample(line)

        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and types.get(name[: -len(suffix)]) in (
                "histogram",
                "summary",
            ):
                base = name[: -len(suffix)]
                break
        kind = types.get(base) or types.get(name)

        if kind == "counter":
            counters[name] = value
        elif kind == "gauge":
            if "window" in labels:
                rates.setdefault(name, {})[labels["window"]] = value
            else:
                gauges[name] = value
        elif kind == "histogram":
            entry = hist_raw.setdefault(
                base, {"le": [], "cumulative": [], "sum": 0.0, "count": 0}
            )
            if name.endswith("_bucket"):
                entry["le"].append(labels["le"])  # type: ignore[union-attr]
                entry["cumulative"].append(int(value))  # type: ignore[union-attr]
            elif name.endswith("_sum"):
                entry["sum"] = value
            else:
                entry["count"] = int(value)
        elif kind == "summary":
            label_value = next(iter(labels.values()), "")
            slot = summaries.setdefault(base, {}).setdefault(
                label_value, {"sum": 0.0, "count": 0}
            )
            if name.endswith("_sum"):
                slot["sum"] = value
            elif name.endswith("_count"):
                slot["count"] = int(value)
        else:
            raise ValueError(f"sample {name!r} has no preceding # TYPE line")

    histograms: Dict[str, Dict[str, object]] = {}
    for base, entry in hist_raw.items():
        bounds = [float(le) for le in entry["le"] if le != "+Inf"]  # type: ignore[union-attr]
        cumulative: List[int] = list(entry["cumulative"])  # type: ignore[arg-type]
        counts = [
            c - (cumulative[i - 1] if i else 0) for i, c in enumerate(cumulative)
        ]
        histograms[base] = {
            "buckets": bounds,
            "counts": counts,
            "sum": entry["sum"],
            "count": entry["count"],
        }
    return {
        "counters": counters,
        "gauges": gauges,
        "rates": rates,
        "histograms": histograms,
        "summaries": summaries,
    }
