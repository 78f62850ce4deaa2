"""YAML-declared SLOs evaluated as multi-window burn-rate alerts.

An SLO here is a budgeted objective over the query service's RED
telemetry — "99.9 % of requests succeed", "95 % of requests finish under
500 ms", "error rate stays below 1 %" — evaluated the way production
alerting does it (the multiwindow, multi-burn-rate recipe): the *burn
rate* is how fast the error budget is being spent relative to plan
(``bad_fraction / budget``), and an alert fires only when **both** a
short and a long trailing window agree:

* the **fast** pair (default 5 m + 1 h, factor 14.4) catches cliffs and
  drives the ``PAGE`` state;
* the **slow** pair (default 1 h + 6 h, factor 6.0) catches slow leaks
  and drives ``WARN``.

States order ``OK < WARN < PAGE``; a report's overall state is the worst
of its SLOs. Window math reads the :class:`~repro.obs.tsdb.TimeSeriesStore`
history (counter resets already corrected there); with only a lifetime
metrics snapshot available (``repro slo check snapshot.json``) the same
burn-rate thresholds are applied to the lifetime bad-fraction instead —
coarser, but the right call for a one-shot CLI check.

Config is YAML (PyYAML when installed, a built-in strict subset parser
otherwise — see :func:`parse_simple_yaml`) or JSON::

    slos:
      - name: availability
        kind: availability
        objective: 0.999
      - name: query-latency
        kind: latency
        objective: 0.95
        threshold: 0.5          # seconds
      - name: error-rate
        kind: error_rate
        threshold: 0.01
    windows:                    # optional; defaults shown
      fast:
        short: 300
        long: 3600
        factor: 14.4
      slow:
        short: 3600
        long: 21600
        factor: 6.0
    min_requests: 1             # windows below this traffic never fire

Every config failure raises :class:`SLOError` with a one-line message;
the CLI maps it to exit code 2, mirroring the CodecError convention.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.tsdb import TimeSeriesStore, _fmt_bound

__all__ = [
    "SLOError",
    "SLO",
    "BurnWindow",
    "SLOConfig",
    "WindowStatus",
    "SLOStatus",
    "SLOReport",
    "SLOEngine",
    "parse_simple_yaml",
    "load_slo_config",
    "evaluate_snapshot",
    "check_doc",
    "STATES",
    "DEFAULT_WINDOWS",
]

#: Alert states, mildest first; comparisons use list position.
STATES: Tuple[str, ...] = ("OK", "WARN", "PAGE")

#: Default series names (the query service's RED metrics).
TOTAL_SERIES = "serve.requests"
BAD_SERIES = "serve.errors"
LATENCY_HISTOGRAM = "serve.request_seconds"


class SLOError(ValueError):
    """A bad SLO config or evaluation input (CLI exit 2, one line)."""


@dataclass(frozen=True)
class BurnWindow:
    """One short+long window pair and the state it drives when burning."""

    name: str  #: ``fast`` / ``slow``
    short_seconds: float
    long_seconds: float
    factor: float  #: burn-rate threshold both windows must exceed
    state: str  #: the alert state a trigger raises (``PAGE`` / ``WARN``)


#: The classic multiwindow recipe: 5m+1h at 14.4x pages, 1h+6h at 6x warns.
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow("fast", 300.0, 3600.0, 14.4, "PAGE"),
    BurnWindow("slow", 3600.0, 21600.0, 6.0, "WARN"),
)

_KINDS = ("availability", "latency", "error_rate")


@dataclass(frozen=True)
class SLO:
    """One declared objective.

    ``budget`` is the tolerated bad fraction: ``1 - objective`` for
    availability and latency, the threshold itself for ``error_rate``.
    """

    name: str
    kind: str  #: ``availability`` / ``latency`` / ``error_rate``
    objective: float  #: good fraction promised (e.g. 0.999)
    threshold_seconds: Optional[float] = None  #: latency SLOs only
    total_series: str = TOTAL_SERIES
    bad_series: str = BAD_SERIES
    histogram: str = LATENCY_HISTOGRAM

    @property
    def budget(self) -> float:
        """The tolerated bad fraction (burn rate 1.0 spends it on plan)."""
        return 1.0 - self.objective

    def describe(self) -> str:
        """One-line human rendering for reports and the CLI."""
        if self.kind == "latency":
            return (
                f"{self.objective:.1%} of requests under "
                f"{self.threshold_seconds}s"
            )
        if self.kind == "error_rate":
            return f"error rate below {self.budget:.2%}"
        return f"{self.objective:.2%} of requests succeed"


@dataclass(frozen=True)
class SLOConfig:
    """A parsed SLO file: the objectives plus the burn-window policy."""

    slos: Tuple[SLO, ...]
    windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS
    min_requests: float = 1.0  #: windows with less traffic never fire


@dataclass
class WindowStatus:
    """One evaluated window pair of one SLO."""

    name: str
    short_seconds: float
    long_seconds: float
    factor: float
    alert_state: str
    short_burn: float
    long_burn: float
    short_bad_fraction: float
    long_bad_fraction: float
    short_total: float
    long_total: float
    triggered: bool

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the ``/slo`` JSON document."""
        return {
            "name": self.name,
            "short_seconds": self.short_seconds,
            "long_seconds": self.long_seconds,
            "factor": self.factor,
            "alert_state": self.alert_state,
            "short_burn": round(self.short_burn, 4),
            "long_burn": round(self.long_burn, 4),
            "short_bad_fraction": round(self.short_bad_fraction, 6),
            "long_bad_fraction": round(self.long_bad_fraction, 6),
            "short_total": self.short_total,
            "long_total": self.long_total,
            "triggered": self.triggered,
        }


@dataclass
class SLOStatus:
    """One SLO's evaluated state plus its per-window evidence.

    ``exemplar_trace_ids`` names stored request traces that demonstrate
    the burn (slow requests for latency SLOs, errored requests for
    availability/error-rate SLOs) — the ids resolve through
    ``repro trace show`` against the serve process's trace store. They
    are only populated while the SLO is alerting.
    """

    slo: SLO
    state: str
    windows: List[WindowStatus] = field(default_factory=list)
    exemplar_trace_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the ``/slo`` JSON document."""
        return {
            "name": self.slo.name,
            "kind": self.slo.kind,
            "objective": self.slo.objective,
            "threshold_seconds": self.slo.threshold_seconds,
            "budget": self.slo.budget,
            "description": self.slo.describe(),
            "state": self.state,
            "windows": [w.to_dict() for w in self.windows],
            "exemplar_trace_ids": list(self.exemplar_trace_ids),
        }


@dataclass
class SLOReport:
    """Every SLO's status and the worst state across them."""

    statuses: List[SLOStatus]
    now: float
    source: str = "tsdb"  #: ``tsdb`` (windowed) or ``lifetime`` (snapshot)

    @property
    def state(self) -> str:
        """The worst state across all SLOs (``OK`` when none declared)."""
        worst = 0
        for status in self.statuses:
            worst = max(worst, STATES.index(status.state))
        return STATES[worst]

    def to_dict(self) -> Dict[str, object]:
        """The JSON document ``GET /slo`` serves and ``slo check`` reads."""
        return {
            "version": 1,
            "state": self.state,
            "now": self.now,
            "source": self.source,
            "slos": [s.to_dict() for s in self.statuses],
        }


def worst_state(states: Sequence[str]) -> str:
    """The most severe of ``states`` (``OK`` for an empty sequence)."""
    worst = 0
    for state in states:
        if state not in STATES:
            raise SLOError(f"unknown SLO state {state!r}")
        worst = max(worst, STATES.index(state))
    return STATES[worst]


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------
def parse_simple_yaml(text: str) -> object:
    """Parse the strict YAML subset the SLO config uses, stdlib-only.

    Supports nested mappings by 2-space-step indentation, ``- `` list
    items (scalar or mapping), scalars (int/float/bool/null, quoted or
    bare strings) and ``#`` comments. This is deliberately *not* general
    YAML — anchors, flow collections, multi-line strings and tabs are
    rejected — but it makes the SLO feature work in environments without
    PyYAML, and PyYAML is preferred whenever importable.
    """
    lines: List[Tuple[int, str]] = []
    for raw in text.splitlines():
        if "\t" in raw:
            raise SLOError("tabs are not allowed in SLO config indentation")
        stripped = raw.split("#", 1)[0].rstrip() if not _in_quotes(raw) else raw.rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        lines.append((indent, stripped.strip()))
    value, consumed = _parse_block(lines, 0, 0)
    if consumed != len(lines):
        raise SLOError(f"unparsed trailing content: {lines[consumed][1]!r}")
    return value


def _in_quotes(line: str) -> bool:
    """True when the line's ``#`` (if any) sits inside a quoted scalar."""
    hash_at = line.find("#")
    if hash_at < 0:
        return False
    return line[:hash_at].count('"') % 2 == 1 or line[:hash_at].count("'") % 2 == 1


def _parse_scalar(text: str) -> object:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("null", "~", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_block(
    lines: List[Tuple[int, str]], start: int, indent: int
) -> Tuple[object, int]:
    if start >= len(lines):
        return None, start
    if lines[start][1].startswith("- ") or lines[start][1] == "-":
        return _parse_list(lines, start, indent)
    return _parse_mapping(lines, start, indent)


def _parse_list(
    lines: List[Tuple[int, str]], start: int, indent: int
) -> Tuple[List[object], int]:
    items: List[object] = []
    i = start
    while i < len(lines):
        line_indent, content = lines[i]
        if line_indent < indent or not (
            content.startswith("- ") or content == "-"
        ):
            break
        if line_indent != indent:
            raise SLOError(f"inconsistent list indentation at {content!r}")
        rest = content[2:].strip() if content != "-" else ""
        if not rest:
            value, i = _parse_block(lines, i + 1, indent + 2)
            items.append(value)
        elif ":" in rest and not rest.startswith(("'", '"')):
            # '- key: value' opens a mapping item; deeper lines continue it
            item_lines = [(indent + 2, rest)]
            i += 1
            while i < len(lines) and lines[i][0] >= indent + 2:
                item_lines.append(lines[i])
                i += 1
            value, consumed = _parse_mapping(item_lines, 0, indent + 2)
            if consumed != len(item_lines):
                raise SLOError(
                    f"unparsed content in list item: {item_lines[consumed][1]!r}"
                )
            items.append(value)
        else:
            items.append(_parse_scalar(rest))
            i += 1
    return items, i


def _parse_mapping(
    lines: List[Tuple[int, str]], start: int, indent: int
) -> Tuple[Dict[str, object], int]:
    mapping: Dict[str, object] = {}
    i = start
    while i < len(lines):
        line_indent, content = lines[i]
        if line_indent < indent or content.startswith("- "):
            break
        if line_indent != indent:
            raise SLOError(f"inconsistent indentation at {content!r}")
        key, sep, rest = content.partition(":")
        if not sep:
            raise SLOError(f"expected 'key: value', got {content!r}")
        key = key.strip()
        rest = rest.strip()
        if rest:
            mapping[key] = _parse_scalar(rest)
            i += 1
        else:
            value, i = _parse_block(lines, i + 1, indent + 2)
            mapping[key] = value
    return mapping, i


def _load_config_text(path: Path) -> object:
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise SLOError(f"no such SLO config: {path}")
    except OSError as exc:
        raise SLOError(f"cannot read SLO config {path}: {exc}")
    if path.suffix == ".json":
        try:
            return json.loads(text)
        except ValueError as exc:
            raise SLOError(f"{path} is not valid JSON: {exc}")
    try:
        import yaml  # type: ignore[import-untyped]
    except ImportError:
        return parse_simple_yaml(text)
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:  # pragma: no cover - needs PyYAML present
        raise SLOError(f"{path} is not valid YAML: {exc}")


def _as_float(raw: object, what: str) -> float:
    try:
        return float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise SLOError(f"{what} must be a number, got {raw!r}")


def _parse_slo(entry: object, index: int) -> SLO:
    if not isinstance(entry, Mapping):
        raise SLOError(f"slos[{index}] must be a mapping, got {entry!r}")
    name = str(entry.get("name") or f"slo-{index}")
    kind = str(entry.get("kind", "availability"))
    if kind not in _KINDS:
        raise SLOError(
            f"slo {name!r}: unknown kind {kind!r} (expected one of {_KINDS})"
        )
    threshold = entry.get("threshold")
    if kind == "latency":
        if threshold is None:
            raise SLOError(f"slo {name!r}: latency SLOs need a threshold (seconds)")
        objective = _as_float(entry.get("objective", 0.95), f"slo {name!r} objective")
        threshold_seconds: Optional[float] = _as_float(
            threshold, f"slo {name!r} threshold"
        )
        if threshold_seconds <= 0:
            raise SLOError(f"slo {name!r}: threshold must be positive")
    elif kind == "error_rate":
        if threshold is None:
            raise SLOError(f"slo {name!r}: error_rate SLOs need a threshold")
        rate = _as_float(threshold, f"slo {name!r} threshold")
        if not 0 < rate < 1:
            raise SLOError(f"slo {name!r}: threshold must be in (0, 1)")
        objective = 1.0 - rate
        threshold_seconds = None
    else:
        objective = _as_float(entry.get("objective", 0.999), f"slo {name!r} objective")
        threshold_seconds = None
    if not 0 < objective < 1:
        raise SLOError(f"slo {name!r}: objective must be in (0, 1)")
    return SLO(
        name=name,
        kind=kind,
        objective=objective,
        threshold_seconds=threshold_seconds,
        total_series=str(entry.get("total_series", TOTAL_SERIES)),
        bad_series=str(entry.get("bad_series", BAD_SERIES)),
        histogram=str(entry.get("histogram", LATENCY_HISTOGRAM)),
    )


def _parse_windows(raw: object) -> Tuple[BurnWindow, ...]:
    if raw is None:
        return DEFAULT_WINDOWS
    if not isinstance(raw, Mapping):
        raise SLOError("windows must be a mapping of name -> {short,long,factor}")
    defaults = {w.name: w for w in DEFAULT_WINDOWS}
    windows: List[BurnWindow] = []
    for name, spec in raw.items():
        if not isinstance(spec, Mapping):
            raise SLOError(f"window {name!r} must be a mapping")
        base = defaults.get(str(name))
        state = str(spec.get("state", base.state if base else "WARN")).upper()
        if state not in STATES or state == "OK":
            raise SLOError(f"window {name!r}: state must be WARN or PAGE")
        short = _as_float(
            spec.get("short", base.short_seconds if base else None),
            f"window {name!r} short",
        )
        long_ = _as_float(
            spec.get("long", base.long_seconds if base else None),
            f"window {name!r} long",
        )
        factor = _as_float(
            spec.get("factor", base.factor if base else None),
            f"window {name!r} factor",
        )
        if short <= 0 or long_ <= short:
            raise SLOError(
                f"window {name!r}: need 0 < short < long, got {short}/{long_}"
            )
        windows.append(BurnWindow(str(name), short, long_, factor, state))
    if not windows:
        raise SLOError("windows mapping is empty")
    # PAGE-state windows evaluate first so reports read worst-first
    windows.sort(key=lambda w: -STATES.index(w.state))
    return tuple(windows)


def load_slo_config(path: Path | str) -> SLOConfig:
    """Load and validate an SLO config file (YAML or JSON).

    Raises :class:`SLOError` (one actionable line) on every failure mode:
    missing file, unreadable file, syntax errors, unknown kinds, out-of-
    range objectives, malformed windows.
    """
    path = Path(path)
    doc = _load_config_text(path)
    if not isinstance(doc, Mapping):
        raise SLOError(f"{path}: SLO config must be a mapping with an 'slos' list")
    raw_slos = doc.get("slos")
    if not isinstance(raw_slos, list) or not raw_slos:
        raise SLOError(f"{path}: config needs a non-empty 'slos' list")
    slos = tuple(_parse_slo(entry, i) for i, entry in enumerate(raw_slos))
    seen: Dict[str, int] = {}
    for slo in slos:
        seen[slo.name] = seen.get(slo.name, 0) + 1
    dupes = sorted(name for name, n in seen.items() if n > 1)
    if dupes:
        raise SLOError(f"{path}: duplicate SLO name(s): {dupes}")
    return SLOConfig(
        slos=slos,
        windows=_parse_windows(doc.get("windows")),
        min_requests=_as_float(doc.get("min_requests", 1.0), "min_requests"),
    )


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
class SLOEngine:
    """Evaluates a config's SLOs against a time-series store.

    One engine lives inside ``repro serve`` next to the
    :class:`~repro.obs.tsdb.Sampler`; :meth:`evaluate` is cheap (a few
    window sums per SLO) so ``GET /slo`` computes it per request.

    ``trace_store`` (a :class:`~repro.obs.tracestore.TraceStore`) is
    optional: when wired, alerting SLO statuses carry exemplar trace ids
    pulled from the kept traces — slow requests for latency SLOs,
    errored requests otherwise — linking the alert to root-cause traces.
    """

    def __init__(
        self,
        config: SLOConfig,
        store: TimeSeriesStore,
        trace_store: Optional[object] = None,
    ):
        self._config = config
        self._store = store
        self._trace_store = trace_store

    @property
    def config(self) -> SLOConfig:
        """The declared objectives and window policy."""
        return self._config

    @property
    def store(self) -> TimeSeriesStore:
        """The telemetry history the engine reads."""
        return self._store

    def _latency_good_series(self, slo: SLO) -> Optional[str]:
        """The cumulative ``:le:`` series covering the SLO's threshold.

        Picks the smallest histogram bound >= the threshold — the same
        conservative rounding a Prometheus ``histogram_quantile`` alert
        makes. Returns ``None`` when no finite bound covers it (every
        request then counts as good).
        """
        prefix = f"{slo.histogram}:le:"
        bounds: List[Tuple[float, str]] = []
        for name in self._store.series_names():
            if name.startswith(prefix):
                try:
                    bounds.append((float(name[len(prefix):]), name))
                except ValueError:
                    continue
        covering = sorted(
            (b, n) for b, n in bounds if b >= (slo.threshold_seconds or 0.0)
        )
        return covering[0][1] if covering else None

    def _window_totals(
        self, slo: SLO, seconds: float, now: float
    ) -> Tuple[float, float]:
        """``(total, bad)`` counts for one SLO over one trailing window."""
        if slo.kind == "latency":
            total = self._store.increase(f"{slo.histogram}:count", seconds, now)
            good_series = self._latency_good_series(slo)
            good = (
                self._store.increase(good_series, seconds, now)
                if good_series is not None
                else total
            )
            return total, max(0.0, total - good)
        total = self._store.increase(slo.total_series, seconds, now)
        bad = self._store.increase(slo.bad_series, seconds, now)
        return total, min(bad, total)

    def _evaluate_window(
        self, slo: SLO, window: BurnWindow, now: float
    ) -> WindowStatus:
        short_total, short_bad = self._window_totals(
            slo, window.short_seconds, now
        )
        long_total, long_bad = self._window_totals(slo, window.long_seconds, now)
        short_fraction = short_bad / short_total if short_total else 0.0
        long_fraction = long_bad / long_total if long_total else 0.0
        budget = slo.budget
        short_burn = short_fraction / budget if budget else 0.0
        long_burn = long_fraction / budget if budget else 0.0
        min_requests = self._config.min_requests
        triggered = (
            short_total >= min_requests
            and long_total >= min_requests
            and short_burn >= window.factor
            and long_burn >= window.factor
        )
        return WindowStatus(
            name=window.name,
            short_seconds=window.short_seconds,
            long_seconds=window.long_seconds,
            factor=window.factor,
            alert_state=window.state,
            short_burn=short_burn,
            long_burn=long_burn,
            short_bad_fraction=short_fraction,
            long_bad_fraction=long_fraction,
            short_total=short_total,
            long_total=long_total,
            triggered=triggered,
        )

    def _exemplars_for(self, slo: SLO, limit: int = 3) -> List[str]:
        """Trace ids from the trace store demonstrating this SLO's burn."""
        store = self._trace_store
        if store is None:
            return []
        if slo.kind == "latency":
            threshold = slo.threshold_seconds or 0.0
            records = [
                r for r in store.slowest(4 * limit) if r.seconds >= threshold
            ]
        else:
            records = store.errored(4 * limit)
        ids: List[str] = []
        for record in records:
            if record.request_id not in ids:
                ids.append(record.request_id)
            if len(ids) >= limit:
                break
        return ids

    def evaluate(self, now: Optional[float] = None) -> SLOReport:
        """Evaluate every SLO's window pairs; returns the full report."""
        now = time.time() if now is None else now
        statuses: List[SLOStatus] = []
        for slo in self._config.slos:
            windows = [
                self._evaluate_window(slo, window, now)
                for window in self._config.windows
            ]
            state = worst_state(
                [w.alert_state for w in windows if w.triggered] or ["OK"]
            )
            exemplars = self._exemplars_for(slo) if state != "OK" else []
            statuses.append(
                SLOStatus(
                    slo=slo,
                    state=state,
                    windows=windows,
                    exemplar_trace_ids=exemplars,
                )
            )
        return SLOReport(statuses=statuses, now=now, source="tsdb")


def evaluate_snapshot(
    config: SLOConfig, snapshot: Mapping[str, object], now: Optional[float] = None
) -> SLOReport:
    """Evaluate SLOs against a one-shot metrics snapshot (lifetime mode).

    A snapshot has no history, so every "window" is the process lifetime:
    the lifetime bad-fraction is compared against each window pair's
    factor exactly as the windowed path would. Coarser than the tsdb
    path, but it lets ``repro slo check metrics.json`` (any
    ``--metrics-out`` artifact) gate on the same objectives.
    """
    counters: Mapping[str, float] = snapshot.get("counters", {})  # type: ignore[assignment]
    histograms: Mapping[str, Mapping[str, object]] = snapshot.get("histograms", {})  # type: ignore[assignment]
    now = time.time() if now is None else now
    statuses: List[SLOStatus] = []
    for slo in config.slos:
        if slo.kind == "latency":
            hist = histograms.get(slo.histogram)
            if hist is None:
                total, bad = 0.0, 0.0
            else:
                total = float(hist["count"])  # type: ignore[arg-type]
                good = 0.0
                threshold = slo.threshold_seconds or 0.0
                running = 0.0
                bounds = list(hist["buckets"])  # type: ignore[arg-type]
                counts = list(hist["counts"])  # type: ignore[arg-type]
                covered = False
                for bound, count in zip(bounds, counts):
                    running += count
                    if float(bound) >= threshold:
                        good = running
                        covered = True
                        break
                bad = max(0.0, total - good) if covered else 0.0
        else:
            total = float(counters.get(slo.total_series, 0.0))
            bad = min(float(counters.get(slo.bad_series, 0.0)), total)
        fraction = bad / total if total else 0.0
        burn = fraction / slo.budget if slo.budget else 0.0
        windows: List[WindowStatus] = []
        for window in config.windows:
            triggered = total >= config.min_requests and burn >= window.factor
            windows.append(
                WindowStatus(
                    name=window.name,
                    short_seconds=window.short_seconds,
                    long_seconds=window.long_seconds,
                    factor=window.factor,
                    alert_state=window.state,
                    short_burn=burn,
                    long_burn=burn,
                    short_bad_fraction=fraction,
                    long_bad_fraction=fraction,
                    short_total=total,
                    long_total=total,
                    triggered=triggered,
                )
            )
        state = worst_state(
            [w.alert_state for w in windows if w.triggered] or ["OK"]
        )
        exemplars: List[str] = []
        if state != "OK" and slo.kind == "latency":
            exemplars = _snapshot_latency_exemplars(
                histograms.get(slo.histogram), slo.threshold_seconds or 0.0
            )
        statuses.append(
            SLOStatus(
                slo=slo, state=state, windows=windows, exemplar_trace_ids=exemplars
            )
        )
    return SLOReport(statuses=statuses, now=now, source="lifetime")


def _snapshot_latency_exemplars(
    hist: Optional[Mapping[str, object]], threshold: float, limit: int = 3
) -> List[str]:
    """Trace ids from snapshot histogram exemplars in over-threshold buckets."""
    if not hist:
        return []
    exemplars: Mapping[str, Mapping[str, object]] = hist.get("exemplars", {})  # type: ignore[assignment]
    if not exemplars:
        return []
    ids: List[str] = []
    # newest first: sort by the exemplar's wall-clock stamp, descending
    ordered = sorted(
        exemplars.values(),
        key=lambda entry: -float(entry.get("timestamp", 0.0)),  # type: ignore[arg-type]
    )
    for exemplar in ordered:
        # the exemplar remembers its observed value — filter precisely on
        # it rather than on the (coarser) bucket bound
        if float(exemplar.get("value", 0.0)) < threshold:  # type: ignore[arg-type]
            continue
        trace_id = str(exemplar.get("trace_id", ""))
        if trace_id and trace_id not in ids:
            ids.append(trace_id)
        if len(ids) >= limit:
            break
    return ids


def check_doc(doc: Mapping[str, object]) -> Tuple[int, List[str]]:
    """Turn an ``/slo`` document into ``(exit_code, report lines)``.

    Exit 0 for OK and WARN (warnings print, but only a PAGE should fail a
    gate), 1 on PAGE. Raises :class:`SLOError` when the document is not
    an SLO report.
    """
    if not isinstance(doc, Mapping) or "slos" not in doc or "state" not in doc:
        raise SLOError("not an SLO report (missing 'state'/'slos')")
    lines: List[str] = []
    for entry in doc["slos"]:  # type: ignore[union-attr]
        name = entry.get("name", "?")
        state = str(entry.get("state", "OK"))
        detail = entry.get("description", "")
        burns = ", ".join(
            f"{w['name']}={max(float(w['short_burn']), float(w['long_burn'])):.1f}x"
            for w in entry.get("windows", [])
        )
        line = f"{state:<4} {name}: {detail} (burn {burns or 'n/a'})"
        exemplars = entry.get("exemplar_trace_ids") or []
        if exemplars:
            line += f" exemplars: {','.join(str(e) for e in exemplars)}"
        lines.append(line)
    overall = str(doc["state"])
    if overall not in STATES:
        raise SLOError(f"unknown overall state {overall!r}")
    lines.append(f"overall: {overall} (source: {doc.get('source', '?')})")
    return (1 if overall == "PAGE" else 0), lines
