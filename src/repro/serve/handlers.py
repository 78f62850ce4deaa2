"""Endpoint logic of the query service, independent of the HTTP socket.

:class:`ServeApp` is the whole service behind one method —
:meth:`~ServeApp.dispatch` maps ``(method, path, params, body)`` to
``(status, content type, body, request id)`` — so the same code path is
driven by the real :class:`~repro.serve.server.QueryServer`, by the
in-process ``serve_latency`` benchmark, and by tests, without a socket in
sight. Endpoints:

* ``POST /query`` — run an analytical query; JSON in/out, results
  identical to the ``repro query`` CLI (same engine call, same report
  renderer). ``?trace=1`` embeds the request's own span tree as a Chrome
  ``trace_event`` document.
* ``POST /ingest`` — push an event batch into the live forest (NDJSON or
  JSON against the :mod:`repro.ingest.contract` event contract), when
  the server was started with ``--ingest``; 404 otherwise. Responds with
  per-batch accepted/rejected counts and the current staleness; answers
  429 when admission control sheds the batch. ``?flush=1`` closes the
  open day after the batch (drains, tests).
* ``GET /healthz`` — liveness: model digest, uptime, request totals,
  thread count.
* ``GET /metrics`` — the shared registry in Prometheus text exposition
  format; clients sending ``Accept: application/openmetrics-text`` get
  the OpenMetrics rendering with histogram exemplars instead.
* ``GET /slo`` — the burn-rate alert report (state OK/WARN/PAGE per
  declared SLO), when the server was started with ``--slo``; 404
  otherwise. See :mod:`repro.obs.slo`.
* ``GET /traces`` — summaries of the tail-sampled request traces kept
  in the trace store (slowest or most recent first), when tracing is
  wired; 404 otherwise. See :mod:`repro.obs.tracestore`.
* ``GET /profile`` — the continuous profiler's current-window summary
  (hottest frames, retained windows, pinned exemplars), when the server
  was started with ``--prof``; 404 otherwise.
  ``?format=collapsed`` renders flamegraph.pl-compatible collapsed
  stacks, ``?format=speedscope`` the speedscope JSON file format, and
  ``?window=<id>`` selects one retained/pinned window instead of the
  merged view. See :mod:`repro.obs.contprof`.

RED accounting (counters, latency histograms, sliding-window rates,
correlation ids, access log) is handled per request by
:class:`~repro.serve.context.RequestContext`. When a trace store is
wired, every request runs under a root ``serve.request`` span and its
span tree is offered to the tail sampler after completion — errored,
slow and head-sampled requests are kept.

The transport-facing entry point is :meth:`ServeApp.respond`, which
wraps :meth:`ServeApp.dispatch` with content negotiation (gzip for the
text-heavy ``/metrics``, ``/slo``, ``/traces`` and ``/profile`` bodies).
"""

from __future__ import annotations

import dataclasses
import gzip as gzip_module
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro import obs
from repro.analysis.report import build_report
from repro.core.query import STRATEGIES
from repro.obs.exporters import OPENMETRICS_TYPE
from repro.obs.metrics import LATENCY_BUCKETS
from repro.ingest.contract import ContractError, parse_body
from repro.ingest.engine import IngestEngine, IngestOverload
from repro.obs.contprof import ContinuousProfiler, collapse_text, speedscope_doc
from repro.obs.tracestore import TailSampler, TraceRecord, TraceStore
from repro.obs.tracing import to_chrome_trace
from repro.serve.context import RequestContext, sanitize_request_id
from repro.spatial.regions import QueryRegion

__all__ = ["ServeApp", "Response", "JSON_TYPE", "METRICS_TYPE"]

JSON_TYPE = "application/json; charset=utf-8"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Paths whose (large, text) responses are gzip-encoded on request.
GZIP_PATHS = ("/metrics", "/slo", "/traces", "/profile")


@dataclass
class Response:
    """A fully negotiated response as the HTTP transport sends it.

    :meth:`ServeApp.dispatch` keeps its 4-tuple contract for in-process
    callers; :meth:`ServeApp.respond` layers transport concerns on top —
    gzip content encoding — and returns this richer shape. ``headers``
    carries only the *extra* headers (e.g. ``Content-Encoding``); the
    transport always sets Content-Type/Content-Length/X-Request-Id.
    """

    status: int
    content_type: str
    payload: bytes
    request_id: str
    headers: Dict[str, str] = field(default_factory=dict)


def _accepts_gzip(accept_encoding: str) -> bool:
    """True when an ``Accept-Encoding`` header admits gzip (q != 0)."""
    for part in accept_encoding.split(","):
        token, _, params = part.partition(";")
        if token.strip().lower() not in ("gzip", "*"):
            continue
        q_value = 1.0
        for param in params.split(";"):
            key, _, value = param.partition("=")
            if key.strip().lower() == "q":
                try:
                    q_value = float(value.strip())
                except ValueError:
                    q_value = 0.0
        if q_value > 0:
            return True
    return False


class _ClientError(ValueError):
    """A request the client got wrong (rendered as HTTP 400)."""


def _json_bytes(payload: Mapping[str, object]) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode()


class ServeApp:
    """The query service's endpoint logic over one loaded engine.

    ``query_lock`` serializes ``engine.query`` calls (the engine shares a
    similarity cache across runs, which is not safe under concurrent
    mutation); :func:`~repro.storage.model_cache.load_engine_cached`
    supplies one per cached model. Everything else in the handler stack is
    reentrant, so health checks and scrapes never wait behind a query.
    """

    def __init__(
        self,
        engine,
        digest: str = "",
        model_dir: Optional[Path] = None,
        query_lock: Optional[threading.Lock] = None,
        default_limit: int = 10,
        slo_engine=None,
        trace_store: Optional[TraceStore] = None,
        tail_sampler: Optional[TailSampler] = None,
        ingest_engine: Optional[IngestEngine] = None,
        ingest_snapshot_dir: Optional[Path] = None,
        profiler: Optional[ContinuousProfiler] = None,
        tsdb_sampler=None,
    ):
        self._engine = engine
        self._slo_engine = slo_engine
        self._profiler = profiler
        self._tsdb_sampler = tsdb_sampler
        self._ingest = ingest_engine
        self._ingest_snapshot_dir = (
            Path(ingest_snapshot_dir) if ingest_snapshot_dir is not None else None
        )
        self._trace_store = trace_store
        self._tail_sampler = tail_sampler or TailSampler()
        self._digest = digest
        self._model_dir = Path(model_dir) if model_dir is not None else None
        self._query_lock = query_lock if query_lock is not None else threading.Lock()
        self._default_limit = default_limit
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self._stats_lock = threading.Lock()
        self._served = 0
        self._errors = 0
        self._in_flight = 0
        forest_stats = engine.forest.stats()
        self._micro_clusters = forest_stats.num_micro
        self._built_days = len(engine.built_days)

    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The loaded :class:`~repro.analysis.engine.AnalysisEngine`."""
        return self._engine

    @property
    def model_digest(self) -> str:
        """SHA-256 digest of the served model files ('' when in-memory)."""
        return self._digest

    def uptime_seconds(self) -> float:
        """Seconds since the app was constructed (monotonic clock)."""
        return time.monotonic() - self._started_mono

    @property
    def trace_store(self) -> Optional[TraceStore]:
        """The tail-sampled trace store, or ``None`` when tracing is off."""
        return self._trace_store

    @property
    def profiler(self) -> Optional[ContinuousProfiler]:
        """The continuous profiler, or ``None`` when profiling is off."""
        return self._profiler

    # ------------------------------------------------------------------
    def dispatch(
        self,
        method: str,
        path: str,
        params: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
        request_id: Optional[str] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, str, bytes, str]:
        """Route one request; returns ``(status, content_type, body, id)``.

        ``params`` are the decoded query-string parameters; ``request_id``
        honors a client-supplied ``X-Request-Id`` header after
        :func:`~repro.serve.context.sanitize_request_id` clamps it (log
        injection, unbounded cardinality). ``headers`` (lower-cased keys)
        drive content negotiation — the ``Accept`` header can select the
        OpenMetrics rendering of ``/metrics``. All endpoint and error
        handling funnels through here so the RED metrics and access log
        see every request exactly once; with a trace store wired, the
        request's span tree is offered to the tail sampler afterwards.
        """
        params = dict(params or {})
        header_map = {
            str(k).lower(): str(v) for k, v in dict(headers or {}).items()
        }
        endpoint = {
            "/query": "query",
            "/ingest": "ingest",
            "/healthz": "healthz",
            "/metrics": "metrics",
            "/slo": "slo",
            "/traces": "traces",
            "/profile": "profile",
        }.get(path, "other")
        clean_id = sanitize_request_id(request_id)
        ctx = RequestContext(
            method=method,
            path=path,
            endpoint=endpoint,
            **({"request_id": clean_id} if clean_id else {}),
        )
        capture = self._trace_store is not None and obs.enabled()
        if capture:
            registry = obs.registry()
            mark_count = registry.span_count
            mark_dropped = registry.spans_dropped
        with self._stats_lock:
            self._in_flight += 1
        try:
            with ctx:
                with obs.span(
                    "serve.request", endpoint=endpoint, method=method
                ) as root:
                    status, content_type, payload = self._route(
                        ctx, method, path, endpoint, params, body, header_map
                    )
                    root.set(status=status)
                ctx.status = status
        finally:
            with self._stats_lock:
                self._in_flight -= 1
                self._served += 1
                if status >= 400:
                    self._errors += 1
        if capture:
            self._capture_trace(ctx, status, mark_count, mark_dropped)
        return status, content_type, payload, ctx.request_id

    def respond(
        self,
        method: str,
        path: str,
        params: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
        request_id: Optional[str] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Response:
        """Dispatch plus transport negotiation; what the HTTP server calls.

        On top of :meth:`dispatch`, gzip-encodes the text-heavy
        ``/metrics`` / ``/slo`` / ``/traces`` bodies when the client's
        ``Accept-Encoding`` admits it (scrape payloads have grown large),
        reporting the extra ``Content-Encoding`` / ``Vary`` headers in
        the returned :class:`Response`.
        """
        header_map = {
            str(k).lower(): str(v) for k, v in dict(headers or {}).items()
        }
        status, content_type, payload, rid = self.dispatch(
            method, path, params, body, request_id=request_id, headers=header_map
        )
        extra: Dict[str, str] = {}
        if (
            status == 200
            and path in GZIP_PATHS
            and _accepts_gzip(header_map.get("accept-encoding", ""))
        ):
            payload = gzip_module.compress(payload)
            extra["Content-Encoding"] = "gzip"
            extra["Vary"] = "Accept-Encoding"
        return Response(status, content_type, payload, rid, extra)

    def _capture_trace(
        self,
        ctx: RequestContext,
        status: int,
        mark_count: int,
        mark_dropped: int,
    ) -> None:
        """Offer a finished request to the tail sampler; store when kept.

        ``mark_count``/``mark_dropped`` were taken before the request
        ran: the scan covers only spans recorded since (adjusted for any
        ``span_limit`` eviction in between), then the correlation-id
        filter drops concurrent requests' spans from the same interval.
        Storage failures are logged, never fatal — tracing must not take
        the daemon down.
        """
        seconds = time.perf_counter() - ctx.started
        reasons = self._tail_sampler.decide(ctx.request_id, status, seconds)
        obs.counter("trace.requests").inc()
        if not reasons:
            obs.counter("trace.dropped").inc()
            return
        registry = obs.registry()
        start_index = max(
            0, mark_count - (registry.spans_dropped - mark_dropped)
        )
        spans = [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "depth": s.depth,
                "start": s.start,
                "seconds": s.seconds,
                "attrs": dict(s.attrs),
            }
            for s in registry.spans_tail(start_index)
            if s.attrs.get("request_id") == ctx.request_id
        ]
        record = TraceRecord(
            request_id=ctx.request_id,
            endpoint=ctx.endpoint,
            status=status,
            seconds=seconds,
            start=time.time() - seconds,
            reasons=reasons,
            spans=spans,
        )
        try:
            self._trace_store.add(record)
        except Exception:  # noqa: BLE001 — tracing must not kill serve
            obs.get_logger("repro.serve").exception(
                "trace store append failed",
                extra={"request_id": ctx.request_id},
            )
            return
        obs.counter("trace.kept").inc()

    def _route(
        self,
        ctx: RequestContext,
        method: str,
        path: str,
        endpoint: str,
        params: Mapping[str, str],
        body: bytes,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, str, bytes]:
        """Resolve the endpoint and translate failures to status codes."""
        headers = headers or {}
        try:
            if endpoint == "query":
                if method != "POST":
                    return self._error(ctx, 405, "POST required for /query")
                return 200, JSON_TYPE, self._handle_query(ctx, params, body)
            if endpoint == "ingest":
                if method != "POST":
                    return self._error(ctx, 405, "POST required for /ingest")
                if self._ingest is None:
                    return self._error(
                        ctx, 404, "ingest is not enabled (start serve with --ingest)"
                    )
                return 200, JSON_TYPE, self._handle_ingest(ctx, params, body, headers)
            if endpoint == "healthz":
                if method != "GET":
                    return self._error(ctx, 405, "GET required for /healthz")
                return 200, JSON_TYPE, _json_bytes(self.health())
            if endpoint == "metrics":
                if method != "GET":
                    return self._error(ctx, 405, "GET required for /metrics")
                if "application/openmetrics-text" in headers.get("accept", ""):
                    return (
                        200,
                        OPENMETRICS_TYPE,
                        self.openmetrics_text().encode(),
                    )
                return 200, METRICS_TYPE, self.metrics_text().encode()
            if endpoint == "slo":
                if method != "GET":
                    return self._error(ctx, 405, "GET required for /slo")
                if self._slo_engine is None:
                    return self._error(
                        ctx, 404, "no SLO config loaded (start serve with --slo)"
                    )
                return 200, JSON_TYPE, _json_bytes(self.slo_report())
            if endpoint == "traces":
                if method != "GET":
                    return self._error(ctx, 405, "GET required for /traces")
                if self._trace_store is None:
                    return self._error(
                        ctx, 404, "request tracing is not enabled on this server"
                    )
                return 200, JSON_TYPE, _json_bytes(self.traces_doc(params))
            if endpoint == "profile":
                if method != "GET":
                    return self._error(ctx, 405, "GET required for /profile")
                if self._profiler is None:
                    return self._error(
                        ctx,
                        404,
                        "continuous profiling is not enabled "
                        "(start serve with --prof)",
                    )
                content_type, payload = self.profile_payload(params)
                return 200, content_type, payload
            return self._error(ctx, 404, f"no such endpoint: {path}")
        except _ClientError as exc:
            return self._error(ctx, 400, str(exc))
        except IngestOverload as exc:
            return self._error(ctx, 429, str(exc))
        except Exception as exc:  # noqa: BLE001 — the daemon must not die
            obs.get_logger("repro.serve").exception(
                "request failed",
                extra={"request_id": ctx.request_id, "path": path},
            )
            return self._error(ctx, 500, f"{type(exc).__name__}: {exc}")

    def _error(
        self, ctx: RequestContext, status: int, message: str
    ) -> Tuple[int, str, bytes]:
        payload = {"error": message, "request_id": ctx.request_id}
        return status, JSON_TYPE, _json_bytes(payload)

    # ------------------------------------------------------------------
    # POST /query
    # ------------------------------------------------------------------
    def _parse_query_body(self, body: bytes) -> Dict[str, object]:
        try:
            parsed = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _ClientError(f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise _ClientError("request body must be a JSON object")
        allowed = {
            "first_day", "days", "strategy", "delta_s", "final_check",
            "sensors", "limit", "explain",
        }
        unknown = sorted(set(parsed) - allowed)
        if unknown:
            raise _ClientError(
                f"unknown field(s) {unknown}; allowed: {sorted(allowed)}"
            )
        return parsed

    def _handle_query(
        self, ctx: RequestContext, params: Mapping[str, str], body: bytes
    ) -> bytes:
        spec = self._parse_query_body(body)
        try:
            first_day = int(spec.get("first_day", 0))
            num_days = int(spec.get("days", 7))
            limit = int(spec.get("limit", self._default_limit))
        except (TypeError, ValueError):
            raise _ClientError("first_day, days and limit must be integers")
        strategy = str(spec.get("strategy", "gui"))
        if strategy not in STRATEGIES:
            raise _ClientError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if num_days < 1:
            raise _ClientError("days must be at least 1")
        delta_s = spec.get("delta_s")
        final_check = bool(spec.get("final_check", False))
        want_explain = bool(spec.get("explain", False))
        want_trace = str(params.get("trace", "")) in ("1", "true", "yes")

        sensors = spec.get("sensors")
        if sensors is None:
            region = self._engine.whole_city()
        else:
            if not isinstance(sensors, list) or not sensors:
                raise _ClientError("sensors must be a non-empty list of ids")
            try:
                region = QueryRegion("request", (int(s) for s in sensors))
            except (TypeError, ValueError):
                raise _ClientError("sensors must be integers")

        trace_mark = len(obs.registry().spans) if want_trace else 0
        started = time.perf_counter()
        with self._query_lock:
            try:
                result = self._engine.query(
                    region,
                    first_day,
                    num_days,
                    strategy=strategy,
                    final_check=final_check,
                    delta_s=float(delta_s) if delta_s is not None else None,
                    explain=True,
                )
            except ValueError as exc:
                # unbuilt days, bad ranges: the request's fault, not ours
                raise _ClientError(str(exc))
        elapsed = time.perf_counter() - started
        if obs.enabled():
            obs.histogram("serve.query_seconds", LATENCY_BUCKETS).observe(
                elapsed, exemplar=ctx.request_id
            )

        report = build_report(
            result,
            self._engine.network,
            self._engine.forest.window_spec,
            limit=limit,
        )
        payload: Dict[str, object] = {
            "request_id": ctx.request_id,
            "strategy": strategy,
            "first_day": first_day,
            "num_days": num_days,
            "region": region.name,
            "region_sensors": len(region),
            "final_check": final_check,
            "returned": len(result.returned),
            "stats": dataclasses.asdict(result.stats),
            "clusters": [dataclasses.asdict(c) for c in report.clusters],
            "report": report.to_text(),
        }
        if want_explain and result.explain is not None:
            payload["explain"] = result.explain.to_dict()
        if want_trace:
            payload["trace"] = self._request_trace(ctx.request_id, trace_mark)
        return _json_bytes(payload)

    # ------------------------------------------------------------------
    # POST /ingest
    # ------------------------------------------------------------------
    def _handle_ingest(
        self,
        ctx: RequestContext,
        params: Mapping[str, str],
        body: bytes,
        headers: Mapping[str, str],
    ) -> bytes:
        """Apply one event batch to the live forest; see module docstring.

        The body is NDJSON by default; ``Content-Type: application/json``
        selects the JSON document form. Contract violations of individual
        events are counted in the response, an unusable envelope is a 400,
        and admission-control shedding surfaces as 429 through
        :class:`~repro.ingest.engine.IngestOverload` in :meth:`_route`.

        With ``--ingest-snapshot-dir`` configured, a batch that closes
        one or more days also publishes an atomic snapshot before
        responding (day closes are rare — once per stream-day — so the
        latency lands on the batch that earned it).
        """
        try:
            rows, rejected = parse_body(body, headers.get("content-type", ""))
        except ContractError as exc:
            raise _ClientError(str(exc))
        flush = str(params.get("flush", "")) in ("1", "true", "yes")
        started = time.perf_counter()
        result = self._ingest.add_events(rows, flush=flush)
        result.rejected.update(rejected)
        self._ingest.note_rejections(rejected)
        snapshot: Optional[Path] = None
        if self._ingest_snapshot_dir is not None and result.closed_days:
            snapshot = self._ingest.snapshot(self._ingest_snapshot_dir)
        elapsed = time.perf_counter() - started
        if obs.enabled():
            obs.histogram("serve.ingest_seconds", LATENCY_BUCKETS).observe(
                elapsed, exemplar=ctx.request_id
            )
        payload: Dict[str, object] = {"request_id": ctx.request_id}
        payload.update(result.to_dict())
        payload["built_days"] = len(self._engine.built_days)
        if snapshot is not None:
            payload["snapshot"] = str(snapshot)
        return _json_bytes(payload)

    def _request_trace(self, request_id: str, mark: int) -> Dict[str, object]:
        """This request's spans (by correlation id) as a Chrome trace.

        ``mark`` bounds the scan to spans recorded since the request
        started; the correlation-id filter then drops concurrent
        requests' spans that landed in the same interval.
        """
        if not obs.enabled():
            return {"traceEvents": [], "disabled": True}
        snapshot_spans = [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "depth": s.depth,
                "start": s.start,
                "seconds": s.seconds,
                "attrs": dict(s.attrs),
            }
            for s in obs.registry().spans[mark:]
            if s.attrs.get("request_id") == request_id
        ]
        return to_chrome_trace({"spans": snapshot_spans}, process_name=request_id)

    # ------------------------------------------------------------------
    # GET /healthz and /metrics
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """The liveness document served on ``/healthz``.

        With ingest enabled the model counts are read live (the forest
        grows mid-stream). The ``subsystems`` block reports every
        optional background subsystem — tsdb sampler, trace store,
        continuous profiler, live ingest — in one uniform shape:
        ``enabled``, ``segments`` on disk, ``last_flush_age_seconds``,
        plus a few subsystem-specific operational fields.
        """
        with self._stats_lock:
            served, errors, in_flight = self._served, self._errors, self._in_flight
        built_days, micro_clusters = self._built_days, self._micro_clusters
        if self._ingest is not None:
            built_days = len(self._engine.built_days)
            micro_clusters = self._engine.forest.stats().num_micro
        doc: Dict[str, object] = {
            "status": "ok",
            "model": {
                "dir": str(self._model_dir) if self._model_dir else None,
                "digest": self._digest or None,
                "built_days": built_days,
                "micro_clusters": micro_clusters,
            },
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "started_unix": self._started_wall,
            "requests": {
                "served": served,
                "errors": errors,
                "in_flight": in_flight,
            },
            "threads": threading.active_count(),
            "pid": os.getpid(),
            "observability": obs.enabled(),
        }
        doc["subsystems"] = self.subsystems()
        return doc

    def subsystems(self) -> Dict[str, Dict[str, object]]:
        """Uniform per-subsystem health: the ``/healthz`` subsystems block.

        Every optional background subsystem answers the same three
        operator questions — is it on, is it flushing, how much is on
        disk — whether or not it is enabled, so dashboards and runbooks
        can key on a stable shape. The segment-backed ones take
        ``segments`` and ``last_flush_age_seconds`` from
        :meth:`repro.obs.segmentlog.SegmentLog.health`.
        """

        def block(enabled: bool, log=None, **extra) -> Dict[str, object]:
            health = (
                log.health()
                if log is not None
                else {"segments": 0, "last_flush_age_seconds": None}
            )
            return {"enabled": enabled, **health, **extra}

        tsdb = block(False)
        if self._tsdb_sampler is not None:
            store = self._tsdb_sampler.store
            tsdb = block(
                True,
                store.log,
                interval_seconds=self._tsdb_sampler.interval,
                samples=store.samples,
                series=len(store.series_names()),
            )
        traces = block(False)
        if self._trace_store is not None:
            traces = block(
                True,
                self._trace_store.log,
                kept=self._trace_store.added,
                count=len(self._trace_store),
            )
        profiler = block(False)
        if self._profiler is not None:
            profiler = block(True, self._profiler.log, **self._profiler.stats())
        ingest = block(self._ingest is not None)
        if self._ingest is not None:
            stats = self._ingest.stats()
            ingest.update(stats)
            staleness = stats.get("staleness_seconds")
            ingest["last_flush_age_seconds"] = staleness
        return {
            "tsdb": tsdb,
            "traces": traces,
            "profiler": profiler,
            "ingest": ingest,
        }

    def metrics_text(self) -> str:
        """The shared registry rendered in Prometheus exposition format."""
        return obs.to_prometheus_text(obs.registry().snapshot())

    def openmetrics_text(self) -> str:
        """The registry rendered as OpenMetrics text (with exemplars)."""
        return obs.to_openmetrics_text(obs.registry().snapshot())

    def slo_report(self) -> Dict[str, object]:
        """The burn-rate report served on ``/slo`` (requires an engine)."""
        if self._slo_engine is None:
            raise RuntimeError("no SLO engine configured")
        return self._slo_engine.evaluate().to_dict()

    def traces_doc(self, params: Mapping[str, str]) -> Dict[str, object]:
        """The trace-summary document served on ``/traces``.

        ``?limit=N`` caps the rows (default 50), ``?sort=duration``
        (default) orders slowest-first, ``?sort=recent`` newest-first.
        """
        if self._trace_store is None:
            raise RuntimeError("no trace store configured")
        try:
            limit = int(params.get("limit", 50))
        except (TypeError, ValueError):
            raise _ClientError("limit must be an integer")
        sort = str(params.get("sort", "duration"))
        if sort not in ("duration", "recent"):
            raise _ClientError("sort must be 'duration' or 'recent'")
        if sort == "recent":
            records = self._trace_store.recent(limit)
        else:
            records = self._trace_store.slowest(limit)
        return {
            "version": 1,
            "kept": self._trace_store.added,
            "count": len(self._trace_store),
            "sort": sort,
            "traces": [record.summary() for record in records],
        }

    def profile_payload(
        self, params: Mapping[str, str]
    ) -> Tuple[str, bytes]:
        """The ``/profile`` body in the negotiated format.

        ``?format=summary`` (default) is the JSON summary document,
        ``collapsed`` the flamegraph.pl text, ``speedscope`` the
        speedscope JSON file. ``?window=<id>`` selects one retained or
        pinned window; the default merges everything still in memory so
        a just-rotated window never renders empty.
        """
        if self._profiler is None:
            raise RuntimeError("no profiler configured")
        fmt = str(params.get("format", "summary"))
        if fmt not in ("summary", "collapsed", "speedscope"):
            raise _ClientError(
                "format must be 'summary', 'collapsed' or 'speedscope'"
            )
        window_id = params.get("window") or None
        if fmt == "summary" and window_id is None:
            return JSON_TYPE, _json_bytes(self._profiler.profile_doc())
        try:
            window = self._profiler.merged(window_id)
        except KeyError:
            raise _ClientError(f"no such profile window: {window_id}")
        if fmt == "collapsed":
            return "text/plain; charset=utf-8", collapse_text(window).encode()
        if fmt == "speedscope":
            return JSON_TYPE, _json_bytes(speedscope_doc(window))
        doc = window.summary()
        doc["top"] = window.top_frames(10)
        return JSON_TYPE, _json_bytes(doc)
