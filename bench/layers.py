"""The traced runs behind ``--trace``: where each workload's time goes.

The same request lists as the end-to-end runs are replayed in this
process, one thread, through the layers' public entry points, with
:mod:`bench.trace` wrapped around the calls each layer makes into the
next. Transport and queueing — which only exist between processes — come
from short HTTP phases against a real server: 1 client versus the
in-process replay, and 2 clients versus 1.

Each function returns ``{layer metric: value}``; ``run.py`` reports a
layer a workload never enters as 0.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from bench import e2e, inputs
from bench.loadgen import (
    OUT,
    Request,
    Server,
    child_env,
    closed_loop,
    median,
    percentile,
    wait_until_ready,
)
from bench.trace import Tracer, count_total, duration_ms, per_request, self_times

KEEPALIVE_GETS = 30
#: ``repro query --days 7``: the one-shot CLI query a cold start is compared to.
ONESHOT_QUERY_DAYS = 7


def _ms(samples) -> float:
    values = [s.ms for s in samples if s.ok]
    return median(values) if values else 0.0


def keepalive_get_ms(server: Server) -> float:
    """Median ``GET /healthz`` on one persistent connection."""
    conn = server.connect()
    try:
        times = []
        for _ in range(KEEPALIVE_GETS):
            started = time.perf_counter()
            conn.request("GET", "/healthz")
            times.append((time.perf_counter() - started) * 1e3)
    finally:
        conn.close()
    return median(times)


# ----------------------------------------------------------------------
# The serving stack, in process
# ----------------------------------------------------------------------
def load_app(data: Path, model: Path):
    """A ``ServeApp`` wired the way ``repro serve`` wires it with default
    flags (metrics registry, trace store, tail sampler), over a fresh load
    of ``model``. Returns ``(app, registry)``."""
    from repro import obs
    from repro.analysis.engine import EngineConfig
    from repro.obs.tracestore import TailSampler, TraceStore
    from repro.serve import ServeApp
    from repro.simulate.generator import TrafficSimulator
    from repro.storage.model_cache import clear_model_cache, load_engine_cached

    clear_model_cache()
    simulator = TrafficSimulator.from_catalog_dir(data)
    cached = load_engine_cached(
        model, simulator.network, simulator.districts(), EngineConfig()
    )
    app = ServeApp(
        cached.engine,
        digest=cached.digest,
        model_dir=cached.model_dir,
        query_lock=cached.query_lock,
        trace_store=TraceStore(),
        tail_sampler=TailSampler(latency_threshold=0.5, head_rate=10),
    )
    return app, obs.MetricsRegistry(span_limit=10_000)


def dispatch(app, request: Request) -> Tuple[int, bytes]:
    path, _, query = request.path.partition("?")
    params = dict(pair.split("=", 1) for pair in query.split("&") if pair)
    status, _, payload, _ = app.dispatch(
        request.method, path, params, request.body,
        headers={"Content-Type": request.content_type},
    )
    return status, payload


def replay(app, registry, requests: Sequence[Request], collecting: bool = True,
           tracer: Tracer | None = None) -> List[float]:
    """Dispatch ``requests`` in order; returns each one's milliseconds."""
    from repro import obs

    times: List[float] = []
    with obs.activate(registry, collecting=collecting):
        for index, request in enumerate(requests):
            if tracer is None:
                started = time.perf_counter()
                status, _ = dispatch(app, request)
                times.append((time.perf_counter() - started) * 1e3)
            else:
                with tracer.request(f"{index}:{request.key}"):
                    with tracer.span("serve.handlers.dispatch") as span:
                        status, _ = dispatch(app, request)
                times.append((span["end"] - span["start"]) * 1e3)
            if status != 200:
                raise RuntimeError(f"{request.key}: in-process dispatch returned {status}")
    return times


def wrap_query_path(tracer: Tracer, app) -> None:
    """Spans at every boundary a ``/query`` crosses below ``dispatch``."""
    import repro.core.query as core_query
    import repro.serve.handlers as handlers
    from repro.analysis.engine import AnalysisEngine
    from repro.core.integration import ClusterIntegrator

    forest = app.engine.forest
    day_sizes: Dict[int, int] = {}

    def select_counts(args, kwargs, result):
        # sized after the call, when the days' column groups are loaded
        # anyway, so counting never adds to bytes_loaded
        for day in args[1]:
            if day not in day_sizes:
                day_sizes[day] = len(forest.day_clusters(day))
        return {
            "scanned": sum(day_sizes[day] for day in args[1]),
            "returned": len(result),
        }

    def integrate_counts(args, kwargs, result):
        return {
            "comparisons": result.comparisons,
            "merges": result.merges,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        }

    tracer.wrap(AnalysisEngine, "query", "analysis.engine.query")
    tracer.wrap(type(forest), "micro_clusters", "core.forest.select", select_counts)
    tracer.wrap(core_query, "compute_red_zones", "core.redzone.filter")
    tracer.wrap(
        core_query, "filter_by_red_zones", "core.redzone.filter",
        lambda args, kwargs, result: {"pruned": result[1], "kept": len(result[0])},
    )
    tracer.wrap(ClusterIntegrator, "integrate", "core.integration.integrate", integrate_counts)
    tracer.wrap(handlers, "build_report", "analysis.report.build")


def query_layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-request medians of the query-path spans."""
    def med(name: str, value=duration_ms) -> float:
        values = per_request(spans, name, value)
        return median(values.values()) if values else 0.0

    def count(key: str):
        return lambda span: span["counts"].get(key, 0)

    own = self_times(spans)
    attributed = {
        "core.forest.select", "core.redzone.filter",
        "core.integration.integrate", "analysis.report.build",
    }
    # per request: dispatch minus its own self time minus the named stages
    # = time inside the engine that no stage span claims
    loose: Dict[object, float] = {}
    for span in spans:
        seconds = span["end"] - span["start"]
        if span["name"] == "serve.handlers.dispatch":
            loose[span["request"]] = loose.get(span["request"], 0.0) + seconds - own[span["id"]]
        elif span["name"] in attributed:
            loose[span["request"]] = loose.get(span["request"], 0.0) - seconds
    hits = count_total(spans, "core.integration.integrate", "cache_hits")
    misses = count_total(spans, "core.integration.integrate", "cache_misses")
    pruned = count_total(spans, "core.redzone.filter", "pruned")
    kept = count_total(spans, "core.redzone.filter", "kept")
    return {
        "serve.handlers.dispatch_ms": med("serve.handlers.dispatch"),
        "serve.handlers.self_ms": med("serve.handlers.dispatch", lambda span: own[span["id"]] * 1e3),
        "analysis.engine.query_ms": med("analysis.engine.query"),
        "core.forest.select_ms": med("core.forest.select"),
        "core.forest.select_scanned": med("core.forest.select", count("scanned")),
        "core.forest.select_returned": med("core.forest.select", count("returned")),
        "core.redzone.filter_ms": med("core.redzone.filter"),
        "core.redzone.pruned_share": pruned / (pruned + kept) if pruned + kept else 0.0,
        "core.integration.integrate_ms": med("core.integration.integrate"),
        "core.integration.comparisons": med("core.integration.integrate", count("comparisons")),
        "core.integration.merges": med("core.integration.integrate", count("merges")),
        "core.integration.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "analysis.report.build_ms": med("analysis.report.build"),
        "analysis.engine.unattributed_ms": median([v * 1e3 for v in loose.values()]) if loose else 0.0,
    }


def _query_layers(name: str, seed: int, seconds: float, make_requests) -> Dict[str, float]:
    work = e2e.fresh_dir(OUT / name)
    data, _ = e2e.generate_catalog(work, months=1)
    model = work / "model"
    e2e.build_model(data, model, inputs.QUERY_MODEL_DAYS, work / "build.log")
    requests, warm = make_requests(data, seed)
    phase = seconds / 4.0

    server = Server(data, model, name=f"{name}.trace.serve")
    try:
        wait_until_ready(server, e2e.healthy)
        e2e.warm_up(server, warm)
        keepalive = keepalive_get_ms(server)
        one = closed_loop(server, requests, clients=1, seconds=phase)
        # every later phase replays exactly the requests this one completed
        count = len(one.samples)
        two = closed_loop(server, requests, clients=2, count=count)
    finally:
        server.stop()
    replayed = [requests[i % len(requests)] for i in range(count)]

    # five passes over the same requests — obs on, off, traced, off, on —
    # so a slow stretch of the host lands on both sides of each ratio
    app, registry = load_app(data, model)
    replay(app, registry, warm)
    plain = replay(app, registry, replayed)
    quiet = replay(app, registry, replayed, collecting=False)
    tracer = Tracer()
    wrap_query_path(tracer, app)
    try:
        traced = replay(app, registry, replayed, tracer=tracer)
    finally:
        tracer.unwrap_all()
    quiet += replay(app, registry, replayed, collecting=False)
    plain += replay(app, registry, replayed)
    tracer.write(OUT / f"trace-{name}.json")
    io = app.engine.forest.io_stats()

    metrics = query_layer_metrics(tracer.spans)
    metrics.update({
        "serve.server.transport_ms": _ms(one.samples) - median(plain),
        "serve.server.keepalive_get_ms": keepalive,
        "serve.handlers.queue_ms": _ms(two.samples) - _ms(one.samples),
        "obs.overhead_ratio": median(plain) / median(quiet),
        "trace.overhead_ratio": median(traced) / median(plain),
        "storage.columnar.bytes_loaded": io["bytes_loaded"],
        "storage.columnar.groups_loaded": io["groups_loaded"],
    })
    shutil.rmtree(data, ignore_errors=True)
    return metrics


def query_wide(seed: int, seconds: float) -> Dict[str, float]:
    return _query_layers("query_wide", seed, seconds, e2e.wide_queries)


def dashboard_poll(seed: int, seconds: float) -> Dict[str, float]:
    return _query_layers("dashboard_poll", seed, seconds, e2e.dashboard_panels)


# ----------------------------------------------------------------------
# ingest_backfill
# ----------------------------------------------------------------------
def ingest_backfill(seed: int, seconds: float) -> Dict[str, float]:
    from repro import obs
    from repro.analysis.engine import AnalysisEngine, EngineConfig
    from repro.core.forest import AtypicalForest
    from repro.core.integration import ClusterIntegrator
    from repro.core.streaming import OnlineEventTracker
    from repro.ingest.contract import parse_body
    from repro.ingest.engine import IngestEngine
    from repro.simulate.generator import TrafficSimulator
    from repro.storage.catalog import DatasetCatalog

    name = "ingest_backfill"
    work = e2e.fresh_dir(OUT / name)
    data, _ = e2e.generate_catalog(work, months=2)
    model = work / "model"
    base = inputs.INGEST_BASE_DAYS
    e2e.build_model(data, model, base, work / "build.log", e2e.INGEST_BUILD_FLAGS)
    polls, by_day = e2e.ingest_inputs(data, seed, seconds)

    # the end-to-end arrangement, for half the time: poller beside replay
    snapshots = e2e.fresh_dir(work / "snapshots")
    server = Server(data, model, ("--ingest", "--ingest-snapshot-dir", str(snapshots)),
                    name=f"{name}.trace.serve")
    try:
        wait_until_ready(server, e2e.healthy)
        keepalive = keepalive_get_ms(server)
        run = e2e.replay_ingest(server, polls, by_day, seconds / 2.0)
    finally:
        server.stop()
    http_plain, _ = e2e.split_batches([s for s, _ in run.batches])
    polled = [s.ms for s in run.poller.samples if s.ok]

    # the same days through parse_body + IngestEngine, traced
    simulator = TrafficSimulator.from_catalog_dir(data)

    def fresh_engine() -> AnalysisEngine:
        return AnalysisEngine.load(model, simulator.network, simulator.districts(), EngineConfig())

    engine = fresh_engine()
    ingest = IngestEngine(engine)
    inproc_snapshots = e2e.fresh_dir(work / "snapshots-inproc")
    tracer = Tracer()
    tracer.wrap(OnlineEventTracker, "push_window", "core.streaming.push_window")
    tracer.wrap(ClusterIntegrator, "integrate", "core.integration.integrate")
    tracer.wrap(AtypicalForest, "install_week", "core.forest.rollup")
    tracer.wrap(AtypicalForest, "install_month", "core.forest.rollup")
    tracer.wrap(
        IngestEngine, "snapshot", "ingest.engine.snapshot",
        lambda args, kwargs, result: {"bytes": sum(p.stat().st_size for p in result.iterdir())},
    )
    payloads = [payload for day in run.days_sent for _, payload in by_day[day]] + [b""]
    accepted = 0
    try:
        with obs.activate(obs.MetricsRegistry(span_limit=10_000)):
            for index, payload in enumerate(payloads):
                flush = index == len(payloads) - 1
                with tracer.request(f"batch-{index}"):
                    with tracer.span("ingest.contract.parse"):
                        rows, _ = parse_body(payload, "application/x-ndjson")
                    with tracer.span("ingest.engine.add_events") as span:
                        result = ingest.add_events(rows, flush=flush)
                    span["counts"] = {"closed": len(result.closed_days)}
                    if result.closed_days:
                        ingest.snapshot(inproc_snapshots)
                accepted += result.accepted
    finally:
        tracer.unwrap_all()
    tracer.write(OUT / f"trace-{name}.json")
    spans = tracer.spans

    # the batch extractor over the same days, for the streaming overhead
    batch_engine = fresh_engine()
    batch_seconds = 0.0
    for dataset in DatasetCatalog(data):
        for day in dataset.days:
            if day in run.days_sent:
                records = dataset.atypical_day(day)
                started = time.perf_counter()
                batch_engine.add_day_records(day, records)
                batch_seconds += time.perf_counter() - started

    def med(values) -> float:
        values = list(values)
        return median(values) if values else 0.0

    add_events = [s for s in spans if s["name"] == "ingest.engine.add_events"]
    closing = {s["request"] for s in add_events if s["counts"]["closed"]}
    add_ms = per_request(spans, "ingest.engine.add_events")
    parse_ms = per_request(spans, "ingest.contract.parse")
    plain_ms = [ms for request, ms in add_ms.items() if request not in closing]
    close_ms = [ms for request, ms in add_ms.items() if request in closing]
    integrate_ms = per_request(spans, "core.integration.integrate")
    install_ms = per_request(spans, "core.forest.rollup")
    rollup_ms = [integrate_ms.get(r, 0.0) + install_ms.get(r, 0.0) for r in closing]
    streamed_seconds = sum(add_ms.values()) / 1e3
    inproc_batch_ms = med(parse_ms[r] + add_ms[r] for r in add_ms if r not in closing)
    metrics = {
        "serve.server.transport_ms": _ms(http_plain) - inproc_batch_ms,
        "serve.server.keepalive_get_ms": keepalive,
        "ingest.contract.parse_ms": med(parse_ms.values()),
        "ingest.engine.add_events_ms": med(plain_ms),
        "core.streaming.push_window_ms": med(per_request(spans, "core.streaming.push_window").values()),
        "ingest.engine.dayclose_ms": med(close_ms),
        "core.forest.rollup_ms": med(rollup_ms),
        "core.integration.integrate_ms": med(integrate_ms.values()),
        "ingest.engine.snapshot_ms": med(per_request(spans, "ingest.engine.snapshot").values()),
        "storage.columnar.bytes_written_per_event":
            count_total(spans, "ingest.engine.snapshot", "bytes") / accepted,
        "ingest.engine.overhead_ratio": streamed_seconds / batch_seconds,
        "serve.handlers.poll_p50_ms": med(polled),
        "serve.handlers.poll_p90_ms": percentile(polled, 90),
        "serve.handlers.poll_max_ms": max(polled),
        "bench.generator_lag_ms": median(run.poller.lag_ms),
    }
    shutil.rmtree(data, ignore_errors=True)
    return metrics


# ----------------------------------------------------------------------
# build_cold
# ----------------------------------------------------------------------
def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _cli_seconds(argv: Sequence[str], repeats: int = 3) -> float:
    """Median wall time of a short program process."""
    times = []
    for _ in range(repeats):
        seconds, proc = _timed(lambda: subprocess.run(
            [sys.executable, *argv], env=child_env(), capture_output=True,
        ))
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-400:]!r}")
        times.append(seconds)
    return median(times)


def build_cold(seed: int, seconds: float) -> Dict[str, float]:
    import repro.storage.forest_io as forest_io
    from repro.analysis.engine import AnalysisEngine, EngineConfig
    from repro.core.events import EventExtractor
    from repro.core.forest import AtypicalForest
    from repro.cube.cubeview import build_cube_oc
    from repro.cube.datacube import SeverityCube
    from repro.simulate.generator import TrafficSimulator
    from repro.storage.catalog import DatasetCatalog
    from repro.storage.dataset import CPSDataset

    name = "build_cold"
    work = e2e.fresh_dir(OUT / name)
    data, _ = e2e.generate_catalog(work, months=1)
    simulator = TrafficSimulator.from_catalog_dir(data)
    catalog = DatasetCatalog(data)
    days = range(inputs.BUILD_DAYS)
    model = work / "model"

    # the serial build API, traced
    tracer = Tracer()
    tracer.wrap(CPSDataset, "atypical_day", "storage.dataset.read")
    tracer.wrap(
        EventExtractor, "extract_micro_clusters", "core.events.extract",
        lambda args, kwargs, result: {"records": len(args[1]), "clusters": len(result)},
    )
    tracer.wrap(SeverityCube, "add_records", "cube.datacube.add")
    tracer.wrap(AtypicalForest, "materialize", "core.forest.materialize")
    tracer.wrap(forest_io, "save_forest", "storage.forest_io.save")
    engine = AnalysisEngine.from_simulator(simulator)
    try:
        with tracer.request("build"):
            with tracer.span("analysis.engine.build") as forest_build:
                engine.build_from_catalog(catalog, days)
            engine.forest.materialize()
            engine.save(model, forest_format="columnar")
    finally:
        tracer.unwrap_all()
    tracer.write(OUT / f"trace-{name}.json")
    spans = tracer.spans

    def total_ms(span_name: str) -> float:
        return sum(per_request(spans, span_name).values())

    extract_s = total_ms("core.events.extract") / 1e3
    records = count_total(spans, "core.events.extract", "records")

    # the parallel builder's own report, 2 workers
    parallel_engine = AnalysisEngine.from_simulator(simulator)
    report = parallel_engine.build_from_catalog_parallel(
        catalog, days, workers=2, materialize=True
    )

    # Fig. 15: the atypical-cluster model against the cube over all readings
    ac_seconds = forest_build["end"] - forest_build["start"]
    oc_seconds, _ = _timed(lambda: build_cube_oc(
        list(catalog), simulator.districts(), simulator.calendar, simulator.window_spec
    ))

    # what a cold start pays: interpreter + imports, model load, one query
    loads = []
    for _ in range(3):
        load_s, loaded = _timed(lambda: AnalysisEngine.load(
            model, simulator.network, simulator.districts(), EngineConfig()
        ))
        loads.append(load_s * 1e3)
    loaded.query(loaded.whole_city(), 0, ONESHOT_QUERY_DAYS, final_check=True)
    io = loaded.forest.io_stats()
    metrics = {
        "storage.dataset.read_ms": total_ms("storage.dataset.read"),
        "core.events.extract_ms": extract_s * 1e3,
        "core.events.records_per_s": records / extract_s,
        "cube.datacube.add_ms": total_ms("cube.datacube.add"),
        "core.forest.materialize_ms": total_ms("core.forest.materialize"),
        "storage.forest_io.save_ms": total_ms("storage.forest_io.save"),
        "parallel.builder.map_s": report.map_seconds,
        "parallel.builder.reduce_s": report.reduce_seconds,
        "parallel.builder.worker_init_s": report.worker_init_seconds,
        "cube.cubeview.oc_build_s": oc_seconds,
        "fig15.ac_over_oc": ac_seconds / oc_seconds,
        "cli.import_s": _cli_seconds(["-c", "import repro.cli"]),
        "storage.forest_io.load_ms": median(loads),
        "cli.oneshot_query_s": _cli_seconds(
            ["-m", "repro", "query", "--data", str(data), "--model", str(model),
             "--days", str(ONESHOT_QUERY_DAYS)]
        ),
        "storage.columnar.bytes_loaded": io["bytes_loaded"],
        "storage.columnar.groups_loaded": io["groups_loaded"],
    }
    shutil.rmtree(data, ignore_errors=True)
    return metrics


WORKLOADS = {
    "query_wide": query_wide,
    "dashboard_poll": dashboard_poll,
    "ingest_backfill": ingest_backfill,
    "build_cold": build_cold,
}
