"""Command-line interface.

The CLI mirrors the system framework of Fig. 2 as a three-step workflow::

    python -m repro generate --out data/           # synthesize a trace
    python -m repro build    --data data/ --model model/
    python -m repro query    --data data/ --model model/ --days 7

plus ``info`` for the dataset inventory, ``stats`` to render a metrics
snapshot written by ``--metrics-out``, ``serve`` to keep a loaded model
resident behind an HTTP query endpoint (``/query``, ``/healthz``,
``/metrics``, ``/traces``, plus ``POST /ingest`` with ``--ingest`` — see
:mod:`repro.serve`), ``ingest`` to tail a spool directory of NDJSON
events into a live forest with crash-safe checkpoints and atomic
snapshots (see :mod:`repro.ingest`), ``slo check`` to evaluate declared
SLOs, and ``trace`` to inspect request traces persisted by ``serve
--trace-dir`` (:mod:`repro.obs.tracestore`). The data directory written
by ``generate`` carries the simulation config, so every later step
rebuilds the same sensor network and district partition from it.

Every subcommand accepts ``--log-level`` (structured key=value logging to
stderr), ``--metrics-out PATH`` (enable the observability layer for the
run and write the registry snapshot as JSON on exit), ``--trace-out PATH``
(write the span tree as Chrome ``trace_event`` JSON, loadable in
Perfetto), and ``--profile {cprofile,tracemalloc}`` (wrap the command in a
profiler; hotspots go to stderr, the artifact beside the working
directory or to ``--profile-out``). ``repro query --explain`` adds the
per-stage cost report of the query engine.

``build`` also accepts ``--workers N`` and ``--shard-by
{day,day-district}``: with ``N > 1`` the forest is built by a process
pool over day (or day-by-district-group) shards and reduced in
canonical order, producing a model byte-identical to the serial build
(Property 3). ``build --materialize`` eagerly integrates the week/month
levels at build time instead of on first query.

End-to-end performance is measured by the repository's frozen
``bench/`` harness, which drives these subcommands as real processes
(see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.analysis.engine import AnalysisEngine, EngineConfig
from repro.analysis.evaluation import score_strategy
from repro.analysis.report import build_report
from repro.simulate.generator import SimulationConfig, TrafficSimulator
from repro.storage.catalog import DatasetCatalog
from repro.storage.codec import CodecError
from repro.storage.model_cache import load_engine_cached

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Atypical-cluster analysis of cyber-physical data "
        "(Tang et al., ICDE 2012 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--log-level",
        choices=obs.LOG_LEVELS,
        default="warning",
        help="structured-log verbosity on stderr (default: warning)",
    )
    common.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="collect pipeline metrics and write the JSON snapshot here",
    )
    common.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="collect phase spans and write a Chrome trace_event JSON here "
        "(load in Perfetto / chrome://tracing)",
    )
    common.add_argument(
        "--profile",
        dest="profiler",
        choices=obs.PROFILERS,
        default=None,
        help="wrap the command in a profiler and print its hotspot summary "
        "to stderr",
    )
    common.add_argument(
        "--profile-out",
        type=Path,
        default=None,
        help="profiler artifact path (default: repro_<command>.prof / "
        ".heap.txt beside the working directory)",
    )

    generate = commands.add_parser(
        "generate",
        parents=[common],
        help="materialize a synthetic CPS trace to disk",
    )
    generate.add_argument("--out", required=True, type=Path, help="target directory")
    generate.add_argument(
        "--scale",
        choices=("small", "benchmark"),
        default="small",
        help="simulation scale (default: small)",
    )
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--months", type=int, default=None, help="limit to the first N months"
    )

    build = commands.add_parser(
        "build",
        parents=[common],
        help="construct the atypical forest from a stored trace",
    )
    build.add_argument("--data", required=True, type=Path, help="trace directory")
    build.add_argument("--model", required=True, type=Path, help="model output dir")
    build.add_argument(
        "--days", type=int, default=None, help="build only the first N days"
    )
    build.add_argument(
        "--materialize",
        action="store_true",
        help="also materialize every week/month level of the forest "
        "(Algorithm 3 per level shard, in workers when --workers > 1)",
    )
    build.add_argument(
        "--format",
        choices=("pickle", "columnar"),
        default="pickle",
        dest="forest_format",
        help="forest container format: pickle (eager legacy blob) or "
        "columnar (memory-mapped, loaded lazily per day/level; see "
        "repro.storage.columnar) (default: pickle)",
    )
    _add_engine_arguments(build)
    # sharded construction; see the repro.parallel subsystem
    build.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sharded forest construction "
        "(default: 1 = in-process; output is byte-identical at any count)",
    )
    build.add_argument(
        "--shard-by",
        choices=("day", "day-district"),
        default="day",
        help="shard axis: whole days, or days split by district "
        "connectivity group (default: day)",
    )

    convert = commands.add_parser(
        "convert",
        parents=[common],
        help="convert a saved model's forest between the pickle and "
        "columnar container formats, in place",
    )
    convert.add_argument(
        "model",
        type=Path,
        help="model directory (containing forest.bin) or a forest file",
    )
    convert.add_argument(
        "--to",
        choices=("pickle", "columnar"),
        required=True,
        dest="target_format",
        help="target forest format",
    )

    query = commands.add_parser(
        "query",
        parents=[common],
        help="run an analytical query against a built model",
    )
    query.add_argument("--data", required=True, type=Path, help="trace directory")
    query.add_argument("--model", required=True, type=Path, help="model directory")
    query.add_argument("--first-day", type=int, default=0)
    query.add_argument("--days", type=int, default=7)
    query.add_argument(
        "--strategy", choices=("all", "pru", "gui"), default="gui"
    )
    query.add_argument("--delta-s", type=float, default=None)
    query.add_argument(
        "--final-check",
        action="store_true",
        help="drop returned clusters below the significance bar",
    )
    query.add_argument(
        "--compare",
        action="store_true",
        help="also run the other strategies and score them",
    )
    query.add_argument("--limit", type=int, default=10, help="clusters to print")
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the per-stage cost report (clusters scanned, red-zone "
        "pruning, integration rounds, cache hit ratio, bytes read)",
    )
    query.add_argument(
        "--explain-out",
        type=Path,
        default=None,
        help="also write the explain report as JSON here (implies --explain)",
    )
    _add_engine_arguments(query)

    info = commands.add_parser(
        "info", parents=[common], help="describe a stored trace"
    )
    info.add_argument("--data", required=True, type=Path)

    serve = commands.add_parser(
        "serve",
        parents=[common],
        help="serve a built model over HTTP: POST /query, GET /healthz, "
        "GET /metrics (Prometheus text)",
    )
    serve.add_argument("--data", required=True, type=Path, help="trace directory")
    serve.add_argument("--model", required=True, type=Path, help="model directory")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8321, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--limit",
        type=int,
        default=10,
        help="default clusters per /query response (overridable per request)",
    )
    serve.add_argument(
        "--span-limit",
        type=int,
        default=10_000,
        help="keep at most N raw spans in memory (aggregates are unaffected; "
        "evictions are counted as spans_dropped)",
    )
    serve.add_argument(
        "--slo",
        type=Path,
        default=None,
        help="YAML/JSON SLO config; enables GET /slo burn-rate alerts",
    )
    serve.add_argument(
        "--tsdb-dir",
        type=Path,
        default=None,
        help="persist telemetry samples here as rotating NDJSON segments "
        "(default: in-memory only)",
    )
    serve.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        help="seconds between telemetry samples (the tsdb base grain)",
    )
    serve.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="persist tail-sampled request traces here as rotating NDJSON "
        "segments (default: in-memory ring only; GET /traces works either "
        "way)",
    )
    serve.add_argument(
        "--trace-threshold",
        type=float,
        default=0.5,
        help="keep every request slower than N seconds (0 keeps all, "
        "negative disables the latency rule; errors are always kept)",
    )
    serve.add_argument(
        "--trace-head-sample",
        type=int,
        default=10,
        help="also keep a deterministic 1-in-N sample of all requests "
        "(0 disables head sampling)",
    )
    serve.add_argument(
        "--ingest",
        action="store_true",
        help="enable POST /ingest: event batches stream into the served "
        "forest, which keeps growing in place (repro.ingest contract)",
    )
    serve.add_argument(
        "--ingest-snapshot-dir",
        type=Path,
        default=None,
        help="publish an atomic model snapshot here whenever an ingested "
        "day closes (versioned model-NNNNNN dirs behind a `current` "
        "symlink; requires --ingest)",
    )
    serve.add_argument(
        "--ingest-max-batch",
        type=int,
        default=50_000,
        help="admission control: largest accepted event batch (rows)",
    )
    serve.add_argument(
        "--ingest-max-waiters",
        type=int,
        default=8,
        help="admission control: batches queued behind the ingest lock "
        "before shedding with HTTP 429",
    )
    # access logs are the point of a server; default them on
    serve.set_defaults(log_level="info")
    _add_engine_arguments(serve)

    ingest = commands.add_parser(
        "ingest",
        parents=[common],
        help="tail a spool directory of NDJSON event files into a live "
        "forest, with crash-safe checkpoints and atomic snapshots",
    )
    ingest.add_argument(
        "--data", required=True, type=Path,
        help="trace directory (supplies the sensor network and calendar)",
    )
    ingest.add_argument(
        "--spool", required=True, type=Path,
        help="spool directory to tail (*.ndjson, rename-into-place)",
    )
    ingest.add_argument(
        "--model",
        type=Path,
        default=None,
        help="existing model to resume, e.g. <snapshot-dir>/current "
        "(default: start from an empty forest)",
    )
    ingest.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        help="publish atomic snapshots here (model-NNNNNN dirs behind a "
        "`current` symlink); nothing is durable when omitted",
    )
    ingest.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="checkpoint file naming the fully-snapshotted spool files "
        "(default: <snapshot-dir>/checkpoint.json)",
    )
    ingest.add_argument(
        "--snapshot-every",
        type=int,
        default=1,
        help="snapshot after every N closed days (default: 1)",
    )
    ingest.add_argument(
        "--first-day",
        type=int,
        default=0,
        help="calendar day the stream starts at when starting fresh",
    )
    ingest.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between spool scans when idle",
    )
    ingest.add_argument(
        "--once",
        action="store_true",
        help="drain the files currently spooled, then exit",
    )
    ingest.add_argument(
        "--flush",
        action="store_true",
        help="close the open day before the final snapshot, making every "
        "spooled event queryable when the command returns",
    )
    ingest.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop tailing after N seconds (smoke-test bound)",
    )
    ingest.add_argument(
        "--snapshot-format",
        choices=("pickle", "columnar"),
        default="columnar",
        help="forest container format for snapshots (default: columnar)",
    )
    # a tailer is a daemon like serve; progress lines default on
    ingest.set_defaults(log_level="info")
    _add_engine_arguments(ingest)

    slo = commands.add_parser(
        "slo",
        parents=[common],
        help="evaluate declared SLOs; `repro slo check` exits 1 on PAGE",
    )
    slo_commands = slo.add_subparsers(dest="slo_command", required=True)
    slo_check = slo_commands.add_parser(
        "check",
        help="check a server URL, a --metrics-out snapshot, or a tsdb "
        "segment directory against SLOs",
    )
    slo_check.add_argument(
        "target",
        help="server base URL (reads its /slo), metrics snapshot JSON, or "
        "tsdb segment directory",
    )
    slo_check.add_argument(
        "--config",
        type=Path,
        default=None,
        help="SLO config (required for snapshot / tsdb-directory targets)",
    )
    slo_check.add_argument(
        "--json",
        action="store_true",
        help="print the full report document instead of the summary lines",
    )

    trace = commands.add_parser(
        "trace",
        parents=[common],
        help="inspect traces persisted by repro serve --trace-dir",
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_dir_help = "trace segment directory (repro serve --trace-dir)"
    trace_ls = trace_commands.add_parser(
        "ls", help="list captured traces, slowest or newest first"
    )
    trace_ls.add_argument("--trace-dir", type=Path, required=True, help=trace_dir_help)
    trace_ls.add_argument(
        "--limit", type=int, default=20, help="traces to list (default: 20)"
    )
    trace_ls.add_argument(
        "--sort",
        choices=("duration", "recent"),
        default="duration",
        help="ordering (default: duration)",
    )
    trace_show = trace_commands.add_parser(
        "show",
        help="render one trace's span tree with self-time and critical path",
    )
    trace_show.add_argument("request_id", help="request id of the trace")
    trace_show.add_argument(
        "--trace-dir", type=Path, required=True, help=trace_dir_help
    )
    trace_profile = trace_commands.add_parser(
        "profile",
        help="aggregate self-time across all captured traces, flamegraph-style",
    )
    trace_profile.add_argument(
        "--trace-dir", type=Path, required=True, help=trace_dir_help
    )
    trace_profile.add_argument(
        "--limit", type=int, default=None, help="rows to print (default: all)"
    )
    trace_export = trace_commands.add_parser(
        "export",
        help="export one trace as Chrome trace_event JSON (Perfetto-loadable)",
    )
    trace_export.add_argument("request_id", help="request id of the trace")
    trace_export.add_argument(
        "--trace-dir", type=Path, required=True, help=trace_dir_help
    )
    trace_export.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default: trace_<request_id>.json)",
    )

    stats = commands.add_parser(
        "stats",
        parents=[common],
        help="render a metrics snapshot written by --metrics-out",
    )
    stats.add_argument("path", type=Path, help="snapshot JSON file")
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format instead of a summary",
    )
    # for `stats`, --trace-out converts the *loaded* snapshot to a Chrome
    # trace instead of recording a new one

    return parser


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--distance", type=float, default=1.5, help="delta_d (miles)")
    parser.add_argument("--time-gap", type=float, default=15.0, help="delta_t (min)")
    parser.add_argument(
        "--similarity", type=float, default=0.5, help="delta_sim threshold"
    )
    parser.add_argument(
        "--balance",
        choices=("max", "min", "avg", "geo", "har"),
        default="avg",
        help="balance function g",
    )


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    return EngineConfig(
        distance_miles=args.distance,
        time_gap_minutes=args.time_gap,
        similarity_threshold=args.similarity,
        balance_function=args.balance,
        delta_s=getattr(args, "delta_s", None) or 0.05,
    )


def _simulator_for(data_dir: Path) -> TrafficSimulator:
    return TrafficSimulator.from_catalog_dir(data_dir)


def _query_io_totals(
    catalog: Optional[DatasetCatalog],
    model_dir: Path,
    forest: Optional[object] = None,
) -> dict:
    """Storage accounting for the explain report: catalog byte counters
    (zero when the query answered entirely from the in-memory model) plus
    the size of the model files the engine loaded. For a columnar forest
    the memory-map accounting (bytes mapped vs actually faulted, column
    groups touched) rides along under ``forest_io``."""
    totals: dict = {"model_bytes": 0}
    for name in ("forest.bin", "cube.bin", "engine.json"):
        path = model_dir / name
        if path.exists():
            totals["model_bytes"] += path.stat().st_size
    if catalog is not None:
        totals.update(catalog.io_totals())
    io_stats = getattr(forest, "io_stats", None)
    if callable(io_stats):
        totals["forest_io"] = io_stats()
    return totals


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    base = (
        SimulationConfig.small(seed=args.seed)
        if args.scale == "small"
        else SimulationConfig.benchmark(seed=args.seed)
    )
    if args.months is not None:
        if not 1 <= args.months <= len(base.month_lengths):
            print(
                f"error: --months must be in 1..{len(base.month_lengths)}",
                file=sys.stderr,
            )
            return 2
        base = SimulationConfig.from_dict(
            {**base.to_dict(), "month_lengths": tuple(base.month_lengths[: args.months])}
        )
    simulator = TrafficSimulator(base)
    catalog = simulator.materialize_catalog(args.out)
    print(
        f"generated {len(catalog)} monthly datasets "
        f"({catalog.total_readings():,} readings, "
        f"{catalog.total_size_bytes() / 1e6:.0f} MB) under {args.out}"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    simulator = _simulator_for(args.data)
    catalog = DatasetCatalog(args.data)
    engine = AnalysisEngine.from_simulator(simulator, _engine_config(args))
    days = range(args.days) if args.days is not None else None
    # every build goes through the sharded builder — workers=1 runs the
    # same shard/reduce path in process, so the saved model is
    # byte-identical at any worker count
    report = engine.build_from_catalog_parallel(
        catalog,
        days,
        workers=args.workers,
        shard_by=args.shard_by,
        materialize=args.materialize,
    )
    engine.save(args.model, forest_format=args.forest_format)
    stats = engine.forest.stats()
    detail = f"{stats.num_micro} micro-clusters"
    if args.materialize:
        detail += (
            f", {stats.num_week_macro} week + "
            f"{stats.num_month_macro} month macro-clusters"
        )
    print(
        f"built {report.days_built} days "
        f"({report.shards} {report.shard_by} shards, "
        f"{report.workers} worker(s)): {detail}, "
        f"model saved to {args.model} ({args.forest_format} forest)"
    )
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    from repro.storage.columnar import sniff_format
    from repro.storage.forest_io import load_forest, save_forest

    forest_path = args.model / "forest.bin" if args.model.is_dir() else args.model
    if not forest_path.exists():
        print(f"error: no forest file at {forest_path}", file=sys.stderr)
        return 2
    current = sniff_format(forest_path)
    current_name = "pickle" if current == "legacy" else current
    if current_name == args.target_format:
        print(f"{forest_path}: already {args.target_format}; nothing to do")
        return 0
    before = forest_path.stat().st_size
    forest = load_forest(forest_path)
    # write-then-rename so an interrupted convert never leaves a torn model
    tmp_path = forest_path.with_name(forest_path.name + f".tmp{os.getpid()}")
    try:
        save_forest(forest, tmp_path, format=args.target_format)
        os.replace(tmp_path, forest_path)
    finally:
        tmp_path.unlink(missing_ok=True)
    after = forest_path.stat().st_size
    print(
        f"converted {forest_path}: {current_name} -> {args.target_format} "
        f"({before:,} -> {after:,} bytes)"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    explain = args.explain or args.explain_out is not None
    simulator = _simulator_for(args.data)
    config = _engine_config(args)
    catalog = DatasetCatalog(args.data) if explain else None
    if catalog is not None:
        catalog.reset_io()
    # the process-wide model cache makes repeat queries (and every server
    # request) skip the deserialization; a one-shot CLI run is simply the
    # cold-miss case
    cached = load_engine_cached(
        args.model, simulator.network, simulator.districts(), config
    )
    engine = cached.engine
    result = engine.query(
        engine.whole_city(),
        args.first_day,
        args.days,
        strategy=args.strategy,
        final_check=args.final_check,
        delta_s=args.delta_s,
        explain=explain,
    )
    print(
        f"Q(city, days {args.first_day}..{args.first_day + args.days - 1}) "
        f"via {args.strategy}: {result.stats.input_clusters} inputs, "
        f"{len(result.returned)} clusters, "
        f"{result.stats.elapsed_seconds:.2f}s"
    )
    if explain and result.explain is not None:
        result.explain.io = _query_io_totals(catalog, args.model, engine.forest)
        print()
        print(result.explain.render())
        if args.explain_out is not None:
            args.explain_out.parent.mkdir(parents=True, exist_ok=True)
            args.explain_out.write_text(
                json.dumps(result.explain.to_dict(), indent=2) + "\n"
            )
    report = build_report(
        result, engine.network, simulator.window_spec, limit=args.limit
    )
    print(report.to_text())

    if args.compare:
        results = {args.strategy: result}
        for strategy in ("all", "pru", "gui"):
            if strategy not in results:
                results[strategy] = engine.query(
                    engine.whole_city(),
                    args.first_day,
                    args.days,
                    strategy=strategy,
                    delta_s=args.delta_s,
                )
        print("\nstrategy   time(s)  inputs  precision  recall")
        for strategy in ("all", "pru", "gui"):
            r = results[strategy]
            score = score_strategy(r, results["all"])
            print(
                f"{strategy:>8}  {r.stats.elapsed_seconds:7.2f}  "
                f"{r.stats.input_clusters:6d}  {score.precision:9.2f}  "
                f"{score.recall:6.2f}"
            )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    catalog = DatasetCatalog(args.data)
    simulator = _simulator_for(args.data)
    print(f"trace: {args.data}")
    print(f"sensors: {len(simulator.network)}")
    print(f"{'dataset':>8}  {'days':>5}  {'readings':>10}  {'atypical':>8}")
    for dataset in catalog:
        atypical = sum(len(dataset.atypical_day(d)) for d in dataset.days)
        readings = dataset.total_readings()
        print(
            f"{dataset.meta.name:>8}  {dataset.meta.num_days:>5}  "
            f"{readings:>10,}  {atypical / readings:>8.2%}"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.slo import SLOEngine, SLOError, load_slo_config
    from repro.obs.tracestore import TailSampler, TraceStore
    from repro.obs.tsdb import Sampler, TimeSeriesStore
    from repro.serve import QueryServer, ServeApp, install_signal_handlers

    if not 0 <= args.port <= 65535:
        print("error: --port must be in 0..65535", file=sys.stderr)
        return 2
    if args.sample_interval <= 0:
        print("error: --sample-interval must be positive", file=sys.stderr)
        return 2
    if args.trace_head_sample < 0:
        print("error: --trace-head-sample must be >= 0", file=sys.stderr)
        return 2
    if args.ingest_snapshot_dir is not None and not args.ingest:
        print("error: --ingest-snapshot-dir requires --ingest", file=sys.stderr)
        return 2
    if args.ingest_max_batch < 1:
        print("error: --ingest-max-batch must be at least 1", file=sys.stderr)
        return 2
    if args.ingest_max_waiters < 0:
        print("error: --ingest-max-waiters must be >= 0", file=sys.stderr)
        return 2
    slo_config = None
    if args.slo is not None:
        try:
            slo_config = load_slo_config(args.slo)
        except SLOError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    simulator = _simulator_for(args.data)
    config = _engine_config(args)
    try:
        cached = load_engine_cached(
            args.model, simulator.network, simulator.districts(), config
        )
    except FileNotFoundError as exc:
        print(f"error: not a model directory: {exc}", file=sys.stderr)
        return 2
    store = TimeSeriesStore(segment_dir=args.tsdb_dir)
    sampler = Sampler(store, interval=args.sample_interval)
    # tracing is always on: every request's spans are inspected, the tail
    # sampler decides what the store keeps (errors, slow, 1-in-N head)
    trace_store = TraceStore(segment_dir=args.trace_dir)
    tail_sampler = TailSampler(
        latency_threshold=args.trace_threshold,
        head_rate=args.trace_head_sample,
    )
    slo_engine = (
        SLOEngine(slo_config, store, trace_store=trace_store)
        if slo_config is not None
        else None
    )
    ingest_engine = None
    if args.ingest:
        from repro.ingest import IngestEngine

        # shares the model cache's query lock, so day builds serialize
        # against in-flight /query requests
        ingest_engine = IngestEngine(
            cached.engine,
            query_lock=cached.query_lock,
            max_batch_rows=args.ingest_max_batch,
            max_waiters=args.ingest_max_waiters,
        )
    app = ServeApp(
        cached.engine,
        digest=cached.digest,
        model_dir=cached.model_dir,
        query_lock=cached.query_lock,
        default_limit=args.limit,
        slo_engine=slo_engine,
        trace_store=trace_store,
        tail_sampler=tail_sampler,
        ingest_engine=ingest_engine,
        ingest_snapshot_dir=args.ingest_snapshot_dir,
        tsdb_sampler=sampler,
    )
    server = QueryServer(app, host=args.host, port=args.port)
    install_signal_handlers(server)
    print(
        f"serving {cached.model_dir} on {server.url()} "
        f"(digest {cached.digest[:12]}, {len(cached.engine.built_days)} days "
        f"built; SIGTERM/Ctrl-C drains and exits)"
    )
    if slo_config is not None:
        print(
            f"slo: {len(slo_config.slos)} objective(s) from {args.slo} "
            f"on GET /slo"
        )
    if args.tsdb_dir is not None:
        print(f"tsdb: sampling every {args.sample_interval}s into {args.tsdb_dir}")
    sink = args.trace_dir if args.trace_dir is not None else "memory ring"
    print(
        f"tracing: tail-sampled (errors, >{args.trace_threshold}s, "
        f"1-in-{args.trace_head_sample} head) into {sink}; GET /traces"
    )
    if ingest_engine is not None:
        snapshots = (
            f"snapshots to {args.ingest_snapshot_dir} on day close"
            if args.ingest_snapshot_dir is not None
            else "no snapshots (--ingest-snapshot-dir to persist)"
        )
        print(
            f"ingest: POST /ingest live (open day {ingest_engine.open_day}, "
            f"batches <= {args.ingest_max_batch} rows; {snapshots})"
        )
    sys.stdout.flush()
    sampler.start()
    # blocks until a signal triggers server.stop(); in-flight requests
    # finish before serve_forever returns (block_on_close)
    try:
        server.serve_forever()
    finally:
        # final flush sample puts the shutdown edge on disk
        sampler.stop()
        trace_store.sync()
    print("drained, bye")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    import signal

    from repro.ingest import IngestEngine, SpoolTailer

    if args.snapshot_every < 1:
        print("error: --snapshot-every must be at least 1", file=sys.stderr)
        return 2
    if args.poll <= 0:
        print("error: --poll must be positive", file=sys.stderr)
        return 2
    checkpoint = args.checkpoint
    if checkpoint is None and args.snapshot_dir is not None:
        checkpoint = args.snapshot_dir / "checkpoint.json"
    simulator = _simulator_for(args.data)
    config = _engine_config(args)
    if args.model is not None:
        try:
            engine = AnalysisEngine.load(
                args.model, simulator.network, simulator.districts(), config=config
            )
        except FileNotFoundError as exc:
            print(f"error: not a model directory: {exc}", file=sys.stderr)
            return 2
    else:
        engine = AnalysisEngine.from_simulator(simulator, config)
    ingest = IngestEngine(
        engine,
        start_day=args.first_day,
        snapshot_format=args.snapshot_format,
    )
    tailer = SpoolTailer(
        args.spool,
        ingest,
        checkpoint_path=checkpoint,
        snapshot_dir=args.snapshot_dir,
        snapshot_every_days=args.snapshot_every,
        poll_seconds=args.poll,
    )
    # SIGTERM/Ctrl-C request a graceful drain: finish the file in hand,
    # publish the final snapshot/checkpoint pair, then return
    stop = {"requested": False}

    def _request_stop(signum, frame):
        stop["requested"] = True

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    resumed = f" (resumed {args.model})" if args.model is not None else ""
    print(
        f"tailing {args.spool} from day {ingest.open_day}{resumed}; "
        "SIGTERM/Ctrl-C drains and exits"
    )
    sys.stdout.flush()
    files, days_closed = tailer.run(
        once=args.once,
        flush_at_exit=args.flush,
        stop_check=lambda: stop["requested"],
        max_seconds=args.max_seconds,
    )
    stats = ingest.stats()
    print(
        f"ingested {files} file(s), closed {days_closed} day(s): "
        f"accepted={stats['accepted']} rejected={stats['rejected']}, "
        f"open day {stats['open_day']}"
    )
    if args.snapshot_dir is not None:
        print(
            f"snapshot: {args.snapshot_dir / 'current'} "
            f"(checkpoint {checkpoint})"
        )
    return 0


def _slo_report_doc(args: argparse.Namespace) -> dict:
    """Resolve `repro slo check`'s target into an SLO report document.

    Three target shapes: a server base URL (its live ``/slo`` document),
    a ``--metrics-out`` snapshot file (lifetime-mode evaluation), or a
    tsdb segment directory (windowed replay of persisted telemetry). The
    latter two need ``--config``. Every failure raises ``SLOError``.
    """
    import json as _json
    import urllib.error
    import urllib.request

    from repro.obs.slo import SLOEngine, SLOError, evaluate_snapshot, load_slo_config
    from repro.obs.tsdb import load_segments

    target = str(args.target)
    if target.startswith(("http://", "https://")):
        if args.config is not None:
            raise SLOError(
                "--config only applies to snapshot/tsdb targets; a server "
                "URL serves its own /slo document"
            )
        url = target.rstrip("/") + "/slo"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                return _json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                raise SLOError(
                    f"{target} has no SLO config loaded "
                    "(start serve with --slo)"
                )
            raise SLOError(f"{url} returned HTTP {exc.code}")
        except (urllib.error.URLError, OSError, ValueError) as exc:
            reason = getattr(exc, "reason", exc)
            raise SLOError(f"cannot reach server at {target}: {reason}")
    if args.config is None:
        raise SLOError("snapshot/tsdb targets need --config <slo.yaml>")
    config = load_slo_config(args.config)
    path = Path(target)
    if path.is_dir():
        try:
            store = load_segments(path)
        except (FileNotFoundError, ValueError) as exc:
            raise SLOError(str(exc))
        # evaluate at the last persisted sample, not wall-clock now: the
        # windows should cover the recorded history, not the gap since
        latest = max(
            (
                point[0]
                for name in store.series_names()
                for point in [store.series(name).latest()]
                if point is not None
            ),
            default=None,
        )
        if latest is None:
            raise SLOError(f"{path} holds no samples")
        return SLOEngine(config, store).evaluate(now=latest).to_dict()
    try:
        snapshot = obs.load_snapshot(path)
    except FileNotFoundError:
        raise SLOError(f"no such snapshot: {path}")
    except OSError as exc:
        raise SLOError(f"cannot read snapshot {path}: {exc}")
    except ValueError as exc:
        raise SLOError(f"{path}: {exc}")
    return evaluate_snapshot(config, snapshot).to_dict()


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import SLOError, check_doc

    try:
        doc = _slo_report_doc(args)
        code, lines = check_doc(doc)
    except SLOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return code


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.tracestore import (
        format_profile,
        format_trace,
        load_trace_segments,
        merge_profile,
        trace_to_chrome,
    )

    try:
        store = load_trace_segments(args.trace_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace_command == "ls":
        if args.limit < 1:
            print("error: --limit must be at least 1", file=sys.stderr)
            return 2
        records = (
            store.slowest(args.limit)
            if args.sort == "duration"
            else store.recent(args.limit)
        )
        if not records:
            print(f"no traces in {args.trace_dir}")
            return 0
        print(f"{'seconds':>10}  {'status':>6}  {'endpoint':<10}  request_id")
        for record in records:
            reasons = ",".join(record.reasons) or "-"
            print(
                f"{record.seconds:>10.4f}  {record.status:>6}  "
                f"{record.endpoint:<10}  {record.request_id}  [{reasons}]"
            )
        return 0
    if args.trace_command == "profile":
        profile = merge_profile(store.recent(len(store)))
        if not profile:
            print(f"no traces in {args.trace_dir}")
            return 0
        print(format_profile(profile, limit=args.limit))
        return 0
    # show / export both resolve one id
    record = store.get(args.request_id)
    if record is None:
        print(
            f"error: no trace {args.request_id!r} in {args.trace_dir} "
            "(try `repro trace ls`)",
            file=sys.stderr,
        )
        return 2
    if args.trace_command == "show":
        print(format_trace(record))
        return 0
    out = args.out if args.out is not None else Path(f"trace_{record.request_id}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trace_to_chrome(record), indent=2) + "\n")
    print(f"chrome trace written to {out} (load in Perfetto / chrome://tracing)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        snapshot = obs.load_snapshot(args.path)
    except FileNotFoundError:
        print(f"error: no such snapshot: {args.path}", file=sys.stderr)
        return 2
    except OSError as exc:
        # unreadable path (directory, permissions, ...) — one line, no trace
        print(f"error: cannot read snapshot {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # corrupt JSON (json.JSONDecodeError) or a non-snapshot document
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.trace_out is not None:
        obs.write_chrome_trace(snapshot, args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.prometheus:
        print(obs.to_prometheus_text(snapshot), end="")
    else:
        print(obs.render_snapshot(snapshot))
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "build": cmd_build,
    "convert": cmd_convert,
    "query": cmd_query,
    "info": cmd_info,
    "serve": cmd_serve,
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    "slo": cmd_slo,
    "trace": cmd_trace,
}


_PROFILE_SUFFIX = {"cprofile": ".prof", "tracemalloc": ".heap.txt"}


def _invoke(command, args: argparse.Namespace) -> int:
    """Run ``command``, optionally wrapped in the requested profiler."""
    profiler: Optional[str] = getattr(args, "profiler", None)
    if profiler is None:
        return command(args)
    out = getattr(args, "profile_out", None)
    if out is None:
        out = Path(f"repro_{args.command}{_PROFILE_SUFFIX[profiler]}")
    with obs.profile_phase(profiler, out_path=out) as report:
        code = command(args)
    print(report.render(), file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except CodecError as exc:
        # every storage-format failure (bad magic, checksum mismatch,
        # version from the future, truncation) surfaces as one actionable
        # line and exit code 2 — never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. `repro stats m.json | head`): the
        # truncation is the reader's choice, not an error — but Python
        # would otherwise print a traceback while flushing at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obs.configure_logging(getattr(args, "log_level", "warning"))
    command = _COMMANDS[args.command]
    metrics_out: Optional[Path] = getattr(args, "metrics_out", None)
    trace_out: Optional[Path] = getattr(args, "trace_out", None)
    # `stats` reads snapshots instead of recording them — its --trace-out
    # converts the loaded snapshot inside cmd_stats; `serve` and `ingest`
    # always record (request/stream telemetry is the point of a daemon),
    # others only on request
    always_records = args.command in ("serve", "ingest")
    if args.command == "stats" or (
        not always_records and metrics_out is None and trace_out is None
    ):
        return _invoke(command, args)
    registry = obs.MetricsRegistry(span_limit=getattr(args, "span_limit", None))
    with obs.activate(registry):
        code = _invoke(command, args)
    if metrics_out is not None:
        obs.write_snapshot(registry, metrics_out)
    if trace_out is not None:
        obs.write_chrome_trace(registry, trace_out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
