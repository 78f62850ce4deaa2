"""The four end-to-end workloads, driven through CLI processes and HTTP.

Every workload returns a :class:`Outcome`: its named metrics (each with a
unit, a sample count and, where the value is a median of runs, the runs),
the operations attempted and failed, and the keys of wrong answers.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench import check, inputs
from bench.loadgen import (
    OUT,
    OpenLoopPoller,
    Request,
    Sample,
    Server,
    closed_loop,
    highest_supported,
    median,
    percentile,
    run_cli,
    samples_beyond,
    send,
    wait_until_ready,
)

#: Times the model build + server start is repeated per run; ``setup_s``
#: reports the median so one slow start does not decide it.
SETUP_REPS = 3
CATALOG_SEED = 7
POLL_RATE = 8.0
#: ``ingest_backfill`` and ``build_cold`` finish at least this many
#: days / cycles even on a host too slow to fit them into ``--seconds``.
MIN_INGEST_DAYS = 3
MIN_BUILD_CYCLES = 2
#: A cold start costs a fifth of a build cycle, so each cycle takes two.
COLD_STARTS_PER_CYCLE = 2

#: ``query_wide`` completes ~70 requests in a run: p75 is the highest
#: percentile with ten samples beyond it (p90 would rest on seven).
WIDE_TAIL = 75

BUILD_FLAGS = ("--materialize", "--format", "columnar")
#: The streamed model can only equal a batch build byte for byte when the
#: base model minted no week/month cluster ids before the stream started.
INGEST_BUILD_FLAGS = ("--format", "columnar")


@dataclass
class Outcome:
    workload: str
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, n: int, **extra: object) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n, **extra}

    def count(self, samples: Sequence[Sample]) -> None:
        """Count requests: attempted, and failed when the transport did."""
        self.attempted += len(samples)
        for sample in samples:
            if not sample.ok:
                self.failed += 1
                self.errors.append(f"{sample.key}: {sample.error}")

    def check_answers(self, golden, samples: Sequence[Sample]) -> None:
        wrong = check.wrong_answers(golden, samples)
        self.failed += len(wrong)
        self.wrong.extend(wrong)

    def count_stop(self, server: Server) -> None:
        """Stopping a server is an operation; a kill or bad exit fails it."""
        self.attempted += 1
        if not server.stop():
            self.failed += 1
            self.errors.append(f"server exit: killed={server.killed} code={server.proc.returncode}")

    def finish(self) -> "Outcome":
        self.metric("error_share", self.failed / max(1, self.attempted), "share", self.attempted)
        return self

    def latency_metrics(self, prefix: str, samples: Sequence[Sample], tail: float) -> None:
        values = [s.ms for s in samples if s.ok]
        self.metric(f"{prefix}_p50_ms", median(values), "ms", len(values))
        self.metric(
            f"{prefix}_p{tail:g}_ms", percentile(values, tail), "ms", len(values),
            samples_beyond=samples_beyond(len(values), tail),
            highest_supported=highest_supported(len(values)),
        )


# ----------------------------------------------------------------------
# Set-up shared by the workloads
# ----------------------------------------------------------------------
def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def generate_catalog(work: Path, months: int) -> Tuple[Path, float]:
    """The benchmark-scale catalog, first ``months`` months, via the CLI."""
    data = work / "data"
    shutil.rmtree(data, ignore_errors=True)
    seconds = run_cli(
        ["generate", "--out", str(data), "--scale", "benchmark",
         "--seed", str(CATALOG_SEED), "--months", str(months)],
        work / "generate.log",
    )
    return data, seconds


def build_model(data: Path, model: Path, days: int, log: Path, extra: Sequence[str] = BUILD_FLAGS) -> float:
    shutil.rmtree(model, ignore_errors=True)
    return run_cli(
        ["build", "--data", str(data), "--model", str(model), "--days", str(days), *extra],
        log,
    )


def healthy(conn) -> bool:
    status, _ = conn.request("GET", "/healthz")
    return status == 200


def district_sensors(data: Path) -> Dict[int, List[int]]:
    """District id -> sensor ids of the generated city (non-empty only)."""
    from repro.simulate.generator import TrafficSimulator

    grid = TrafficSimulator.from_catalog_dir(data).districts()
    return {
        d.district_id: sorted(d.sensor_ids) for d in grid if d.num_sensors
    }


def served_setup(
    outcome: Outcome,
    work: Path,
    months: int,
    model_days: int,
    build_flags: Sequence[str] = BUILD_FLAGS,
    serve_flags=lambda: (),
) -> Tuple[Path, Server]:
    """Catalog, then ``SETUP_REPS`` x (CLI build + server start); the last
    server is returned running. Records ``setup_s`` = catalog generation +
    the median repetition, and ``model_bytes``."""
    data, catalog_s = generate_catalog(work, months)
    model = work / "model"
    reps: List[float] = []
    server: Optional[Server] = None
    for rep in range(SETUP_REPS):
        if server is not None:
            outcome.count_stop(server)
        build_s = build_model(data, model, model_days, work / "build.log", build_flags)
        server = Server(data, model, serve_flags(), name=f"{outcome.workload}.serve")
        try:
            start_s = wait_until_ready(server, healthy)
        except BaseException:
            server.kill()
            raise
        reps.append(build_s + start_s)
    outcome.attempted += 1 + SETUP_REPS  # CLI runs; a failed one raises
    outcome.metric("setup_s", catalog_s + median(reps), "s", SETUP_REPS,
                   catalog_s=catalog_s, runs=reps)
    outcome.metric("model_bytes", check.dir_bytes(model), "bytes", 1)
    return data, server


def warm_up(server: Server, requests: Sequence[Request]) -> None:
    """Send each request once, untimed, so lazily loaded column groups and
    first-use imports are paid before the timed part."""
    conn = server.connect()
    try:
        for request in requests:
            send(conn, request)
    finally:
        conn.close()


# ----------------------------------------------------------------------
# query_wide and dashboard_poll
# ----------------------------------------------------------------------
def _query_workload(name: str, seed: int, seconds: float, make_requests, tail: float) -> Outcome:
    outcome = Outcome(name)
    work = fresh_dir(OUT / name)
    data, server = served_setup(outcome, work, months=1, model_days=inputs.QUERY_MODEL_DAYS)
    try:
        requests, warm = make_requests(data, seed)
        warm_up(server, warm)
        loop = closed_loop(server, requests, clients=2, seconds=seconds)
        rss = server.peak_rss_mb()
    finally:
        outcome.count_stop(server)
    outcome.count(loop.samples)
    outcome.check_answers(check.load_golden(name), loop.samples)
    outcome.latency_metrics("query", loop.samples, tail)
    outcome.metric("query_rps", len(loop.samples) / loop.wall_s, "1/s", len(loop.samples))
    outcome.metric("server_rss_mb", rss, "MiB", 1)
    shutil.rmtree(data, ignore_errors=True)
    return outcome.finish()


def dashboard_panels(data: Path, seed: int):
    """All 64 dashboard panels in a seeded order; the warm-up is one
    whole-city query over the three days every panel looks at.

    Every run sends the same panels, because what a panel costs depends on
    its districts: a seed-chosen subset moved ``query_rps`` by 6 % between
    seeds, a seeded order of the whole set by 2 %.
    """
    sensors = district_sensors(data)
    population = inputs.dashboard_population(sorted(sensors))
    panels = inputs.pick_panels(population, sensors, seed, len(population))
    return panels, [inputs.wide_request(inputs.QUERY_MODEL_DAYS - 3, 3)]


def wide_queries(data: Path, seed: int):
    """The distinct wide queries in ``seed``'s order; the warm-up is one
    query over the whole model, which touches every day's column group."""
    return inputs.wide_requests(seed), [inputs.wide_request(0, inputs.QUERY_MODEL_DAYS)]


def query_wide(seed: int, seconds: float) -> Outcome:
    return _query_workload("query_wide", seed, seconds, wide_queries, tail=WIDE_TAIL)


def dashboard_poll(seed: int, seconds: float) -> Outcome:
    return _query_workload("dashboard_poll", seed, seconds, dashboard_panels, tail=90)


# ----------------------------------------------------------------------
# ingest_backfill
# ----------------------------------------------------------------------
@dataclass
class IngestRun:
    """What one replay of event batches beside the open-loop poller saw."""

    batches: List[Tuple[Sample, int]]  # (sample, events sent)
    days_sent: List[int]
    poller: OpenLoopPoller
    wall_s: float
    day_checks: List[Sample]


def ingest_inputs(data: Path, seed: int, seconds: float):
    """The poller's panels and the NDJSON batches of the replayed days.

    Batches are rendered before the clock starts, so the client spends the
    timed part sending, not formatting; twice what this commit replays.
    """
    base = inputs.INGEST_BASE_DAYS
    sensors = district_sensors(data)
    polls = inputs.pick_panels(
        inputs.history_population(sorted(sensors)), sensors, seed, inputs.POLL_PANELS_PER_RUN
    )
    horizon = min(inputs.INGEST_LAST_DAY, base + max(MIN_INGEST_DAYS, int(seconds * 1.5) + 1))
    by_day: Dict[int, List[Tuple[int, bytes]]] = {}
    for day, events, payload in inputs.event_batches(data, base, horizon):
        by_day.setdefault(day, []).append((events, payload))
    return polls, by_day


def replay_ingest(server: Server, polls, by_day, seconds: float) -> IngestRun:
    """One connection replays whole days, closed loop, until ``seconds``
    have passed, then flushes; a second connection polls ``polls``
    open-loop at ``POLL_RATE``. Afterwards each replayed day is queried."""
    warm_up(server, polls)
    conn = server.connect()
    poller = OpenLoopPoller(server, polls, POLL_RATE)
    batches: List[Tuple[Sample, int]] = []
    days_sent: List[int] = []
    started = time.perf_counter()
    poller.start()
    try:
        for day in sorted(by_day):
            for events, payload in by_day[day]:
                request = Request(f"ingest:{day}", "POST", "/ingest", payload, "application/x-ndjson")
                batches.append((send(conn, request), events))
            days_sent.append(day)
            if len(days_sent) >= MIN_INGEST_DAYS and time.perf_counter() - started >= seconds:
                break
        batches.append((send(conn, Request("ingest:flush", "POST", "/ingest?flush=1")), 0))
        wall_s = time.perf_counter() - started
    finally:
        poller.finish()
    day_checks = [send(conn, inputs.day_request(day)) for day in days_sent]
    conn.close()
    return IngestRun(batches, days_sent, poller, wall_s, day_checks)


def forest_content(model: Path) -> List[Tuple[int, list]]:
    """Every day's micro-clusters as exact (sensor, severity) and (window,
    severity) items, in stored order, cluster ids left out."""
    from repro.storage.forest_io import load_forest

    forest = load_forest(model / "forest.bin")
    return [
        (day, [(sorted(c.spatial.items()), sorted(c.temporal.items()))
               for c in forest.day_clusters(day)])
        for day in forest.days
    ]


def serial_reference(data: Path, days: int, out: Path) -> Path:
    """The model a serial batch build of the first ``days`` days saves."""
    from repro.analysis.engine import AnalysisEngine
    from repro.simulate.generator import TrafficSimulator
    from repro.storage.catalog import DatasetCatalog

    engine = AnalysisEngine.from_simulator(TrafficSimulator.from_catalog_dir(data))
    engine.build_from_catalog(DatasetCatalog(data), range(days))
    shutil.rmtree(out, ignore_errors=True)
    engine.save(out, forest_format="columnar")
    return out


def split_batches(samples: Sequence[Sample]) -> Tuple[List[Sample], List[Sample]]:
    """(batches that closed no day, batches that closed one)."""
    ok = [s for s in samples if s.ok]
    return (
        [s for s in ok if not s.doc.get("closed_days")],
        [s for s in ok if s.doc.get("closed_days")],
    )


def ingest_backfill(seed: int, seconds: float) -> Outcome:
    outcome = Outcome("ingest_backfill")
    work = fresh_dir(OUT / "ingest_backfill")
    snapshots = work / "snapshots"

    def serve_flags():
        fresh_dir(snapshots)
        return ("--ingest", "--ingest-snapshot-dir", str(snapshots))

    data, server = served_setup(
        outcome, work, months=2, model_days=inputs.INGEST_BASE_DAYS,
        build_flags=INGEST_BUILD_FLAGS, serve_flags=serve_flags,
    )
    try:
        polls, by_day = ingest_inputs(data, seed, seconds)
        run = replay_ingest(server, polls, by_day, seconds)
        rss = server.peak_rss_mb()
    finally:
        outcome.count_stop(server)
    poller = run.poller
    samples = [s for s, _ in run.batches]
    golden = check.load_golden("ingest_backfill")
    for group in (samples, poller.samples, run.day_checks):
        outcome.count(group)
    outcome.check_answers(golden, poller.samples)
    outcome.check_answers(golden, run.day_checks)

    sent = sum(events for _, events in run.batches)
    accepted = sum(int(s.doc.get("accepted", 0)) for s in samples if s.ok)
    if accepted != sent:
        outcome.failed += 1
        outcome.wrong.append(f"accepted {accepted} of {sent} events")
    plain, closing = split_batches(samples)
    outcome.metric("ingest_events_per_s", accepted / run.wall_s, "1/s", len(samples), events=accepted)
    outcome.latency_metrics("ingest_batch", plain, tail=90)
    outcome.metric("dayclose_p50_ms", median([s.ms for s in closing]), "ms", len(closing))
    outcome.metric("server_rss_mb", rss, "MiB", 1)
    outcome.notes["days_replayed"] = len(run.days_sent)
    outcome.notes["poller"] = {
        "n": len(poller.samples),
        "p50_ms": median([s.ms for s in poller.samples if s.ok] or [0.0]),
        "generator_lag_ms": median(poller.lag_ms or [0.0]),
    }

    # streamed == batch: the cube byte for byte, the forest cluster for
    # cluster. (forest.bin itself cannot match: the poller's queries mint
    # macro-cluster ids from the shared generator between day closes, so
    # later micro-cluster ids are offset against a batch build.)
    last_day = run.days_sent[-1] + 1
    reference = serial_reference(data, last_day, work / "reference")
    current = snapshots / "current"
    outcome.attempted += 2
    if check.sha256_file(current / "cube.bin") != check.sha256_file(reference / "cube.bin"):
        outcome.failed += 1
        outcome.wrong.append(f"snapshot cube.bin differs from a batch build of days 0..{last_day - 1}")
    if forest_content(current) != forest_content(reference):
        outcome.failed += 1
        outcome.wrong.append(f"snapshot forest differs from a batch build of days 0..{last_day - 1}")
    shutil.rmtree(data, ignore_errors=True)
    return outcome.finish()


# ----------------------------------------------------------------------
# build_cold
# ----------------------------------------------------------------------
def build_cold(seed: int, seconds: float) -> Outcome:
    outcome = Outcome("build_cold")
    work = fresh_dir(OUT / "build_cold")
    reps = [generate_catalog(work, months=1) for _ in range(SETUP_REPS)]
    data = reps[-1][0]
    outcome.attempted += SETUP_REPS
    outcome.metric("setup_s", median([s for _, s in reps]), "s", SETUP_REPS,
                   runs=[s for _, s in reps])

    golden = check.load_golden("build_cold")
    questions = inputs.cold_requests(seed)
    days = inputs.BUILD_DAYS
    serial: List[float] = []
    parallel: List[float] = []
    cold: List[float] = []
    rss: List[float] = []
    digests = set()
    model_bytes = 0
    started = time.perf_counter()
    cycle = 0
    while cycle < MIN_BUILD_CYCLES or time.perf_counter() - started < seconds:
        first, second = work / "model-w1", work / "model-w2"
        serial.append(build_model(data, first, days, work / "build.log",
                                  extra=(*BUILD_FLAGS, "--workers", "1")))
        parallel.append(build_model(data, second, days, work / "build.log",
                                    extra=(*BUILD_FLAGS, "--workers", "2")))
        outcome.attempted += 2
        digests.add(check.sha256_file(first / "forest.bin"))
        digests.add(check.sha256_file(second / "forest.bin"))
        model_bytes = check.dir_bytes(first)

        for _ in range(COLD_STARTS_PER_CYCLE):
            question = questions[len(cold) % len(questions)]
            server = Server(data, first, name="build_cold.serve")
            try:
                conn = server.connect()
                answer = send(conn, question, started=server.spawned)
                conn.close()
                rss.append(server.peak_rss_mb())
            finally:
                outcome.count_stop(server)
            outcome.count([answer])
            outcome.check_answers(golden, [answer])
            cold.append(answer.ms / 1e3)
        cycle += 1

    outcome.attempted += 1
    if len(digests) != 1:
        outcome.failed += 1
        outcome.wrong.append(f"{len(digests)} distinct forest.bin digests over {2 * cycle} builds")
    outcome.metric("build_s", median(serial), "s", len(serial), runs=serial)
    outcome.metric("build_w2_s", median(parallel), "s", len(parallel), runs=parallel)
    outcome.metric("build_w2_days_per_s", days / median(parallel), "1/s", len(parallel))
    outcome.metric("cold_start_s", median(cold), "s", len(cold), runs=cold)
    outcome.metric("model_bytes", model_bytes, "bytes", 1)
    outcome.metric("server_rss_mb", median(rss), "MiB", len(rss), runs=rss)
    shutil.rmtree(data, ignore_errors=True)
    return outcome.finish()


WORKLOADS = {
    "query_wide": query_wide,
    "dashboard_poll": dashboard_poll,
    "ingest_backfill": ingest_backfill,
    "build_cold": build_cold,
}
