"""Request lists, generated from ``--seed``.

Each workload draws from a fixed *population* of requests (so the golden
files cover every request any seed can produce) and the seed decides which
of them are sent and in what order. The program only ever sees the
generated requests.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from bench.loadgen import Request

#: Days in the model the two query workloads are served from (month 1).
QUERY_MODEL_DAYS = 31
#: Days in the model ``ingest_backfill`` starts from; the replay begins here.
INGEST_BASE_DAYS = 31
#: Last day (exclusive) the two-month ingest catalog holds.
INGEST_LAST_DAY = 61
#: Days each ``build_cold`` build covers.
BUILD_DAYS = 31

WIDE_WINDOWS = (8, 9, 10, 11, 12)
POLL_PANELS_PER_RUN = 8
POPULATION_SIZE = 64
#: The first question asked of a new server is small, so ``cold_start_s``
#: is start-up and model open, not query work that differs by question.
COLD_QUERY_DAYS = 1

#: The populations are drawn once from this fixed seed, never from ``--seed``.
_POPULATION_SEED = 20120401


def _query_body(first_day: int, days: int, sensors: Sequence[int] | None = None) -> bytes:
    spec: Dict[str, object] = {
        "first_day": first_day,
        "days": days,
        "strategy": "gui",
        "final_check": True,
    }
    if sensors is not None:
        spec["sensors"] = list(sensors)
    return json.dumps(spec).encode()


def wide_request(first_day: int, days: int) -> Request:
    """A whole-city ``gui`` + ``final_check`` query over ``days`` days."""
    return Request(f"wide:{first_day}+{days}", "POST", "/query", _query_body(first_day, days))


def wide_population(model_days: int = QUERY_MODEL_DAYS) -> List[Request]:
    """Every whole-city query with an 8-12 day window inside the model."""
    return [
        wide_request(first_day, days)
        for days in WIDE_WINDOWS
        for first_day in range(model_days - days + 1)
    ]


def wide_requests(seed: int, model_days: int = QUERY_MODEL_DAYS) -> List[Request]:
    """All distinct wide queries: the even ``first_day`` s, then the odd
    ones, each in a fixed shuffled order that ``seed`` only rotates.

    Only a prefix is sent (the run is time-bounded), and two things decide
    what that prefix measures. *Which* queries: cost depends on the days
    covered, and a seed-chosen subset moved ``query_p50_ms`` by 5-8 %
    between seeds; this commit completes about as many requests as there
    are even ``first_day`` s (56), so every seed sends nearly the same set.
    *In what order*: two clients queue behind one lock, so a request's
    latency is its own service time plus its predecessor's, and the median
    of those sums moved by 6 % between shuffles of the same set. A rotation
    keeps every request's predecessor. A faster program goes on into the
    odd ``first_day`` s; no request ever repeats.
    """
    halves: List[List[Request]] = [[], []]
    for request in wide_population(model_days):
        halves[json.loads(request.body)["first_day"] % 2].append(request)
    ordered: List[Request] = []
    for half in halves:
        random.Random(_POPULATION_SEED).shuffle(half)
        turn = seed % len(half)
        ordered += half[turn:] + half[:turn]
    return ordered


# ----------------------------------------------------------------------
# Panels: a few districts' sensors over a short window
# ----------------------------------------------------------------------
Panel = Tuple[Tuple[int, ...], int, int]  # (district ids, first_day, days)


def _panel_population(
    district_ids: Sequence[int],
    districts_per_panel: Tuple[int, int],
    first_day_of: Callable[[random.Random, int], int],
) -> List[Panel]:
    rng = random.Random(_POPULATION_SEED)
    panels: List[Panel] = []
    seen = set()
    while len(panels) < POPULATION_SIZE:
        count = rng.randint(*districts_per_panel)
        chosen = tuple(sorted(rng.sample(list(district_ids), count)))
        days = rng.randint(1, 3)
        panel = (chosen, first_day_of(rng, days), days)
        if panel not in seen:
            seen.add(panel)
            panels.append(panel)
    return panels


def dashboard_population(district_ids: Sequence[int], model_days: int = QUERY_MODEL_DAYS) -> List[Panel]:
    """64 dashboard panels: 2-4 districts, the model's last 1-3 days."""
    return _panel_population(
        district_ids, (2, 4), lambda rng, days: model_days - days
    )


def history_population(district_ids: Sequence[int], base_days: int = INGEST_BASE_DAYS) -> List[Panel]:
    """64 narrow panels: 1-2 districts, 1-3 days anywhere in the base model."""
    return _panel_population(
        district_ids, (1, 2), lambda rng, days: rng.randint(0, base_days - days)
    )


def panel_request(panel: Panel, district_sensors: Mapping[int, Sequence[int]]) -> Request:
    districts, first_day, days = panel
    sensors = sorted(s for d in districts for s in district_sensors[d])
    key = "panel:" + "+".join(f"d{d}" for d in districts) + f":{first_day}+{days}"
    return Request(key, "POST", "/query", _query_body(first_day, days, sensors))


def pick_panels(
    population: Sequence[Panel],
    district_sensors: Mapping[int, Sequence[int]],
    seed: int,
    count: int,
) -> List[Request]:
    """``count`` panels of the population, chosen and ordered by ``seed``."""
    rng = random.Random(seed)
    return [panel_request(p, district_sensors) for p in rng.sample(list(population), count)]


# ----------------------------------------------------------------------
# build_cold and the post-flush check
# ----------------------------------------------------------------------
def cold_population(build_days: int = BUILD_DAYS) -> List[Request]:
    """Whole-city one-day queries: the first question asked of a new server."""
    return [
        Request(f"cold:{d}+{COLD_QUERY_DAYS}", "POST", "/query", _query_body(d, COLD_QUERY_DAYS))
        for d in range(build_days - COLD_QUERY_DAYS + 1)
    ]


def cold_requests(seed: int) -> List[Request]:
    population = cold_population()
    random.Random(seed).shuffle(population)
    return population


def day_request(day: int) -> Request:
    """The whole-city query over one ingested day (post-flush check)."""
    return Request(f"day:{day}", "POST", "/query", _query_body(day, 1))


# ----------------------------------------------------------------------
# Event batches (reads the generated catalog; set-up only)
# ----------------------------------------------------------------------
def event_batches(data_dir, first_day: int, last_day: int, windows_per_batch: int = 12) -> Iterator[Tuple[int, int, bytes]]:
    """Yield ``(day, events, ndjson)`` batches of the stored atypical
    records of days ``first_day .. last_day - 1`` in stream order: sorted
    by window then sensor, at most ``windows_per_batch`` distinct windows
    per batch, never crossing a day boundary."""
    import numpy as np

    from repro.storage.catalog import DatasetCatalog

    for dataset in DatasetCatalog(data_dir):
        for day in dataset.days:
            if not first_day <= day < last_day:
                continue
            batch = dataset.atypical_day(day)
            order = np.lexsort((batch.sensor_ids, batch.windows))
            sensors = batch.sensor_ids[order].tolist()
            windows = batch.windows[order].tolist()
            severities = batch.severities[order].tolist()
            lines: List[str] = []
            seen_windows = set()
            for sensor, window, severity in zip(sensors, windows, severities):
                if window not in seen_windows and len(seen_windows) >= windows_per_batch:
                    yield day, len(lines), ("\n".join(lines) + "\n").encode()
                    lines, seen_windows = [], set()
                seen_windows.add(window)
                lines.append(
                    '{"sensor":%d,"window":%d,"severity":%r}' % (sensor, window, severity)
                )
            if lines:
                yield day, len(lines), ("\n".join(lines) + "\n").encode()
