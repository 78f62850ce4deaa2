"""``--regen-golden``: recompute the expected answers of every request any
seed can generate, from this commit's in-process ``ServeApp.dispatch``
over CLI-built models. Run it only when an answer is *meant* to change."""

from __future__ import annotations

import json
import shutil
from typing import Dict, Sequence

from bench import check, e2e, inputs, layers
from bench.loadgen import OUT, Request


def _answers(app, registry, requests: Sequence[Request]) -> Dict[str, dict]:
    from repro import obs

    answers: Dict[str, dict] = {}
    with obs.activate(registry):
        for request in requests:
            status, payload = layers.dispatch(app, request)
            if status != 200:
                raise RuntimeError(f"{request.key}: status {status}: {payload[:200]!r}")
            answers[request.key] = check.digest(json.loads(payload))
    return answers


def regenerate() -> None:
    work = e2e.fresh_dir(OUT / "golden")
    data, _ = e2e.generate_catalog(work, months=2)
    sensors = e2e.district_sensors(data)
    districts = sorted(sensors)

    month = work / "model-month"
    e2e.build_model(data, month, inputs.QUERY_MODEL_DAYS, work / "build.log")
    app, registry = layers.load_app(data, month)
    history = [inputs.panel_request(p, sensors) for p in inputs.history_population(districts)]
    dashboard = [inputs.panel_request(p, sensors) for p in inputs.dashboard_population(districts)]
    written = [
        check.save_golden("query_wide", _answers(app, registry, inputs.wide_population())),
        check.save_golden("dashboard_poll", _answers(app, registry, dashboard)),
        check.save_golden("build_cold", _answers(app, registry, inputs.cold_population())),
    ]

    # the days ingest_backfill can stream, from a batch build of the same catalog
    both = work / "model-both"
    e2e.build_model(data, both, inputs.INGEST_LAST_DAY, work / "build.log", extra=("--format", "columnar"))
    app_both, registry_both = layers.load_app(data, both)
    days = [inputs.day_request(d) for d in range(inputs.INGEST_BASE_DAYS, inputs.INGEST_LAST_DAY)]
    ingest = _answers(app, registry, history)
    ingest.update(_answers(app_both, registry_both, days))
    written.append(check.save_golden("ingest_backfill", ingest))

    for path in written:
        print(f"wrote {path}")
    shutil.rmtree(work, ignore_errors=True)
