"""Tests for SLO declarations, burn-rate math, and alert states."""

from __future__ import annotations

import json

import pytest

from repro.obs.slo import (
    DEFAULT_WINDOWS,
    SLO,
    SLOConfig,
    SLOEngine,
    SLOError,
    check_doc,
    evaluate_snapshot,
    load_slo_config,
    parse_simple_yaml,
    worst_state,
)
from repro.obs.tsdb import TimeSeriesStore

T0 = 1_000_000.0

REFERENCE_YAML = """\
# production objectives for repro serve
slos:
  - name: availability
    kind: availability
    objective: 0.99
  - name: fast-queries
    kind: latency
    objective: 0.95
    threshold: 0.5
  - name: error-budget
    kind: error_rate
    threshold: 0.01
min_requests: 5
windows:
  fast:
    factor: 14.4
  slow:
    factor: 6.0
"""


class TestSimpleYaml:
    def test_reference_config_shape(self):
        doc = parse_simple_yaml(REFERENCE_YAML)
        assert isinstance(doc, dict)
        assert [s["name"] for s in doc["slos"]] == [
            "availability",
            "fast-queries",
            "error-budget",
        ]
        assert doc["slos"][1]["threshold"] == 0.5
        assert doc["min_requests"] == 5
        assert doc["windows"]["fast"]["factor"] == 14.4

    def test_matches_pyyaml_when_available(self):
        yaml = pytest.importorskip("yaml")
        assert parse_simple_yaml(REFERENCE_YAML) == yaml.safe_load(
            REFERENCE_YAML
        )

    def test_scalar_types(self):
        doc = parse_simple_yaml(
            'a: true\nb: null\nc: 3\nd: 0.5\ne: "quoted # text"\nf: bare\n'
        )
        assert doc == {
            "a": True,
            "b": None,
            "c": 3,
            "d": 0.5,
            "e": "quoted # text",
            "f": "bare",
        }

    def test_scalar_list(self):
        assert parse_simple_yaml("items:\n  - 1\n  - two\n") == {
            "items": [1, "two"]
        }

    def test_rejects_tabs(self):
        with pytest.raises(SLOError):
            parse_simple_yaml("a:\n\tb: 1\n")

    def test_rejects_inconsistent_indentation(self):
        with pytest.raises(SLOError):
            parse_simple_yaml("a:\n  b: 1\n   c: 2\n")


class TestLoadConfig:
    def _write(self, tmp_path, text, name="slo.yaml"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_loads_reference_yaml(self, tmp_path):
        config = load_slo_config(self._write(tmp_path, REFERENCE_YAML))
        assert [s.kind for s in config.slos] == [
            "availability",
            "latency",
            "error_rate",
        ]
        assert config.slos[1].threshold_seconds == 0.5
        # error_rate threshold becomes the budget
        assert config.slos[2].budget == pytest.approx(0.01)
        assert config.min_requests == 5.0
        # PAGE-state windows sort first
        assert [w.state for w in config.windows] == ["PAGE", "WARN"]

    def test_loads_json(self, tmp_path):
        path = self._write(
            tmp_path,
            json.dumps({"slos": [{"name": "a", "objective": 0.999}]}),
            name="slo.json",
        )
        config = load_slo_config(path)
        assert config.slos[0].budget == pytest.approx(0.001)
        assert config.windows == DEFAULT_WINDOWS

    def test_missing_file(self, tmp_path):
        with pytest.raises(SLOError, match="no such SLO config"):
            load_slo_config(tmp_path / "nope.yaml")

    def test_needs_slos_list(self, tmp_path):
        with pytest.raises(SLOError, match="non-empty 'slos' list"):
            load_slo_config(self._write(tmp_path, "slos: []\n"))

    def test_unknown_kind(self, tmp_path):
        text = "slos:\n  - name: x\n    kind: throughput\n"
        with pytest.raises(SLOError, match="unknown kind"):
            load_slo_config(self._write(tmp_path, text))

    def test_latency_needs_threshold(self, tmp_path):
        text = "slos:\n  - name: x\n    kind: latency\n"
        with pytest.raises(SLOError, match="need a threshold"):
            load_slo_config(self._write(tmp_path, text))

    def test_objective_out_of_range(self, tmp_path):
        text = "slos:\n  - name: x\n    objective: 1.5\n"
        with pytest.raises(SLOError, match="objective must be in"):
            load_slo_config(self._write(tmp_path, text))

    def test_duplicate_names(self, tmp_path):
        text = "slos:\n  - name: x\n  - name: x\n"
        with pytest.raises(SLOError, match="duplicate SLO name"):
            load_slo_config(self._write(tmp_path, text))

    def test_bad_window_spec(self, tmp_path):
        text = (
            REFERENCE_YAML
            + "  broken:\n    short: 60\n    long: 30\n    factor: 2\n"
        )
        with pytest.raises(SLOError, match="0 < short < long"):
            load_slo_config(self._write(tmp_path, text))


def test_worst_state():
    assert worst_state([]) == "OK"
    assert worst_state(["OK", "WARN"]) == "WARN"
    assert worst_state(["WARN", "PAGE", "OK"]) == "PAGE"
    with pytest.raises(SLOError):
        worst_state(["BROKEN"])


def _feed(store, minutes, requests_per_min, errors_per_min, start, req=0.0, err=0.0):
    """Append one sample per minute; returns the running totals."""
    for m in range(minutes):
        req += requests_per_min
        err += errors_per_min
        store.ingest(
            {
                "t": start + (m + 1) * 60.0,
                "series": {"serve.requests": req, "serve.errors": err},
                "kinds": {"serve.requests": "counter", "serve.errors": "counter"},
            }
        )
    return req, err


class TestBurnRateTransition:
    """The acceptance scenario: a synthetic series walks OK → WARN → PAGE."""

    def _engine(self):
        config = SLOConfig(
            slos=(SLO(name="availability", kind="availability", objective=0.99),)
        )
        return SLOEngine(config, TimeSeriesStore())

    def test_ok_then_warn_then_page(self):
        engine = self._engine()
        store = engine.store
        # 2h of clean traffic at 60 req/min
        req, err = _feed(store, 120, 60.0, 0.0, T0)
        report = engine.evaluate(now=T0 + 2 * 3600)
        assert report.state == "OK"
        assert not any(
            w.triggered for s in report.statuses for w in s.windows
        )

        # 4h at a 10% error rate: burn 10x trips the slow (6x) pair but
        # stays under the fast 14.4x factor -> WARN, not PAGE
        req, err = _feed(store, 240, 60.0, 6.0, T0 + 2 * 3600, req, err)
        report = engine.evaluate(now=T0 + 6 * 3600)
        assert report.state == "WARN"
        status = report.statuses[0]
        by_name = {w.name: w for w in status.windows}
        assert by_name["slow"].triggered
        assert not by_name["fast"].triggered
        assert by_name["slow"].short_burn == pytest.approx(10.0, rel=0.05)
        assert by_name["slow"].long_burn >= 6.0

        # 1h at 20% errors: both fast windows burn 20x >= 14.4 -> PAGE
        _feed(store, 60, 60.0, 12.0, T0 + 6 * 3600, req, err)
        report = engine.evaluate(now=T0 + 7 * 3600)
        assert report.state == "PAGE"
        by_name = {
            w.name: w for w in report.statuses[0].windows
        }
        assert by_name["fast"].triggered
        assert by_name["fast"].short_burn == pytest.approx(20.0, rel=0.05)
        assert by_name["fast"].long_burn >= 14.4

    def test_quiet_service_never_fires(self):
        # min_requests guards the zero-traffic case: no samples, no alert
        engine = self._engine()
        report = engine.evaluate(now=T0)
        assert report.state == "OK"

    def test_report_document_shape(self):
        engine = self._engine()
        _feed(engine.store, 10, 60.0, 0.0, T0)
        doc = engine.evaluate(now=T0 + 600).to_dict()
        assert doc["version"] == 1
        assert doc["state"] == "OK"
        assert doc["source"] == "tsdb"
        slo_doc = doc["slos"][0]
        assert slo_doc["name"] == "availability"
        assert slo_doc["budget"] == pytest.approx(0.01)
        assert {w["name"] for w in slo_doc["windows"]} == {"fast", "slow"}
        json.dumps(doc)


class TestLatencySLO:
    def _engine(self, threshold=0.5):
        config = SLOConfig(
            slos=(
                SLO(
                    name="fast",
                    kind="latency",
                    objective=0.9,
                    threshold_seconds=threshold,
                ),
            ),
            min_requests=1.0,
        )
        return SLOEngine(config, TimeSeriesStore())

    def _feed_latency(self, store, minutes, per_min, fast_per_min, start):
        count = fast = 0.0
        for m in range(minutes):
            count += per_min
            fast += fast_per_min
            store.ingest(
                {
                    "t": start + (m + 1) * 60.0,
                    "series": {
                        "serve.request_seconds:count": count,
                        "serve.request_seconds:le:0.25": fast * 0.5,
                        "serve.request_seconds:le:0.5": fast,
                        "serve.request_seconds:le:1": count,
                    },
                    "kinds": {
                        "serve.request_seconds:count": "counter",
                        "serve.request_seconds:le:0.25": "counter",
                        "serve.request_seconds:le:0.5": "counter",
                        "serve.request_seconds:le:1": "counter",
                    },
                }
            )

    def test_good_series_picks_covering_bound(self):
        engine = self._engine(threshold=0.4)
        self._feed_latency(engine.store, 5, 60.0, 60.0, T0)
        # smallest bound >= 0.4 is 0.5
        assert engine._latency_good_series(engine.config.slos[0]).endswith(
            ":le:0.5"
        )

    def test_no_covering_bound_counts_all_good(self):
        engine = self._engine(threshold=5.0)
        self._feed_latency(engine.store, 5, 60.0, 0.0, T0)
        assert engine._latency_good_series(engine.config.slos[0]) is None
        report = engine.evaluate(now=T0 + 300)
        assert report.state == "OK"

    def test_slow_requests_burn_the_budget(self):
        engine = self._engine(threshold=0.5)
        # 50% of requests miss the 0.5s bound against a 10% budget: burn
        # 5x everywhere -- not enough for the default windows
        self._feed_latency(engine.store, 10, 60.0, 30.0, T0)
        report = engine.evaluate(now=T0 + 600)
        assert report.state == "OK"
        fast = report.statuses[0].windows[0]
        assert fast.short_burn == pytest.approx(5.0, rel=0.05)
        # 100% misses: burn 10x short AND long < 14.4 -> still no PAGE,
        # but fraction is pinned
        engine2 = self._engine(threshold=0.5)
        self._feed_latency(engine2.store, 10, 60.0, 0.0, T0)
        report2 = engine2.evaluate(now=T0 + 600)
        fast2 = report2.statuses[0].windows[0]
        assert fast2.short_bad_fraction == pytest.approx(1.0)
        assert fast2.short_burn == pytest.approx(10.0)


class TestEvaluateSnapshot:
    def _config(self, **kwargs):
        defaults = dict(name="avail", kind="availability", objective=0.99)
        defaults.update(kwargs)
        return SLOConfig(slos=(SLO(**defaults),))

    def test_lifetime_availability(self):
        snapshot = {
            "counters": {"serve.requests": 1000.0, "serve.errors": 200.0}
        }
        report = evaluate_snapshot(self._config(), snapshot, now=T0)
        # 20% bad against a 1% budget: burn 20x fires both window pairs
        assert report.state == "PAGE"
        assert report.source == "lifetime"
        window = report.statuses[0].windows[0]
        assert window.short_burn == pytest.approx(20.0)

    def test_lifetime_clean(self):
        snapshot = {"counters": {"serve.requests": 1000.0, "serve.errors": 0.0}}
        assert evaluate_snapshot(self._config(), snapshot, now=T0).state == "OK"

    def test_lifetime_latency_histogram(self):
        config = self._config(
            name="lat", kind="latency", objective=0.95, threshold_seconds=0.5
        )
        snapshot = {
            "counters": {},
            "histograms": {
                "serve.request_seconds": {
                    "count": 100,
                    "sum": 90.0,
                    "buckets": [0.5, 1.0],
                    "counts": [10, 80],  # +10 overflow
                }
            },
        }
        report = evaluate_snapshot(config, snapshot, now=T0)
        window = report.statuses[0].windows[0]
        # 10 of 100 under 0.5s -> 90% bad against a 5% budget: burn 18x
        assert window.short_bad_fraction == pytest.approx(0.9)
        assert window.short_burn == pytest.approx(18.0)
        assert report.state == "PAGE"

    def test_missing_series_is_quiet(self):
        assert evaluate_snapshot(self._config(), {}, now=T0).state == "OK"


class TestCheckDoc:
    def _doc(self, state):
        return {
            "version": 1,
            "state": state,
            "source": "tsdb",
            "slos": [
                {
                    "name": "avail",
                    "state": state,
                    "description": "99.00% of requests succeed",
                    "windows": [
                        {"name": "fast", "short_burn": 2.0, "long_burn": 1.0}
                    ],
                }
            ],
        }

    def test_ok_exits_zero(self):
        code, lines = check_doc(self._doc("OK"))
        assert code == 0
        assert lines[-1].startswith("overall: OK")

    def test_warn_exits_zero(self):
        code, _ = check_doc(self._doc("WARN"))
        assert code == 0

    def test_page_exits_one(self):
        code, lines = check_doc(self._doc("PAGE"))
        assert code == 1
        assert "burn 2.0x" in lines[0] or "fast=2.0x" in lines[0]

    def test_malformed_doc_raises(self):
        with pytest.raises(SLOError):
            check_doc({"hello": "world"})
        with pytest.raises(SLOError):
            check_doc({"state": "MAYBE", "slos": []})


def test_describe_lines():
    lat = SLO(name="l", kind="latency", objective=0.95, threshold_seconds=0.5)
    err = SLO(name="e", kind="error_rate", objective=0.99)
    avail = SLO(name="a", kind="availability", objective=0.999)
    assert "under 0.5s" in lat.describe()
    assert "below 1.00%" in err.describe()
    assert "99.90%" in avail.describe()


class TestProfileExemplar:
    """The profile exemplar is retired with the continuous profiler; the
    trace ids are the one exemplar an alert carries."""

    def test_ok_without_profiler_stays_none(self):
        config = SLOConfig(
            slos=(SLO(name="availability", kind="availability", objective=0.99),)
        )
        with pytest.raises(TypeError):
            SLOEngine(config, TimeSeriesStore(), profiler=object())
        engine = SLOEngine(config, TimeSeriesStore())
        _feed(engine.store, 60, 60.0, 12.0, T0)
        status = engine.evaluate(now=T0 + 3600).statuses[0]
        assert status.state == "PAGE"
        assert not hasattr(status, "exemplar_profile_id")
        assert "exemplar_profile_id" not in status.to_dict()
