"""Exporter round trips: JSON, Prometheus exposition text, rendering."""

from __future__ import annotations

import json
import re

import pytest

from repro import obs

from tests.reference.promtext import parse_prometheus_text

# One exposition-format sample line: name, optional labels, value.
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? "
    r"(NaN|[-+]?Inf|[-+]?[0-9.eE+-]+)$"
)


@pytest.fixture()
def populated(registry):
    obs.counter("integration.merges").inc(12)
    obs.gauge("streaming.events.open").set(3)
    h = obs.histogram("kernels.batch_size")
    for value in (1, 7, 40, 9000, 50000):
        h.observe(value)
    with obs.span("query.run"):
        with obs.span("query.integrate"):
            pass
    return registry


class TestJson:
    def test_write_and_load_round_trip(self, populated, tmp_path):
        path = tmp_path / "metrics.json"
        obs.write_snapshot(populated, path)
        assert obs.load_snapshot(path) == json.loads(obs.to_json(populated.snapshot()))

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"not": "a snapshot"}')
        with pytest.raises(ValueError, match="not a metrics snapshot"):
            obs.load_snapshot(path)

    def test_creates_parent_directories(self, populated, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.json"
        obs.write_snapshot(populated, path)
        assert path.exists()


class TestPrometheus:
    def test_every_sample_line_parses(self, populated):
        text = obs.to_prometheus_text(populated.snapshot())
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) repro_[a-zA-Z0-9_:]+ ", line)
            else:
                assert _SAMPLE.match(line), f"unparseable sample: {line!r}"

    def test_type_declarations(self, populated):
        text = obs.to_prometheus_text(populated.snapshot())
        assert "# TYPE repro_integration_merges_total counter" in text
        assert "# TYPE repro_streaming_events_open gauge" in text
        assert "# TYPE repro_kernels_batch_size histogram" in text
        assert "# TYPE repro_span_duration_seconds summary" in text

    def test_histogram_buckets_cumulative_and_inf(self, populated):
        text = obs.to_prometheus_text(populated.snapshot())
        counts = [
            int(m.group(1))
            for m in re.finditer(
                r'repro_kernels_batch_size_bucket\{le="[^"]+"\} (\d+)', text
            )
        ]
        assert counts == sorted(counts)  # cumulative => non-decreasing
        inf = re.search(
            r'repro_kernels_batch_size_bucket\{le="\+Inf"\} (\d+)', text
        )
        total = re.search(r"repro_kernels_batch_size_count (\d+)", text)
        assert inf and total and inf.group(1) == total.group(1) == "5"

    def test_span_summary_samples(self, populated):
        text = obs.to_prometheus_text(populated.snapshot())
        assert 'repro_span_duration_seconds_count{span="query.run"} 1' in text


class TestChromeTrace:
    def test_snapshot_round_trip(self, populated, tmp_path):
        snap_path = tmp_path / "metrics.json"
        obs.write_snapshot(populated, snap_path)
        trace_path = tmp_path / "deep" / "trace.json"
        obs.write_chrome_trace(obs.load_snapshot(snap_path), trace_path)
        doc = json.loads(trace_path.read_text())
        names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert names == {"query.run", "query.integrate"}

    def test_document_shape(self, populated):
        doc = obs.to_chrome_trace(populated)
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        assert meta[0]["args"]["name"] == "repro"

    def test_complete_events_well_formed(self, populated):
        from repro.obs.tracing import TRACE_PID, TRACE_TID

        doc = obs.to_chrome_trace(populated)
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["pid"] == TRACE_PID
            assert event["tid"] == TRACE_TID
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 1
            assert event["cat"] == event["name"].split(".", 1)[0]

    def test_parent_child_containment(self, registry):
        with obs.span("query.run"):
            with obs.span("query.select"):
                with obs.span("forest.scan"):
                    pass
            with obs.span("query.integrate"):
                pass
        doc = obs.to_chrome_trace(registry)
        by_id = {
            e["args"]["span_id"]: e
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert len(by_id) == 4
        nested = 0
        for event in by_id.values():
            parent = by_id.get(event["args"]["parent_id"])
            if parent is None:
                continue
            nested += 1
            assert parent["ts"] <= event["ts"]
            assert (
                event["ts"] + event["dur"] <= parent["ts"] + parent["dur"]
            )
        assert nested == 3

    def test_attrs_become_args(self, registry):
        with obs.span("s", method="indexed") as sp:
            sp.set(merges=4)
        doc = obs.to_chrome_trace(registry)
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["method"] == "indexed"
        assert event["args"]["merges"] == 4

    def test_rejects_spanless_source(self):
        with pytest.raises(ValueError, match="no span list"):
            obs.to_chrome_trace({"spans": 3})


class TestRender:
    def test_mentions_every_metric(self, populated):
        out = obs.render_snapshot(populated.snapshot())
        for name in (
            "integration.merges",
            "streaming.events.open",
            "kernels.batch_size",
            "query.run",
            "query.integrate",
        ):
            assert name in out

    def test_empty_snapshot(self):
        out = obs.render_snapshot(obs.MetricsRegistry().snapshot())
        assert out == "(empty snapshot)"


class TestPrometheusRoundTrip:
    """parse_prometheus_text must invert to_prometheus_text exactly."""

    def test_full_registry_round_trip(self, registry):
        obs.counter("serve.requests").inc(7)
        obs.gauge("serve.in_flight").set(2)
        h = obs.histogram("serve.request_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        obs.window("serve.requests").record(7)
        with obs.span("handler"):
            pass
        text = obs.to_prometheus_text(registry.snapshot())
        parsed = parse_prometheus_text(text)
        assert parsed["counters"]["repro_serve_requests_total"] == 7
        assert parsed["gauges"]["repro_serve_in_flight"] == 2
        hist = parsed["histograms"]["repro_serve_request_seconds"]
        assert hist["buckets"] == [0.01, 0.1, 1.0]
        assert hist["counts"] == [1, 1, 1, 1]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(5.555)
        assert set(parsed["rates"]["repro_serve_requests_rate"]) == {"60s", "300s"}
        assert "handler" in parsed["summaries"]["repro_span_duration_seconds"]

    def test_hostile_span_label_values_survive(self, registry):
        hostile = 'a\\b"c\nd{e}=f,g'
        with obs.span(hostile):
            pass
        text = obs.to_prometheus_text(registry.snapshot())
        parsed = parse_prometheus_text(text)
        labels = parsed["summaries"]["repro_span_duration_seconds"]
        assert hostile in labels
        assert labels[hostile]["count"] == 1

    def test_hostile_metric_names_sanitized(self, registry):
        # non-ASCII alnum (isalnum() is true for these) must not leak into
        # prometheus names; neither may spaces or punctuation
        obs.counter("café.requêtes").inc()
        obs.counter("weird name!{}").inc(2)
        text = obs.to_prometheus_text(registry.snapshot())
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert all(c.isascii() and (c.isalnum() or c in "_:") for c in name), name
        parsed = parse_prometheus_text(text)
        assert parsed["counters"]["repro_caf__requ_tes_total"] == 1
        assert parsed["counters"]["repro_weird_name____total"] == 2

    def test_newline_in_help_cannot_inject_lines(self, registry):
        obs.counter("evil\nrepro_fake_total 999").inc()
        text = obs.to_prometheus_text(registry.snapshot())
        # the newline must be escaped inside HELP, not emitted raw
        assert "\nrepro_fake_total 999" not in text.replace("\\n", "")
        parsed = parse_prometheus_text(text)
        assert "repro_fake_total" not in parsed["counters"]

    def test_unknown_sample_rejected(self):
        with pytest.raises(ValueError, match="no preceding"):
            parse_prometheus_text("mystery_metric 5\n")
