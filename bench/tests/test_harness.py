"""The harness's own arithmetic: percentiles, request lists, digests,
self time, agreement. None of these tests start the program."""

import json

import pytest

from bench import agree, check, inputs, loadgen, trace

DISTRICTS = {d: [d * 10 + i for i in range(3)] for d in range(12)}


class TestPercentiles:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert loadgen.percentile(samples, 50) == 50
        assert loadgen.percentile(samples, 90) == 90
        assert loadgen.percentile(samples, 100) == 100
        assert loadgen.percentile([7.0], 90) == 7.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            loadgen.percentile([], 50)

    def test_ten_samples_beyond_rule(self):
        # p90 needs 100 samples to have ten beyond it; 99 leave nine
        assert loadgen.samples_beyond(100, 90) == 10
        assert loadgen.samples_beyond(99, 90) == 9
        assert loadgen.highest_supported(100) == 90
        assert loadgen.highest_supported(99) == 75
        assert loadgen.highest_supported(40) == 75
        assert loadgen.highest_supported(39) == 50
        assert loadgen.highest_supported(19) is None


class TestRequestLists:
    def test_same_seed_same_requests(self):
        assert inputs.wide_requests(11) == inputs.wide_requests(11)
        population = inputs.history_population(sorted(DISTRICTS))
        assert inputs.pick_panels(population, DISTRICTS, 11, 8) == inputs.pick_panels(
            population, DISTRICTS, 11, 8
        )
        assert inputs.cold_requests(3) == inputs.cold_requests(3)

    def test_other_seed_other_order(self):
        assert inputs.wide_requests(11) != inputs.wide_requests(12)
        assert inputs.cold_requests(3) != inputs.cold_requests(4)

    def test_wide_requests_are_the_whole_population_once(self):
        requests = inputs.wide_requests(5)
        keys = [r.key for r in requests]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {r.key for r in inputs.wide_population()}

    def test_every_seed_starts_with_the_same_wide_set(self):
        def first_days(requests):
            return [json.loads(r.body)["first_day"] for r in requests]

        a, b = inputs.wide_requests(9), inputs.wide_requests(10)
        even = sum(1 for d in first_days(a) if d % 2 == 0)
        assert even == 56
        assert all(d % 2 == 0 for d in first_days(a[:even]))
        assert {r.key for r in a[:even]} == {r.key for r in b[:even]}
        # the seed rotates the order: every request keeps its predecessor
        assert [r.key for r in a[1:even]] + [a[0].key] == [r.key for r in b[:even]]

    def test_panels_come_from_the_population(self):
        population = inputs.history_population(sorted(DISTRICTS))
        assert len(set(population)) == inputs.POPULATION_SIZE
        known = {inputs.panel_request(p, DISTRICTS).key for p in population}
        picked = inputs.pick_panels(population, DISTRICTS, 4, 8)
        assert len({r.key for r in picked}) == 8
        assert {r.key for r in picked} <= known
        for districts, first_day, days in population:
            assert 1 <= len(districts) <= 2
            assert 0 <= first_day and first_day + days <= inputs.INGEST_BASE_DAYS

    def test_dashboard_panels_end_at_the_last_day(self):
        for districts, first_day, days in inputs.dashboard_population(sorted(DISTRICTS)):
            assert 2 <= len(districts) <= 4
            assert first_day + days == inputs.QUERY_MODEL_DAYS


def _doc(severity=1234.56789, sensors=7):
    return {
        "returned": 3,
        "request_id": "req-000001-abcd",
        "clusters": [
            {"severity": severity, "num_sensors": sensors, "worst_sensor": 19,
             "start_label": "07:30-07:35", "peak_label": "08:00-08:05", "cluster_id": 99},
        ],
    }


class TestDigest:
    def test_ignores_ids_and_last_digits(self):
        expected = check.digest(_doc())
        noisy = _doc(severity=1234.56789 * (1 + 1e-9))
        noisy["clusters"][0]["cluster_id"] = 12345
        noisy["request_id"] = "other"
        assert check.matches(expected, check.digest(noisy))

    def test_sees_the_sixth_digit(self):
        expected = check.digest(_doc())
        assert not check.matches(expected, check.digest(_doc(severity=1234.56789 * (1 + 1e-5))))

    def test_sees_counts_and_shape(self):
        expected = check.digest(_doc())
        assert not check.matches(expected, check.digest(_doc(sensors=8)))
        fewer = _doc()
        fewer["returned"] = 2
        assert not check.matches(expected, check.digest(fewer))
        empty = _doc()
        empty["clusters"] = []
        assert not check.matches(expected, check.digest(empty))

    def test_wrong_answers_lists_unknown_and_mismatched_keys(self):
        golden = {"a": check.digest(_doc())}
        samples = [
            loadgen.Sample("a", 1.0, True, doc=_doc()),
            loadgen.Sample("a", 1.0, True, doc=_doc(sensors=9)),
            loadgen.Sample("b", 1.0, True, doc=_doc()),
            loadgen.Sample("a", 1.0, False, error="http_500"),
        ]
        assert check.wrong_answers(golden, samples) == ["a", "b"]

    def test_golden_files_cover_every_generated_request(self):
        wide = check.load_golden("query_wide")
        assert {r.key for r in inputs.wide_population()} == set(wide)
        cold = check.load_golden("build_cold")
        assert {r.key for r in inputs.cold_population()} == set(cold)
        ingest = check.load_golden("ingest_backfill")
        for day in range(inputs.INGEST_BASE_DAYS, inputs.INGEST_LAST_DAY):
            assert inputs.day_request(day).key in ingest


def _span(i, name, start, end, parent=None, request="r"):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "request": request, "counts": {}}


class TestSelfTime:
    def test_self_time_is_span_minus_children(self):
        spans = [
            _span(0, "dispatch", 0.0, 10.0),
            _span(1, "query", 1.0, 8.0, parent=0),
            _span(2, "select", 2.0, 5.0, parent=1),
            _span(3, "integrate", 5.0, 7.0, parent=1),
        ]
        own = trace.self_times(spans)
        assert own == {0: 3.0, 1: 2.0, 2: 3.0, 3: 2.0}
        assert sum(own.values()) == 10.0

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            _span(0, "parent", 0.0, 10.0),
            _span(1, "a", 1.0, 6.0, parent=0),
            _span(2, "b", 4.0, 8.0, parent=0),
        ]
        assert trace.self_times(spans)[0] == 3.0

    def test_per_request_sums_by_request(self):
        spans = [
            _span(0, "select", 0.0, 0.002, request="r1"),
            _span(1, "select", 0.003, 0.004, request="r1"),
            _span(2, "select", 0.0, 0.005, request="r2"),
        ]
        totals = trace.per_request(spans, "select")
        assert totals["r1"] == pytest.approx(3.0)
        assert totals["r2"] == pytest.approx(5.0)

    def test_tracer_records_nesting_and_restores_what_it_wrapped(self):
        class Layer:
            def work(self, n):
                return n + 1

        tracer = trace.Tracer()
        tracer.wrap(Layer, "work", "layer.work", lambda args, kwargs, result: {"out": result})
        with tracer.request("r9"):
            with tracer.span("outer"):
                assert Layer().work(1) == 2
        tracer.unwrap_all()
        assert Layer.work.__name__ == "work" and "work" in vars(Layer)
        outer, inner = tracer.spans
        assert inner["parent"] == outer["id"] and inner["request"] == "r9"
        assert inner["counts"] == {"out": 2}
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


class TestAgree:
    def _result(self, p50, errors=0.0):
        return {"workloads": {"w": {
            "contract_metrics": {"op_p50_ms": {"value": p50, "unit": "ms"}},
            "metrics": {"error_share": {"value": errors}},
        }}}

    def test_within_and_outside_the_bound(self):
        bounds = {"op_p50_ms": 0.10}
        rows = agree.compare(self._result(100.0), self._result(109.0), bounds)
        assert all(row[5] for row in rows)
        rows = agree.compare(self._result(100.0), self._result(111.0), bounds)
        assert [row[5] for row in rows] == [False, True]

    def test_error_share_may_not_rise(self):
        rows = agree.compare(self._result(100.0), self._result(100.0, errors=0.01), {"op_p50_ms": 0.1})
        assert [row[5] for row in rows] == [True, False]
