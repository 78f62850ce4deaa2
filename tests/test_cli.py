"""Tests for the command-line interface."""

import importlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.simulate import SimulationConfig


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("trace")
    code = main(
        ["generate", "--out", str(directory), "--scale", "small", "--months", "1"]
    )
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, trace_dir):
    directory = tmp_path_factory.mktemp("model")
    code = main(
        ["build", "--data", str(trace_dir), "--model", str(directory), "--days", "7"]
    )
    assert code == 0
    return directory


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--out", "x", "--scale", "benchmark", "--seed", "3"]
        )
        assert args.scale == "benchmark"
        assert args.seed == 3

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "--data", "d", "--model", "m"])
        assert args.strategy == "gui"
        assert args.days == 7
        assert not args.final_check

    def test_common_flags_on_every_subcommand(self):
        parser = build_parser()
        cases = {
            "generate": ["generate", "--out", "x"],
            "build": ["build", "--data", "d", "--model", "m"],
            "query": ["query", "--data", "d", "--model", "m"],
            "info": ["info", "--data", "d"],
            "stats": ["stats", "m.json"],
            "convert": ["convert", "m", "--to", "columnar"],
        }
        for command, argv in cases.items():
            args = parser.parse_args(
                argv + ["--log-level", "debug", "--metrics-out", "m.json"]
            )
            assert args.command == command
            assert args.log_level == "debug"
            assert str(args.metrics_out) == "m.json"

    def test_workers_is_a_build_flag_only(self, capsys):
        parser = build_parser()
        args = parser.parse_args(
            ["build", "--data", "d", "--model", "m", "--workers", "2"]
        )
        assert args.workers == 2 and args.shard_by == "day"
        for flag in (["--workers", "2"], ["--shard-by", "day"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["query", "--data", "d", "--model", "m", *flag])
            assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRetiredBench:
    """The in-process benchmark is gone; ``bench/`` is the only yardstick."""

    def test_bench_subcommand_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_perf_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(".perf", package="repro")


class TestGenerate(object):
    def test_trace_files_exist(self, trace_dir):
        assert (trace_dir / "catalog.json").exists()
        assert (trace_dir / "simulation.json").exists()
        assert (trace_dir / "D1.cps").exists()

    def test_months_validation(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path), "--months", "99"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""

    def test_config_is_small_profile(self, trace_dir):
        stored = json.loads((trace_dir / "simulation.json").read_text())
        config = SimulationConfig.from_dict(stored)
        assert config.month_lengths == (31,)


class TestBuildAndQuery:
    def test_model_files(self, model_dir):
        assert (model_dir / "forest.bin").exists()
        assert (model_dir / "cube.bin").exists()
        assert (model_dir / "engine.json").exists()

    def test_query_prints_report(self, trace_dir, model_dir, capsys):
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "7",
                "--strategy", "gui",
                "--final-check",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "via gui" in out
        assert "Significant congestion clusters" in out

    def test_query_compare(self, trace_dir, model_dir, capsys):
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "7",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "all" in out and "pru" in out

    def test_info(self, trace_dir, capsys):
        assert main(["info", "--data", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "sensors:" in out
        assert "D1" in out

    def test_build_columnar_and_query(self, trace_dir, tmp_path, capsys):
        from repro.storage.columnar import sniff_format

        model = tmp_path / "model"
        code = main(
            [
                "build",
                "--data", str(trace_dir),
                "--model", str(model),
                "--days", "7",
                "--format", "columnar",
            ]
        )
        assert code == 0
        assert "(columnar forest)" in capsys.readouterr().out
        assert sniff_format(model / "forest.bin") == "columnar"
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model),
                "--days", "3",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "forest_io.bytes_mapped=" in out
        assert "forest_io.bytes_loaded=" in out


class TestConvert:
    @pytest.fixture()
    def copied_model(self, model_dir, tmp_path):
        import shutil

        target = tmp_path / "model"
        shutil.copytree(model_dir, target)
        return target

    def test_round_trip_preserves_bytes(self, copied_model, capsys):
        original = (copied_model / "forest.bin").read_bytes()
        assert main(["convert", str(copied_model), "--to", "columnar"]) == 0
        assert "pickle -> columnar" in capsys.readouterr().out
        assert (copied_model / "forest.bin").read_bytes() != original
        assert main(["convert", str(copied_model), "--to", "pickle"]) == 0
        assert "columnar -> pickle" in capsys.readouterr().out
        assert (copied_model / "forest.bin").read_bytes() == original

    def test_noop_convert(self, copied_model, capsys):
        assert main(["convert", str(copied_model), "--to", "pickle"]) == 0
        assert "already pickle; nothing to do" in capsys.readouterr().out

    def test_accepts_forest_file_path(self, copied_model, capsys):
        path = copied_model / "forest.bin"
        assert main(["convert", str(path), "--to", "columnar"]) == 0
        assert "converted" in capsys.readouterr().out

    def test_missing_model_exits_2(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "nope"), "--to", "columnar"])
        assert code == 2
        assert "no forest file" in capsys.readouterr().err

    def test_corrupt_file_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "forest.bin"
        path.write_bytes(b"this is not a forest container")
        code = main(["convert", str(path), "--to", "columnar"])
        assert code == 2
        captured = capsys.readouterr()
        assert "not a forest file" in captured.err
        assert captured.err.count("\n") == 1  # one line, no traceback

    def test_future_version_one_line_error(self, copied_model, capsys):
        assert main(["convert", str(copied_model), "--to", "columnar"]) == 0
        capsys.readouterr()
        path = copied_model / "forest.bin"
        data = bytearray(path.read_bytes())
        data[4] = 9
        path.write_bytes(bytes(data))
        code = main(["convert", str(copied_model), "--to", "pickle"])
        assert code == 2
        captured = capsys.readouterr()
        assert "newer than this build" in captured.err
        assert captured.err.count("\n") == 1


class TestMetricsOut:
    def test_build_writes_extraction_snapshot(
        self, trace_dir, tmp_path, capsys
    ):
        metrics = tmp_path / "build_metrics.json"
        code = main(
            [
                "build",
                "--data", str(trace_dir),
                "--model", str(tmp_path / "model"),
                "--days", "3",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        snapshot = obs.load_snapshot(metrics)
        names = {s["name"] for s in snapshot["spans"]}
        assert {"build.catalog", "extract.day"} <= names
        assert snapshot["counters"]["extract.records"] > 0
        assert snapshot["counters"]["extract.micro_clusters"] > 0

    def test_query_snapshot_and_stats_round_trip(
        self, trace_dir, model_dir, tmp_path, capsys
    ):
        metrics = tmp_path / "query_metrics.json"
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "7",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        snapshot = obs.load_snapshot(metrics)
        names = {s["name"] for s in snapshot["spans"]}
        assert {"query.run", "query.integrate", "integrate.fixpoint"} <= names
        counters = snapshot["counters"]
        assert "similarity.cache.hits" in counters
        assert "similarity.cache.misses" in counters
        assert counters["integration.comparisons"] > 0
        capsys.readouterr()

        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "integrate.fixpoint" in out
        assert "similarity.cache.hits" in out

        assert main(["stats", str(metrics), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_integration_comparisons_total counter" in out

    def test_stats_missing_file(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stats_rejects_non_snapshot(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"workload": {}}')
        code = main(["stats", str(path)])
        assert code == 2
        assert "not a metrics snapshot" in capsys.readouterr().err

    def test_stats_corrupt_json_no_traceback(self, tmp_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json")
        code = main(["stats", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error" in captured.err and str(path) in captured.err
        assert captured.err.count("\n") == 1  # one line, no traceback

    def test_stats_unreadable_path(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path)])  # a directory, not a file
        assert code == 2
        assert "cannot read snapshot" in capsys.readouterr().err

    def test_observability_disabled_without_flag(self, trace_dir, capsys):
        # no --metrics-out: the global registry must stay untouched
        before = obs.registry().snapshot()
        assert main(["info", "--data", str(trace_dir)]) == 0
        assert obs.registry().snapshot() == before


class TestExplainAndTrace:
    def test_query_explain_prints_report(self, trace_dir, model_dir, capsys):
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "7",
                "--explain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query explain: strategy=gui" in out
        assert "select" in out and "integrate" in out
        assert "io: model_bytes=" in out

    def test_query_explain_out_json(
        self, trace_dir, model_dir, tmp_path, capsys
    ):
        path = tmp_path / "explain.json"
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "7",
                "--explain-out", str(path),
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        names = [s["name"] for s in doc["stages"]]
        assert "select" in names and "integrate" in names
        integrate = next(s for s in doc["stages"] if s["name"] == "integrate")
        assert integrate["comparisons"] > 0
        assert integrate["cache_hits"] + integrate["cache_misses"] > 0
        assert doc["io"]["model_bytes"] > 0

    def test_query_trace_out(self, trace_dir, model_dir, tmp_path, capsys):
        path = tmp_path / "q.trace.json"
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "7",
                "--trace-out", str(path),
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {"query.run", "query.integrate"} <= {
            e["name"] for e in complete
        }
        for event in complete:
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int)

    def test_stats_converts_snapshot_to_trace(
        self, trace_dir, model_dir, tmp_path, capsys
    ):
        metrics = tmp_path / "m.json"
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "7",
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        capsys.readouterr()
        trace = tmp_path / "t.trace.json"
        assert main(["stats", str(metrics), "--trace-out", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestProfileFlag:
    def test_query_profile_cprofile(
        self, trace_dir, model_dir, tmp_path, capsys
    ):
        out = tmp_path / "q.prof"
        code = main(
            [
                "query",
                "--data", str(trace_dir),
                "--model", str(model_dir),
                "--days", "3",
                "--profile", "cprofile",
                "--profile-out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "profile (cprofile)" in captured.err
        assert out.exists()

    def test_profile_choices_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--data", "d", "--profile", "perf"])


SLO_YAML = "slos:\n  - name: avail\n    kind: availability\n    objective: 0.99\n"


class TestSloCheckCli:
    def _snapshot(self, tmp_path, requests=1000.0, errors=0.0):
        path = tmp_path / "metrics.json"
        path.write_text(
            json.dumps(
                {
                    "counters": {
                        "serve.requests": requests,
                        "serve.errors": errors,
                    },
                    "gauges": {},
                    "histograms": {},
                }
            )
        )
        return path

    def _config(self, tmp_path, text=SLO_YAML):
        path = tmp_path / "slo.yaml"
        path.write_text(text)
        return path

    def test_healthy_snapshot_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "slo", "check", str(self._snapshot(tmp_path)),
                "--config", str(self._config(tmp_path)),
            ]
        )
        assert code == 0
        assert "overall: OK" in capsys.readouterr().out

    def test_burning_snapshot_exits_one(self, tmp_path, capsys):
        snapshot = self._snapshot(tmp_path, requests=1000.0, errors=300.0)
        code = main(
            ["slo", "check", str(snapshot), "--config", str(self._config(tmp_path))]
        )
        assert code == 1
        assert "overall: PAGE" in capsys.readouterr().out

    def test_json_output_round_trips(self, tmp_path, capsys):
        code = main(
            [
                "slo", "check", str(self._snapshot(tmp_path)),
                "--config", str(self._config(tmp_path)),
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "OK"
        assert doc["source"] == "lifetime"

    def test_tsdb_directory_target(self, tmp_path, capsys):
        from repro.obs.tsdb import TimeSeriesStore

        segments = tmp_path / "tsdb"
        store = TimeSeriesStore(segment_dir=segments)
        for i in range(10):
            store.ingest(
                {
                    "t": 1_000_000.0 + i * 60,
                    "series": {
                        "serve.requests": float((i + 1) * 60),
                        "serve.errors": 0.0,
                    },
                    "kinds": {
                        "serve.requests": "counter",
                        "serve.errors": "counter",
                    },
                }
            )
        code = main(
            ["slo", "check", str(segments), "--config", str(self._config(tmp_path))]
        )
        assert code == 0
        assert "overall: OK" in capsys.readouterr().out

    def test_tsdb_directory_with_malformed_row(self, tmp_path, capsys):
        from repro.obs.tsdb import TimeSeriesStore

        segments = tmp_path / "tsdb"
        store = TimeSeriesStore(segment_dir=segments)
        for i in range(10):
            store.ingest(
                {
                    "t": 1_000_000.0 + i * 60,
                    "series": {
                        "serve.requests": float((i + 1) * 60),
                        "serve.errors": float(i * 30),
                    },
                    "kinds": {
                        "serve.requests": "counter",
                        "serve.errors": "counter",
                    },
                }
            )
        (segment,) = store.log.paths()
        with segment.open("a") as handle:
            handle.write(json.dumps({"series": 5, "t": 101.0}) + "\n")
        config = Path(__file__).resolve().parents[1] / "examples" / "slo.yaml"
        code = main(["slo", "check", str(segments), "--config", str(config)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        # the good rows burn half the budget of every request: they paged
        assert code == 1
        assert "overall: PAGE (source: tsdb)" in captured.out

    def test_snapshot_without_config_exits_two(self, tmp_path, capsys):
        code = main(["slo", "check", str(self._snapshot(tmp_path))])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--config" in err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "slo", "check", str(self._snapshot(tmp_path)),
                "--config", str(tmp_path / "nope.yaml"),
            ]
        )
        assert code == 2
        assert "no such SLO config" in capsys.readouterr().err

    def test_corrupt_config_exits_two(self, tmp_path, capsys):
        config = self._config(tmp_path, text="slos:\n\t- bad\n")
        code = main(
            ["slo", "check", str(self._snapshot(tmp_path)), "--config", str(config)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unreachable_server_exits_two(self, capsys):
        code = main(["slo", "check", "http://127.0.0.1:9"])
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err

    def test_url_with_config_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "slo", "check", "http://127.0.0.1:9",
                "--config", str(self._config(tmp_path)),
            ]
        )
        assert code == 2
        assert "--config only applies" in capsys.readouterr().err

    def test_empty_tsdb_dir_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "tsdb"
        empty.mkdir()
        code = main(
            ["slo", "check", str(empty), "--config", str(self._config(tmp_path))]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestLoadgenCli:
    def test_unreachable_server_exits_two(self, capsys):
        code = main(
            ["loadgen", "http://127.0.0.1:9", "--duration", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot reach server" in err

    def test_open_mode_needs_rate(self, capsys):
        code = main(
            ["loadgen", "http://127.0.0.1:9", "--mode", "open", "--duration", "1"]
        )
        assert code == 2
        assert "positive --rate" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.url == "http://127.0.0.1:8321"
        assert args.mode == "closed"
        assert args.duration == 10.0
        assert args.concurrency == 4
        assert str(args.out) == "BENCH_load.json"

    def test_serve_slo_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "--data", str(tmp_path),
                "--model", str(tmp_path),
                "--slo", "slo.yaml",
                "--tsdb-dir", str(tmp_path / "tsdb"),
                "--sample-interval", "0.5",
            ]
        )
        assert str(args.slo) == "slo.yaml"
        assert args.sample_interval == 0.5

    def test_bad_sample_interval_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--data", str(tmp_path),
                "--model", str(tmp_path),
                "--sample-interval", "0",
            ]
        )
        assert code == 2
        assert "sample-interval" in capsys.readouterr().err

    def test_serve_prof_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            [
                "serve",
                "--data", str(tmp_path),
                "--model", str(tmp_path),
                "--prof",
                "--prof-dir", str(tmp_path / "prof"),
                "--prof-hz", "31",
            ]
        )
        assert args.prof is True
        assert args.prof_hz == 31.0
        assert args.prof_dir == tmp_path / "prof"

    def test_prof_dir_without_prof_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--data", str(tmp_path),
                "--model", str(tmp_path),
                "--prof-dir", str(tmp_path / "prof"),
            ]
        )
        assert code == 2
        assert "--prof-dir requires --prof" in capsys.readouterr().err

    def test_bad_prof_hz_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--data", str(tmp_path),
                "--model", str(tmp_path),
                "--prof",
                "--prof-hz", "0",
            ]
        )
        assert code == 2
        assert "prof-hz" in capsys.readouterr().err


class TestProfCommand:
    @pytest.fixture()
    def prof_dir(self, tmp_path):
        """Two persisted windows with distinct hot frames."""
        from repro.obs.contprof import ContinuousProfiler

        class _Frame:
            f_back = None

            def __init__(self, name):
                self.f_globals = {"__name__": "app"}
                self.f_code = type("C", (), {"co_name": name})()

        directory = tmp_path / "prof"
        profiler = ContinuousProfiler(
            hz=10, window_seconds=1, segment_dir=directory
        )
        profiler.sample_once(now=0.0, frames={1: _Frame("alpha")})
        profiler.sample_once(now=10.0, frames={1: _Frame("beta")})
        profiler.sample_once(now=20.0, frames={})  # folds window 2
        return directory

    def _ids(self, prof_dir):
        from repro.obs.contprof import load_prof_segments

        return [w.id for w in load_prof_segments(prof_dir)]

    def test_ls_lists_windows(self, prof_dir, capsys):
        assert main(["prof", "ls", "--prof-dir", str(prof_dir)]) == 0
        out = capsys.readouterr().out
        assert "window_id" in out
        for window_id in self._ids(prof_dir):
            assert window_id in out

    def test_show_merges_by_default(self, prof_dir, capsys):
        assert main(["prof", "show", "--prof-dir", str(prof_dir)]) == 0
        out = capsys.readouterr().out
        assert "profile window merged" in out
        assert "app.alpha" in out and "app.beta" in out
        assert "collapsed stacks (flamegraph.pl):" in out

    def test_show_specific_window(self, prof_dir, capsys):
        first = self._ids(prof_dir)[0]
        assert main(["prof", "show", first, "--prof-dir", str(prof_dir)]) == 0
        out = capsys.readouterr().out
        assert "app.alpha" in out and "app.beta" not in out

    def test_show_unknown_window_exits_two(self, prof_dir, capsys):
        code = main(
            ["prof", "show", "pw-999999-nope", "--prof-dir", str(prof_dir)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "no profile window" in err and "repro prof ls" in err

    def test_diff_renders_frame_delta(self, prof_dir, capsys):
        first, second = self._ids(prof_dir)
        assert main(
            ["prof", "diff", first, second, "--prof-dir", str(prof_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert f"profile diff {first} -> {second}" in out
        assert "app.alpha" in out and "app.beta" in out
        assert "-100.0%" in out and "+100.0%" in out

    def test_export_collapsed_to_stdout(self, prof_dir, capsys):
        first = self._ids(prof_dir)[0]
        assert main(
            [
                "prof", "export", first,
                "--prof-dir", str(prof_dir),
                "--format", "collapsed",
            ]
        ) == 0
        assert capsys.readouterr().out == "app.alpha 1\n"

    def test_export_speedscope_to_file(self, prof_dir, tmp_path, capsys):
        out_path = tmp_path / "profile.speedscope.json"
        assert main(
            [
                "prof", "export",
                "--prof-dir", str(prof_dir),
                "--format", "speedscope",
                "--out", str(out_path),
            ]
        ) == 0
        assert "speedscope profile written" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["$schema"].endswith("file-format-schema.json")
        assert doc["profiles"][0]["endValue"] == 2

    def test_missing_dir_exits_two(self, tmp_path, capsys):
        code = main(["prof", "ls", "--prof-dir", str(tmp_path / "nope")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
