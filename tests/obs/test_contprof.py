"""Continuous profiler: sampling, windows, segments, exports."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import obs
from repro.obs import segmentlog
from repro.obs.contprof import (
    MAX_STACK_DEPTH,
    PROF_SEGMENT_PREFIX,
    ContinuousProfiler,
    ProfileWindow,
    classify_sample,
    collapse_text,
    diff_frames,
    format_frame_delta,
    frame_label,
    load_prof_segments,
    merge_windows,
    speedscope_doc,
)


class FakeCode:
    def __init__(self, name: str):
        self.co_name = name


class FakeFrame:
    """Just enough of a frame for the collapse/classify helpers."""

    def __init__(self, module: str, name: str, back=None):
        self.f_globals = {"__name__": module}
        self.f_code = FakeCode(name)
        self.f_back = back


def stack(*frames):
    """Build a frame chain from (module, name) pairs, root first."""
    frame = None
    for module, name in frames:
        frame = FakeFrame(module, name, back=frame)
    return frame  # the leaf


def window_with(stacks, window_id="pw-000001-abc"):
    window = ProfileWindow(window_id, 0.0, 10.0)
    for collapsed, (run, wait) in stacks.items():
        window.stacks[collapsed] = [run, wait]
        window.samples += run + wait
    return window


class TestClassify:
    def test_lock_leaf_is_waiting(self):
        frame = stack(("app", "main"), ("threading", "wait"))
        assert classify_sample(frame) == "waiting"

    def test_plain_leaf_is_running(self):
        frame = stack(("app", "main"), ("app", "crunch"))
        assert classify_sample(frame) == "running"

    def test_blocking_get_only_in_blocking_modules(self):
        assert classify_sample(stack(("queue", "get"))) == "waiting"
        assert classify_sample(stack(("socket", "recv"))) == "waiting"
        # a user function named get is real work
        assert classify_sample(stack(("app.store", "get"))) == "running"

    def test_frame_label_sanitizes_separators(self):
        frame = FakeFrame("weird mod", "fn;x")
        label = frame_label(frame)
        assert ";" not in label and " " not in label


class TestCollapse:
    def test_stack_is_root_first(self):
        profiler = ContinuousProfiler(hz=10, window_seconds=60)
        leaf = stack(("app", "main"), ("app", "inner"))
        profiler.sample_once(now=100.0, frames={1: leaf})
        (collapsed,) = profiler.merged().stacks
        assert collapsed == "app.main;app.inner"

    def test_deep_recursion_truncated_keeping_roots(self):
        frames = [("app", "main")] + [("app", f"f{i}") for i in range(200)]
        profiler = ContinuousProfiler(hz=10, window_seconds=60)
        profiler.sample_once(now=100.0, frames={1: stack(*frames)})
        (collapsed,) = profiler.merged().stacks
        labels = collapsed.split(";")
        assert len(labels) == MAX_STACK_DEPTH
        assert labels[0] == "app.main"
        assert labels[-1] == "..."


class TestSampling:
    def test_busy_loop_dominates_collapsed_output(self):
        """A real hot thread must own the window, not the test harness."""
        stop = threading.Event()

        def _hot_spin():
            while not stop.is_set():
                sum(i for i in range(100))

        thread = threading.Thread(target=_hot_spin, daemon=True)
        thread.start()
        profiler = ContinuousProfiler(hz=500, window_seconds=30)
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline:
                profiler.sample_once()
                if profiler.merged().samples >= 50:
                    break
                time.sleep(0.002)
        finally:
            stop.set()
            thread.join()
        merged = profiler.merged()
        hot = [s for s in merged.stacks if "_hot_spin" in s]
        assert hot, f"hot frame missing from {sorted(merged.stacks)}"
        hot_samples = sum(sum(merged.stacks[s]) for s in hot)
        assert hot_samples >= merged.samples * 0.5
        assert "_hot_spin" in collapse_text(merged)

    def test_excludes_own_thread(self):
        profiler = ContinuousProfiler(hz=10, window_seconds=60)
        own = threading.get_ident()
        folded = profiler.sample_once(
            now=1.0, frames={own: stack(("me", "sampling"))}
        )
        assert folded == 0
        assert profiler.merged().total() == 0

    def test_thread_churn_mid_window(self):
        """Threads starting and dying between ticks fold cleanly."""
        profiler = ContinuousProfiler(hz=10, window_seconds=60)
        a = stack(("app", "alpha"))
        b = stack(("app", "beta"))
        profiler.sample_once(now=1.0, frames={101: a})
        profiler.sample_once(now=1.1, frames={101: a, 202: b})  # 202 starts
        profiler.sample_once(now=1.2, frames={202: b})  # 101 died
        profiler.sample_once(now=1.3, frames={})  # everyone gone
        merged = profiler.merged()
        assert merged.samples == 4
        assert len(merged.threads) == 2
        assert merged.stacks["app.alpha"] == [2, 0]
        assert merged.stacks["app.beta"] == [2, 0]

    def test_windows_roll_at_boundary(self):
        profiler = ContinuousProfiler(hz=10, window_seconds=10)
        frame = stack(("app", "work"))
        profiler.sample_once(now=100.0, frames={1: frame})
        profiler.sample_once(now=111.0, frames={1: frame})  # past the end
        windows = profiler.windows()
        assert len(windows) == 2
        assert profiler.windows_folded == 1
        assert windows[0].id != windows[1].id

    def test_daemon_lifecycle_and_shutdown_folds_partial_window(self, tmp_path):
        profiler = ContinuousProfiler(
            hz=200, window_seconds=60, segment_dir=tmp_path
        )
        profiler.start()
        assert profiler.running()
        deadline = time.time() + 5.0
        while time.time() < deadline and profiler.merged().samples < 5:
            time.sleep(0.01)
        assert profiler.stop() is True
        assert not profiler.running()
        # the partial window was folded and persisted on the way out
        assert profiler.windows_folded >= 1
        replayed = load_prof_segments(tmp_path)
        assert sum(w.samples for w in replayed) >= 5

    def test_stop_without_start_is_safe(self):
        profiler = ContinuousProfiler()
        assert profiler.stop() is True

    def test_self_reports_metrics(self, registry):
        profiler = ContinuousProfiler(hz=10, window_seconds=10)
        frame = stack(("app", "work"))
        profiler.sample_once(now=100.0, frames={1: frame})
        profiler.sample_once(now=111.0, frames={1: frame})
        snapshot = registry.snapshot()
        assert snapshot["counters"]["prof.samples"] == 2
        assert snapshot["counters"]["prof.windows"] == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ContinuousProfiler(hz=0)
        with pytest.raises(ValueError):
            ContinuousProfiler(window_seconds=-1)


class TestPinning:
    def test_pin_survives_ring_eviction(self):
        profiler = ContinuousProfiler(hz=10, window_seconds=1, keep_windows=2)
        frame = stack(("app", "work"))
        profiler.sample_once(now=0.0, frames={1: frame})
        pinned_id = profiler.pin_current()
        assert pinned_id is not None
        # roll enough windows to evict the pinned one from the ring
        for i in range(1, 6):
            profiler.sample_once(now=float(i * 10), frames={1: frame})
        assert all(w.id != pinned_id for w in profiler.windows())
        window = profiler.window(pinned_id)
        assert window is not None and window.pinned

    def test_pin_before_first_tick_returns_none(self):
        assert ContinuousProfiler().pin_current() is None

    def test_pinned_map_bounded(self):
        profiler = ContinuousProfiler(
            hz=10, window_seconds=1, keep_windows=1, max_pinned=2
        )
        frame = stack(("app", "work"))
        ids = []
        for i in range(4):
            profiler.sample_once(now=float(i * 10), frames={1: frame})
            ids.append(profiler.pin_current())
        profiler.sample_once(now=100.0, frames={1: frame})
        kept = [i for i in ids if profiler.window(i) is not None]
        assert len(kept) <= 3  # 2 pinned + possibly the ring survivor

    def test_merged_unknown_id_raises(self):
        with pytest.raises(KeyError):
            ContinuousProfiler().merged("pw-999999-nope")


class TestSegments:
    def _fill(self, profiler, windows=3, start=0.0):
        frame = stack(("app", "work"))
        for i in range(windows + 1):
            profiler.sample_once(
                now=start + i * 10.0, frames={1: frame, 2: frame}
            )

    def test_rotation_and_retention(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmentlog, "MAX_SEGMENT_BYTES", 200)
        monkeypatch.setattr(segmentlog, "MAX_SEGMENTS", 2)
        profiler = ContinuousProfiler(
            hz=10, window_seconds=1, segment_dir=tmp_path
        )
        self._fill(profiler, windows=20)
        segments = profiler.log.paths()
        assert 1 <= len(segments) <= 2
        assert profiler.rotations > 0
        assert all(p.name.startswith(PROF_SEGMENT_PREFIX) for p in segments)

    def test_replay_round_trips(self, tmp_path):
        profiler = ContinuousProfiler(
            hz=10, window_seconds=1, segment_dir=tmp_path
        )
        self._fill(profiler, windows=3)
        replayed = load_prof_segments(tmp_path)
        assert [w.id for w in replayed] == [
            w.id for w in profiler.windows()[:3]
        ]
        assert replayed[0].stacks == {"app.work": [2, 0]}

    def test_replay_skips_torn_line(self, tmp_path):
        profiler = ContinuousProfiler(
            hz=10, window_seconds=1, segment_dir=tmp_path
        )
        self._fill(profiler, windows=2)
        (segment,) = profiler.log.paths()
        with segment.open("a") as handle:
            handle.write('{"id": "pw-9999')  # torn mid-write
        assert len(load_prof_segments(tmp_path)) == 2

    def test_replay_dedups_duplicate_windows(self, tmp_path):
        profiler = ContinuousProfiler(
            hz=10, window_seconds=1, segment_dir=tmp_path
        )
        self._fill(profiler, windows=2)
        (segment,) = profiler.log.paths()
        # simulate the same segment replayed twice after a crash-restart
        (tmp_path / f"{PROF_SEGMENT_PREFIX}000007.ndjson").write_text(
            segment.read_text()
        )
        replayed = load_prof_segments(tmp_path)
        assert len(replayed) == 2
        assert len({w.id for w in replayed}) == 2

    def test_index_resumes_after_restart(self, tmp_path):
        first = ContinuousProfiler(
            hz=10, window_seconds=1, segment_dir=tmp_path
        )
        self._fill(first, windows=2)
        second = ContinuousProfiler(
            hz=10, window_seconds=1, segment_dir=tmp_path
        )
        self._fill(second, windows=2, start=1000.0)
        replayed = load_prof_segments(tmp_path)
        assert len(replayed) == 4
        assert len({w.id for w in replayed}) == 4  # entropy keeps ids unique

    def test_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_prof_segments(tmp_path / "missing")
        with pytest.raises(ValueError):
            load_prof_segments(tmp_path)

    def test_malformed_row_raises_from_dict(self):
        with pytest.raises(ValueError, match="malformed"):
            ProfileWindow.from_dict({"id": "x", "start": 0.0})


class TestExports:
    def test_collapse_text_is_flamegraph_format(self):
        window = window_with(
            {"app.main;app.inner": [3, 1], "app.main;app.idle": [0, 2]}
        )
        text = collapse_text(window)
        assert "app.main;app.inner 4" in text.splitlines()
        assert "app.main;app.idle 2" in text.splitlines()
        assert text.endswith("\n")

    def test_speedscope_doc_shape(self):
        window = window_with({"app.main;app.inner": [3, 1]})
        doc = json.loads(json.dumps(speedscope_doc(window)))
        assert doc["$schema"].endswith("file-format-schema.json")
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert names == ["app.main", "app.inner"]
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert profile["samples"] == [[0, 1]]
        assert profile["weights"] == [4]
        assert profile["endValue"] == 4

    def test_merge_windows_sums_counts(self):
        a = window_with({"app.x": [1, 0]}, "pw-000001-a")
        b = window_with({"app.x": [2, 1], "app.y": [1, 0]}, "pw-000002-a")
        merged = merge_windows([a, b])
        assert merged.stacks == {"app.x": [3, 1], "app.y": [1, 0]}
        assert merged.samples == a.samples + b.samples

    def test_merge_empty_is_empty(self):
        assert merge_windows([]).total() == 0

    def test_top_frames_rank_by_self_samples(self):
        window = window_with(
            {
                "app.main;app.hot": [8, 0],
                "app.main;app.cold": [1, 0],
                "app.other;app.hot": [2, 0],
            }
        )
        top = window.top_frames(2)
        assert top[0] == {
            "frame": "app.hot", "running": 10, "waiting": 0, "total": 10
        }

    def test_diff_frames_finds_the_regression(self):
        before = window_with({"app.main;app.ok": [9, 0], "app.main;app.slow": [1, 0]})
        after = window_with({"app.main;app.ok": [2, 0], "app.main;app.slow": [8, 0]})
        rows = diff_frames(before, after)
        by_frame = {row["frame"]: row for row in rows}
        assert by_frame["app.slow"]["delta"] == pytest.approx(0.7)
        assert by_frame["app.ok"]["delta"] == pytest.approx(-0.7)
        # both moved by the same share, so they are the top two rows
        assert {rows[0]["frame"], rows[1]["frame"]} == {"app.ok", "app.slow"}
        text = format_frame_delta(rows, limit=2)
        assert "app.slow" in text and "delta" in text

    def test_profile_doc_summary_shape(self):
        profiler = ContinuousProfiler(hz=10, window_seconds=60)
        profiler.sample_once(now=1.0, frames={1: stack(("app", "work"))})
        doc = profiler.profile_doc()
        assert doc["enabled"] is True
        assert doc["total"] == 1
        assert doc["top"][0]["frame"] == "app.work"
        assert doc["current"]["samples"] == 1
