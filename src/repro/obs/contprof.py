"""Continuous in-process profiling: an always-on wall-clock stack sampler.

The observability stack can say *that* the daemon is slow (the SLO
burn-rate alerts of :mod:`repro.obs.slo`) and *which request* was slow
(the tail-sampled traces of :mod:`repro.obs.tracestore`), but not *which
code* was burning the time — :mod:`repro.obs.profiling` is explicitly
opt-in because deterministic cProfile is far too heavy for the always-on
layer. This module closes that gap with the standard production
technique: statistical wall-clock sampling.

* :class:`ContinuousProfiler` — a daemon thread snapshots
  ``sys._current_frames()`` at a configurable rate (default
  :data:`DEFAULT_HZ` = 67 Hz, deliberately co-prime with the common 1 s /
  100 ms loop periods in the serve daemon so periodic work cannot hide
  between ticks), classifies every thread sample as *running* or
  *waiting* (leaf-frame inspection of lock-ish call sites), and folds the
  interned collapsed stacks into the current :class:`ProfileWindow`.
* :class:`ProfileWindow` — one fixed-length aggregation window: a map of
  collapsed stacks to ``[running, waiting]`` sample counts. Windows are
  the unit of persistence, pinning (alert exemplars) and diffing.
* Segments — finished windows append to ``prof-NNNNNN.ndjson`` files
  in the :mod:`repro.obs.segmentlog` format; :func:`load_prof_segments`
  replays them and deduplicates by window id, so ``repro prof`` works
  offline.
* Exports — :func:`collapse_text` renders flamegraph.pl-compatible
  collapsed stacks; :func:`speedscope_doc` renders the speedscope JSON
  file format. Both are served by ``GET /profile`` and ``repro prof
  export``.

The sampler holds no locks while walking frames (``sys._current_frames``
returns a consistent snapshot dict) and costs one dict fold per thread
per tick; its budget for the end-to-end tax on served latency is
≤ 1.10×.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs.segmentlog import SegmentLog, read_rows

__all__ = [
    "ContinuousProfiler",
    "ProfileWindow",
    "collapse_text",
    "speedscope_doc",
    "merge_windows",
    "diff_frames",
    "format_frame_delta",
    "load_prof_segments",
    "frame_label",
    "classify_sample",
    "DEFAULT_HZ",
    "DEFAULT_WINDOW_SECONDS",
    "PROF_SEGMENT_PREFIX",
    "MAX_STACK_DEPTH",
]

#: Default sampling rate. 67 Hz is prime, hence co-prime with the 1 s
#: tsdb sampler tick, 100 ms retry loops and 500 ms poll loops — periodic
#: work cannot phase-lock into the gaps between samples.
DEFAULT_HZ: float = 67.0

#: Default aggregation window length. 10 s windows give the SLO engine a
#: profile exemplar scoped tightly around a burn-rate transition while
#: keeping per-window stack tables small.
DEFAULT_WINDOW_SECONDS: float = 10.0

#: On-disk segment file name prefix (``prof-000001.ndjson`` ...).
PROF_SEGMENT_PREFIX = "prof-"

#: Frames deeper than this are truncated (root-most kept) — a runaway
#: recursion should not produce megabyte stack keys.
MAX_STACK_DEPTH = 64

#: Leaf code names that mean "this thread is parked, not burning CPU".
#: ``sys._current_frames`` cannot see into C, so a thread blocked in
#: ``lock.acquire`` or ``select.select`` shows the *Python* frame that
#: made the call; these names catch the stdlib's lock-ish call sites.
_WAIT_LEAF_NAMES = frozenset(
    {
        "wait",
        "wait_for",
        "acquire",
        "sleep",
        "select",
        "poll",
        "accept",
        "join",
        "park",
        "_wait_for_tstate_lock",
    }
)

#: Modules whose read/get-style leaves also mean waiting (a blocking
#: ``queue.Queue.get`` or ``socket.recv``), where the same names on an
#: application frame would usually be real work.
_WAIT_LEAF_MODULES = ("queue", "selectors", "socket", "ssl", "subprocess")

#: Extra leaf names that count as waiting only inside _WAIT_LEAF_MODULES.
_WAIT_MODULE_NAMES = frozenset(
    {"get", "put", "recv", "recv_into", "read", "readinto", "send", "sendall"}
)


def frame_label(frame) -> str:
    """Stable text label for one frame: ``module.function``.

    Labels are the atoms of collapsed stacks, so they must never contain
    the ``;`` separator or whitespace (flamegraph.pl splits on both);
    offending characters are replaced. The module name (not the file
    path) keeps labels short and machine-independent, so windows recorded
    on one host diff cleanly against another.
    """
    module = frame.f_globals.get("__name__", "?") if frame.f_globals else "?"
    name = frame.f_code.co_name
    label = f"{module}.{name}"
    if ";" in label or " " in label:
        label = label.replace(";", ":").replace(" ", "_")
    return sys.intern(label)


def _collapse_stack(frame) -> Tuple[str, str]:
    """Walk a frame chain into ``(collapsed_stack, leaf_label)``.

    The chain is collected leaf→root via ``f_back`` then reversed, so the
    collapsed key reads root-first as flamegraph.pl expects. Chains
    deeper than :data:`MAX_STACK_DEPTH` keep the root-most frames and a
    ``...`` marker — the interesting ancestry survives, the runaway tail
    does not.
    """
    labels: List[str] = []
    f = frame
    while f is not None:
        labels.append(frame_label(f))
        f = f.f_back
    leaf = labels[0]
    labels.reverse()
    if len(labels) > MAX_STACK_DEPTH:
        labels = labels[: MAX_STACK_DEPTH - 1] + ["..."]
    return sys.intern(";".join(labels)), leaf


def classify_sample(frame) -> str:
    """Classify one thread sample as ``"running"`` or ``"waiting"``.

    Only the leaf frame is inspected: a thread whose innermost Python
    frame sits on a lock-ish call site (``wait`` / ``acquire`` /
    ``select`` ..., or a blocking read in a known-blocking stdlib module)
    is parked in C waiting for something; everything else counts as
    running. This is a heuristic — a user function named ``wait`` will
    misclassify — but it cleanly separates idle worker pools from hot
    loops, which is what the dashboard and the overhead budget need.
    """
    name = frame.f_code.co_name
    if name in _WAIT_LEAF_NAMES:
        return "waiting"
    if name in _WAIT_MODULE_NAMES:
        module = frame.f_globals.get("__name__", "") if frame.f_globals else ""
        root = module.split(".", 1)[0]
        if root in _WAIT_LEAF_MODULES:
            return "waiting"
    return "running"


class ProfileWindow:
    """One fixed-length aggregation window of collapsed-stack counts.

    ``stacks`` maps a root-first ``;``-joined collapsed stack to a
    two-element ``[running, waiting]`` count list. Windows are cheap to
    merge (:func:`merge_windows`), render (:func:`collapse_text`,
    :func:`speedscope_doc`) and persist (:meth:`to_dict` rows are the
    NDJSON segment format).
    """

    __slots__ = (
        "id",
        "start",
        "end",
        "hz",
        "samples",
        "threads",
        "stacks",
        "pinned",
    )

    def __init__(
        self,
        window_id: str,
        start: float,
        end: float,
        hz: float = DEFAULT_HZ,
    ):
        self.id = window_id
        self.start = float(start)
        self.end = float(end)
        self.hz = float(hz)
        self.samples = 0  #: sampling ticks folded into this window
        self.threads: set = set()  #: distinct thread ids seen
        self.stacks: Dict[str, List[int]] = {}
        self.pinned = False

    # ------------------------------------------------------------------
    def record(self, stack: str, state: str) -> None:
        """Fold one thread sample (one stack, one state) into the window."""
        counts = self.stacks.get(stack)
        if counts is None:
            counts = self.stacks[stack] = [0, 0]
        counts[0 if state == "running" else 1] += 1

    def total(self) -> int:
        """Total thread samples across every stack (running + waiting)."""
        return sum(c[0] + c[1] for c in self.stacks.values())

    def running(self) -> int:
        """Thread samples classified as running (on-CPU-ish)."""
        return sum(c[0] for c in self.stacks.values())

    def leaf_totals(self) -> Dict[str, List[int]]:
        """Per-leaf-frame self counts: ``{frame: [running, waiting]}``.

        The leaf (innermost) frame of each stack owns that stack's
        samples — the flamegraph notion of *self* time. This is what the
        hottest-frames panel and ``repro prof diff`` rank by.
        """
        totals: Dict[str, List[int]] = {}
        for stack, (run, wait) in self.stacks.items():
            leaf = stack.rsplit(";", 1)[-1]
            bucket = totals.get(leaf)
            if bucket is None:
                bucket = totals[leaf] = [0, 0]
            bucket[0] += run
            bucket[1] += wait
        return totals

    def top_frames(self, limit: int = 10) -> List[Dict[str, object]]:
        """The hottest leaf frames by self samples, descending."""
        totals = self.leaf_totals()
        ranked = sorted(
            totals.items(), key=lambda kv: (-(kv[1][0] + kv[1][1]), kv[0])
        )
        out: List[Dict[str, object]] = []
        for frame, (run, wait) in ranked[: max(0, int(limit))]:
            out.append(
                {"frame": frame, "running": run, "waiting": wait, "total": run + wait}
            )
        return out

    def summary(self) -> Dict[str, object]:
        """One-line-able dict for ``/profile`` and ``repro prof ls``."""
        return {
            "id": self.id,
            "start": self.start,
            "end": self.end,
            "hz": self.hz,
            "samples": self.samples,
            "threads": len(self.threads),
            "stacks": len(self.stacks),
            "total": self.total(),
            "running": self.running(),
            "pinned": self.pinned,
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The NDJSON segment row: everything needed to rebuild offline."""
        return {
            "id": self.id,
            "start": self.start,
            "end": self.end,
            "hz": self.hz,
            "samples": self.samples,
            "threads": len(self.threads),
            "pinned": self.pinned,
            "stacks": {k: list(v) for k, v in self.stacks.items()},
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "ProfileWindow":
        """Rebuild a window from a segment row; ``ValueError`` on junk."""
        try:
            window = cls(
                str(doc["id"]),
                float(doc["start"]),  # type: ignore[arg-type]
                float(doc["end"]),  # type: ignore[arg-type]
                float(doc.get("hz", DEFAULT_HZ)),  # type: ignore[arg-type]
            )
            window.samples = int(doc.get("samples", 0))  # type: ignore[arg-type]
            window.threads = set(range(int(doc.get("threads", 0))))  # type: ignore[arg-type]
            window.pinned = bool(doc.get("pinned", False))
            stacks = doc["stacks"]
            if not isinstance(stacks, Mapping):
                raise TypeError("stacks must be a mapping")
            for stack, counts in stacks.items():
                run, wait = counts  # type: ignore[misc]
                window.stacks[sys.intern(str(stack))] = [int(run), int(wait)]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed profile window row: {exc}") from exc
        return window


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def collapse_text(window: ProfileWindow) -> str:
    """flamegraph.pl-compatible collapsed stacks: ``a;b;c <count>`` lines.

    Counts are total samples (running + waiting) so the rendered graph
    shows wall-clock shape; feed the output straight to ``flamegraph.pl``
    or paste it into speedscope's import box.
    """
    lines = [
        f"{stack} {counts[0] + counts[1]}"
        for stack, counts in sorted(window.stacks.items())
        if counts[0] + counts[1] > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_doc(window: ProfileWindow) -> Dict[str, object]:
    """The window as a speedscope file-format document (sampled profile).

    Frames are deduplicated into the shared frame table; each collapsed
    stack becomes one sample repeated with its count as the weight, so
    the file stays proportional to distinct stacks, not raw samples.
    """
    frames: List[Dict[str, str]] = []
    index: Dict[str, int] = {}
    samples: List[List[int]] = []
    weights: List[int] = []
    for stack, counts in sorted(window.stacks.items()):
        weight = counts[0] + counts[1]
        if weight <= 0:
            continue
        path = []
        for label in stack.split(";"):
            i = index.get(label)
            if i is None:
                i = index[label] = len(frames)
                frames.append({"name": label})
            path.append(i)
        samples.append(path)
        weights.append(weight)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": window.id,
                "unit": "none",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": samples,
                "weights": weights,
            }
        ],
        "name": f"repro continuous profile {window.id}",
        "exporter": "repro.obs.contprof",
    }


def merge_windows(
    windows: Sequence[ProfileWindow], window_id: str = "merged"
) -> ProfileWindow:
    """Fold several windows into one synthetic aggregate window.

    ``repro prof show`` with no id and the default ``GET /profile``
    export merge the retained windows so a freshly-rotated window never
    renders an empty flamegraph.
    """
    if not windows:
        return ProfileWindow(window_id, 0.0, 0.0)
    merged = ProfileWindow(
        window_id,
        min(w.start for w in windows),
        max(w.end for w in windows),
        windows[0].hz,
    )
    for w in windows:
        merged.samples += w.samples
        merged.threads |= w.threads
        for stack, (run, wait) in w.stacks.items():
            counts = merged.stacks.get(stack)
            if counts is None:
                counts = merged.stacks[stack] = [0, 0]
            counts[0] += run
            counts[1] += wait
    return merged


def diff_frames(
    before: ProfileWindow, after: ProfileWindow
) -> List[Dict[str, object]]:
    """Per-frame self-share delta between two windows, largest first.

    Shares are each frame's self samples as a fraction of its window's
    total, so windows of different lengths (or sample counts) compare
    fairly; ``delta`` is ``after_share - before_share`` — positive means
    the frame got hotter.
    """
    b_total = max(1, before.total())
    a_total = max(1, after.total())
    b_leaf = {k: v[0] + v[1] for k, v in before.leaf_totals().items()}
    a_leaf = {k: v[0] + v[1] for k, v in after.leaf_totals().items()}
    rows: List[Dict[str, object]] = []
    for frame in set(b_leaf) | set(a_leaf):
        b_share = b_leaf.get(frame, 0) / b_total
        a_share = a_leaf.get(frame, 0) / a_total
        rows.append(
            {
                "frame": frame,
                "before": round(b_share, 6),
                "after": round(a_share, 6),
                "delta": round(a_share - b_share, 6),
            }
        )
    rows.sort(key=lambda r: (-abs(float(r["delta"])), str(r["frame"])))
    return rows


def format_frame_delta(rows: Iterable[Mapping[str, object]], limit: int = 15) -> str:
    """Human-readable ``repro prof diff`` table of :func:`diff_frames` rows."""
    out = [f"{'delta':>8}  {'before':>7}  {'after':>7}  frame"]
    for row in list(rows)[: max(0, int(limit))]:
        out.append(
            f"{float(row['delta']):>+8.1%}  "
            f"{float(row['before']):>7.1%}  "
            f"{float(row['after']):>7.1%}  {row['frame']}"
        )
    return "\n".join(out)


# ----------------------------------------------------------------------
# The sampler
# ----------------------------------------------------------------------
class ContinuousProfiler:
    """The always-on wall-clock sampling thread ``repro serve`` runs.

    Every ``1/hz`` seconds the daemon thread snapshots
    ``sys._current_frames()``, folds every thread (except itself) into
    the current :class:`ProfileWindow`, and rolls the window every
    ``window_seconds``: finished windows enter a bounded in-memory ring
    (plus a pinned map for alert exemplars) and, when ``segment_dir`` is
    set, append one NDJSON row to ``log``, a
    :class:`~repro.obs.segmentlog.SegmentLog` (``None`` otherwise).

    The profiler reports on itself through the metrics registry
    (``prof.samples``, ``prof.windows``, ``prof.segment_rotations``) and
    through :meth:`stats` on ``/healthz``. :meth:`stop` is the graceful
    path: it joins the thread, folds the partial window, and fsyncs the
    open segment so a SIGTERM never loses the last window.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        segment_dir: Optional[Path] = None,
        keep_windows: int = 30,
        max_pinned: int = 16,
    ):
        if hz <= 0:
            raise ValueError("profiler hz must be positive")
        if window_seconds <= 0:
            raise ValueError("profiler window_seconds must be positive")
        self._hz = float(hz)
        self._interval = 1.0 / self._hz
        self._window_seconds = float(window_seconds)
        self._keep_windows = max(1, int(keep_windows))
        self._max_pinned = max(1, int(max_pinned))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._window_seq = 0
        self._entropy = os.urandom(3).hex()
        self._current: Optional[ProfileWindow] = None
        self._recent: List[ProfileWindow] = []
        self._pinned: Dict[str, ProfileWindow] = {}
        self._pin_requests: set = set()
        self._windows_folded = 0
        self.log = (
            SegmentLog(segment_dir, PROF_SEGMENT_PREFIX)
            if segment_dir is not None
            else None
        )

    # ------------------------------------------------------------------
    @property
    def hz(self) -> float:
        """Sampling rate in snapshots per second."""
        return self._hz

    @property
    def window_seconds(self) -> float:
        """Aggregation window length in seconds."""
        return self._window_seconds

    @property
    def rotations(self) -> int:
        """Completed on-disk segment rotations since creation."""
        return self.log.rotations if self.log is not None else 0

    @property
    def windows_folded(self) -> int:
        """Windows finished (rolled out of *current*) since creation."""
        return self._windows_folded

    def running(self) -> bool:
        """True while the sampling thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------
    def _new_window(self, now: float) -> ProfileWindow:
        self._window_seq += 1
        window_id = f"pw-{self._window_seq:06d}-{self._entropy}"
        return ProfileWindow(
            window_id, now, now + self._window_seconds, self._hz
        )

    def _fold_locked(self, now: float) -> None:
        """Finish the current window: ring, pin map, segment row."""
        window = self._current
        self._current = None
        if window is None or window.samples == 0:
            return
        window.end = min(window.end, now) if now > window.start else window.end
        if window.id in self._pin_requests:
            self._pin_requests.discard(window.id)
            window.pinned = True
            self._pinned[window.id] = window
            while len(self._pinned) > self._max_pinned:
                del self._pinned[next(iter(self._pinned))]
        self._recent.append(window)
        if len(self._recent) > self._keep_windows:
            del self._recent[0]
        self._windows_folded += 1
        if self.log is not None:
            try:
                self.log.append(window.to_dict())
            except OSError:  # noqa: PERF203 — persistence is best-effort
                obs.get_logger("repro.obs.contprof").exception(
                    "profile segment append failed"
                )
        if obs.enabled():
            obs.counter("prof.windows").inc()
            rotations = self.rotations
            recorded = obs.registry().counter("prof.segment_rotations")
            if rotations > recorded.value:
                recorded.inc(rotations - recorded.value)

    def sample_once(
        self,
        now: Optional[float] = None,
        frames: Optional[Mapping[int, object]] = None,
    ) -> int:
        """Take one sampling tick; returns threads folded (test hook).

        ``frames`` defaults to a live ``sys._current_frames()`` snapshot;
        tests inject their own frame maps to exercise thread churn
        deterministically. The profiler's own thread is excluded — a
        sampler that mostly samples itself measures nothing.
        """
        now = time.time() if now is None else now
        with self._lock:
            if self._current is not None and now >= self._current.end:
                self._fold_locked(now)
            if self._current is None:
                self._current = self._new_window(now)
            window = self._current
            snapshot = sys._current_frames() if frames is None else frames
            own = threading.get_ident()
            folded = 0
            for tid, frame in snapshot.items():
                if tid == own or frame is None:
                    continue
                stack, _ = _collapse_stack(frame)
                window.record(stack, classify_sample(frame))
                window.threads.add(tid)
                folded += 1
            window.samples += 1
        if obs.enabled():
            obs.counter("prof.samples").inc()
        return folded

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self.sample_once()
            except Exception:  # noqa: BLE001 — profiling must not kill serve
                obs.get_logger("repro.obs.contprof").exception("sample failed")

    def start(self) -> None:
        """Start the background sampling thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = 5.0) -> bool:
        """Graceful stop: join, fold the partial window, fsync; True if ok."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
            self._thread = None
        try:
            with self._lock:
                self._fold_locked(time.time())
            if self.log is not None:
                self.log.sync()
        except Exception:  # noqa: BLE001 — flush is best-effort
            pass
        return True

    # ------------------------------------------------------------------
    # Window access
    # ------------------------------------------------------------------
    def current_window_id(self) -> Optional[str]:
        """Id of the in-progress window (``None`` before the first tick)."""
        with self._lock:
            return self._current.id if self._current is not None else None

    def pin_current(self) -> Optional[str]:
        """Pin the in-progress window as an alert exemplar; returns its id.

        The SLO engine calls this on a WARN/PAGE transition: the window
        covering the transition is marked so that, when it folds, it is
        retained in the pinned map (bounded at ``max_pinned``, oldest
        evicted) beyond the normal ring retention. The id is attached to
        the alert status, so every page links to a flamegraph.
        """
        with self._lock:
            if self._current is None:
                return None
            self._pin_requests.add(self._current.id)
            return self._current.id

    def window(self, window_id: str) -> Optional[ProfileWindow]:
        """Look up a window by exact id: current, recent ring, or pinned."""
        with self._lock:
            if self._current is not None and self._current.id == window_id:
                return self._current
            for w in reversed(self._recent):
                if w.id == window_id:
                    return w
            return self._pinned.get(window_id)

    def windows(self) -> List[ProfileWindow]:
        """Retained windows, oldest first, including the partial current."""
        with self._lock:
            out = list(self._recent)
            if self._current is not None and self._current.samples:
                out.append(self._current)
            return out

    def merged(self, window_id: Optional[str] = None) -> ProfileWindow:
        """One window by id, or every retained window merged (default)."""
        if window_id is not None:
            found = self.window(window_id)
            if found is None:
                raise KeyError(window_id)
            return found
        return merge_windows(self.windows(), window_id="current")

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Liveness and window counters for the /healthz profiler block."""
        with self._lock:
            current = self._current
            return {
                "running": self.running(),
                "hz": self._hz,
                "window_seconds": self._window_seconds,
                "windows": self._windows_folded,
                "pinned": len(self._pinned),
                "current_window": current.id if current is not None else None,
            }

    def profile_doc(self, limit: int = 10) -> Dict[str, object]:
        """The default ``GET /profile`` JSON: summary + hottest frames."""
        merged = self.merged()
        with self._lock:
            windows = [w.summary() for w in reversed(self._recent)]
            pinned = sorted(self._pinned)
            current = self._current.summary() if self._current is not None else None
        return {
            "enabled": True,
            "hz": self._hz,
            "window_seconds": self._window_seconds,
            "samples": merged.samples,
            "total": merged.total(),
            "running": merged.running(),
            "threads": len(merged.threads),
            "current": current,
            "windows": windows,
            "pinned": pinned,
            "top": merged.top_frames(limit),
        }


def load_prof_segments(directory: Path | str) -> List[ProfileWindow]:
    """Replay a segment directory into windows, oldest first.

    Torn lines are skipped by :func:`repro.obs.segmentlog.read_rows`,
    rows that :meth:`ProfileWindow.from_dict` rejects are skipped here,
    and duplicate window ids — a segment replayed twice, or a window
    re-appended after a crash-restart — deduplicate to the last
    occurrence. Raises ``FileNotFoundError`` when the directory does not
    exist and ``ValueError`` when it holds no segments.
    """
    by_id: Dict[str, ProfileWindow] = {}
    for row in read_rows(directory, PROF_SEGMENT_PREFIX, "profile"):
        try:
            window = ProfileWindow.from_dict(row)
        except ValueError:
            continue
        by_id[window.id] = window
    return sorted(by_id.values(), key=lambda w: (w.start, w.id))
