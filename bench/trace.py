"""Spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` wraps a layer's public callable *where its caller looks
it up* (a class attribute for methods, a module global for functions), so
the program runs unmodified and every call is timed from outside. Spans
carry name, start, end, parent and request id, stay in memory, and are
written out once at the end of the run.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


#: Marks a wrapped attribute its owner inherited rather than defined.
_INHERITED = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.request_id: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span; the yielded dict takes counts under ``counts``."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request_id,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Spans opened inside share ``request_id``."""
        previous, self.request_id = self.request_id, request_id
        try:
            yield
        finally:
            self.request_id = previous

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        counts: Optional[Callable[[tuple, dict, object], Dict[str, float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a version that runs inside a span.

        ``counts(args, kwargs, result)`` may attach work counts to the span
        after the call returns (outside the timed interval).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                record["counts"] = counts(args, kwargs, result)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped callable (last wrapped first)."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> self time in seconds."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def duration_ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


def per_request(
    spans: List[dict], name: str, value: Callable[[dict], float] = duration_ms
) -> Dict[object, float]:
    """Request id -> ``value`` summed over the request's spans called
    ``name`` (by default their milliseconds).

    Requests in which the span never ran are absent (not a zero).
    """
    totals: Dict[object, float] = defaultdict(float)
    for span in spans:
        if span["name"] == name:
            totals[span["request"]] += value(span)
    return dict(totals)


def count_total(spans: List[dict], name: str, key: str) -> float:
    """Sum of count ``key`` over every span called ``name``."""
    return sum(span["counts"].get(key, 0) for span in spans if span["name"] == name)
