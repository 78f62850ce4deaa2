"""Global observability state and the accessors instrumented code uses.

Observability is **off by default**: every accessor below then returns a
shared null object whose methods are no-ops, so instrumentation in hot
paths costs one module-global check and nothing else — no registry
entries, no allocations. The CLI (``--metrics-out``) or a caller flips it
on with :func:`activate`.

Instrumented code does::

    from repro import obs

    if obs.enabled():
        obs.counter("integration.merges").inc(result.merges)

or, for phases, ``with obs.span("integrate.fixpoint") as sp: ...`` (see
:mod:`repro.obs.spans`).

:func:`activate` is the scoped form used by tests and the CLI: it swaps in
a registry, enables collection, and restores the previous state on exit —
nothing leaks across test cases or CLI invocations.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Iterator, List, Optional, Sequence

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlidingWindow,
)

__all__ = [
    "enabled",
    "registry",
    "set_registry",
    "activate",
    "counter",
    "gauge",
    "histogram",
    "window",
    "correlation_id",
    "correlation",
]


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        pass


class _NullWindow:
    __slots__ = ()

    def record(self, amount: float = 1.0, now: Optional[float] = None) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_WINDOW = _NullWindow()

_enabled: bool = False
_registry: MetricsRegistry = MetricsRegistry()
_local = threading.local()

#: Per-task correlation id (the query service's request id). A contextvar
#: rather than a thread-local so the id follows the work even if a handler
#: delegates to helper tasks.
_correlation: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_obs_correlation", default=None
)


def enabled() -> bool:
    """True when instrumentation should record into the registry."""
    return _enabled


def registry() -> MetricsRegistry:
    """The currently active registry (even while disabled)."""
    return _registry


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry; returns the previous one."""
    global _registry
    previous = _registry
    _registry = reg
    return previous


@contextlib.contextmanager
def activate(
    reg: Optional[MetricsRegistry] = None, collecting: bool = True
) -> Iterator[MetricsRegistry]:
    """Scoped observability: swap in ``reg`` (or a fresh registry), set the
    enabled flag to ``collecting``, and restore both on exit."""
    global _enabled
    target = reg if reg is not None else MetricsRegistry()
    previous_registry = set_registry(target)
    previous_enabled = _enabled
    _enabled = collecting
    try:
        yield target
    finally:
        _enabled = previous_enabled
        set_registry(previous_registry)


def span_stack() -> List[int]:
    """Per-thread stack of open span ids (used by :mod:`repro.obs.spans`)."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


# ----------------------------------------------------------------------
# Accessors for instrumented code — null objects when disabled
# ----------------------------------------------------------------------
def counter(name: str) -> Counter:
    """Active registry's counter ``name``, or a no-op when disabled."""
    if not _enabled:
        return _NULL_COUNTER  # type: ignore[return-value]
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    """Active registry's gauge ``name``, or a no-op when disabled."""
    if not _enabled:
        return _NULL_GAUGE  # type: ignore[return-value]
    return _registry.gauge(name)


def histogram(name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
    """Active registry's histogram ``name``, or a no-op when disabled."""
    if not _enabled:
        return _NULL_HISTOGRAM  # type: ignore[return-value]
    return _registry.histogram(name, buckets)


def window(
    name: str, horizon: float = 600.0, resolution: float = 1.0
) -> SlidingWindow:
    """Active registry's sliding window ``name``, or a no-op when disabled."""
    if not _enabled:
        return _NULL_WINDOW  # type: ignore[return-value]
    return _registry.window(name, horizon, resolution)


# ----------------------------------------------------------------------
# Correlation ids (request tracing)
# ----------------------------------------------------------------------
def correlation_id() -> Optional[str]:
    """The correlation id bound to the current task, or ``None``.

    While set, every completed span is stamped with a ``request_id``
    attribute and callers (the query service's access log) attach it to
    their structured log lines, tying metrics, spans and logs of one
    request together.
    """
    return _correlation.get()


@contextlib.contextmanager
def correlation(cid: Optional[str]) -> Iterator[Optional[str]]:
    """Scoped correlation id: bind ``cid`` for the duration of the block.

    Nesting restores the previous id on exit; binding ``None`` clears it
    for the scope. Cheap enough to wrap every request.
    """
    token = _correlation.set(cid)
    try:
        yield cid
    finally:
        _correlation.reset(token)
