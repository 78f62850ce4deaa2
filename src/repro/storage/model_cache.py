"""Process-wide cache of loaded engines, keyed by model-file digests.

Loading a model (catalog config, forest deserialization, cube rebuild)
dominates the latency of a one-shot ``repro query`` and would be paid on
*every* request by a naive server. This cache loads each distinct model
once per process: the key is the SHA-256 digest of the model files plus
the engine configuration, so editing or rebuilding a model on disk is a
cache miss by construction — never a stale hit.

Hits and misses are mirrored into the observability registry
(``model_cache.hits`` / ``model_cache.misses``) when collection is
enabled; the query service surfaces them on ``/metrics``.

Entries carry a per-model ``query_lock``. The engine's query path shares
mutable state (the similarity cache) across runs, so concurrent server
threads serialize their ``engine.query`` calls through it; with the GIL
this costs no real parallelism for the CPU-bound query work.

For columnar models the cached engine holds a
:class:`~repro.storage.columnar.ColumnarForest` over one read-only
``numpy.memmap`` — every server thread shares that single mapped model
(the OS page cache backs it once, process-wide) instead of each request
paying for its own deserialized copy.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

from repro import obs

__all__ = [
    "MODEL_FILES",
    "CachedModel",
    "model_digest",
    "load_engine_cached",
    "clear_model_cache",
]

#: The files that make up a saved model, in digest order.
MODEL_FILES: Tuple[str, ...] = ("forest.bin", "cube.bin", "engine.json")


@dataclass
class CachedModel:
    """One cached engine plus the provenance that keyed it."""

    engine: object  #: the loaded :class:`~repro.analysis.engine.AnalysisEngine`
    digest: str  #: SHA-256 over the model files (see :func:`model_digest`)
    model_dir: Path  #: resolved model directory
    loaded_at: float  #: ``time.time()`` at load
    load_seconds: float  #: wall time the deserialization took
    forest_format: str = "pickle"  #: on-disk forest container format
    query_lock: threading.Lock = field(default_factory=threading.Lock)


_CACHE: Dict[Tuple, CachedModel] = {}
_LOCK = threading.Lock()


def model_digest(model_dir: Path | str) -> str:
    """SHA-256 hex digest over the model files in ``model_dir``.

    Hashes each of :data:`MODEL_FILES` (name plus content, so renames
    change the digest) in a fixed order. Missing files raise
    ``FileNotFoundError`` — a partial model must not be half-cached.
    """
    model_dir = Path(model_dir)
    sha = hashlib.sha256()
    for name in MODEL_FILES:
        sha.update(name.encode())
        sha.update((model_dir / name).read_bytes())
    return sha.hexdigest()


def load_engine_cached(
    model_dir: Path | str,
    network,
    districts,
    config,
) -> CachedModel:
    """Load (or reuse) the engine for ``model_dir`` with ``config``.

    The cache key is ``(resolved dir, file digest, config)``: any change
    to the model files or the engine parameters loads fresh. The caller
    must pair the model with the deployment it was built over (``network``
    / ``districts``), exactly as
    :meth:`~repro.analysis.engine.AnalysisEngine.load` requires — the
    cache does not re-validate that pairing on a hit.
    """
    from repro.analysis.engine import AnalysisEngine

    model_dir = Path(model_dir).resolve()
    digest = model_digest(model_dir)
    key = (str(model_dir), digest, config)
    with _LOCK:
        entry = _CACHE.get(key)
    if entry is not None:
        if obs.enabled():
            obs.counter("model_cache.hits").inc()
        return entry
    if obs.enabled():
        obs.counter("model_cache.misses").inc()
    from repro.storage.columnar import sniff_format

    fmt = sniff_format(model_dir / "forest.bin")
    started = time.perf_counter()
    with obs.span("model_cache.load") as sp:
        engine = AnalysisEngine.load(model_dir, network, districts, config)
        sp.set(model=str(model_dir), digest=digest[:12], format=fmt)
    entry = CachedModel(
        engine=engine,
        digest=digest,
        model_dir=model_dir,
        loaded_at=time.time(),
        load_seconds=time.perf_counter() - started,
        forest_format="pickle" if fmt == "legacy" else fmt,
    )
    with _LOCK:
        # a racing loader may have won; keep the first entry so every
        # caller shares one engine (and one query_lock)
        entry = _CACHE.setdefault(key, entry)
    return entry


def clear_model_cache() -> int:
    """Drop every cached engine; returns how many were evicted."""
    with _LOCK:
        count = len(_CACHE)
        _CACHE.clear()
    return count
