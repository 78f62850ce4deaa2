"""Atypical cluster integration (Algorithm 3).

Repeatedly merges every cluster pair whose similarity exceeds ``delta_sim``
until no pair qualifies, turning micro-clusters into macro-clusters. Two
implementations are provided:

* ``"naive"`` — Algorithm 3 with all-pairs comparisons, but with the
  best-pair scan maintained *incrementally*: all qualifying pairs are
  scored once up front (one CSR sparse product via
  :func:`~repro.core.similarity.ClusterSimilarity.matrix`) and kept in a
  max-heap; each merge only scores the merged cluster against the
  remaining active set instead of re-scanning every pair. Kept for
  cross-validation and the ablation bench — it measures the *comparison
  strategy* (all pairs vs. index candidates), not wasted re-scans.
* ``"indexed"`` — maintains inverted indexes ``sensor -> clusters`` and
  ``window -> clusters``. Only clusters sharing a sensor or a window can
  have non-zero similarity (see
  :meth:`~repro.core.similarity.ClusterSimilarity.can_be_similar`), so each
  cluster only ever compares against its index candidates, scored as one
  batch kernel call per queue pop. This is the production path.

Both paths share a :class:`SimilarityCache`: similarities are functions of
immutable clusters, so across fixpoint iterations only pairs touching a
freshly merged cluster are ever recomputed — each merge costs
O(candidates) instead of a full re-scan. A cache may also be shared across
integration runs (the atypical forest does this for its day -> week ->
month levels and for re-materialization after cache invalidation).

``comparisons`` counts *unique* full Eq. 2-4 evaluations: pairs eliminated
by the ``can_be_similar`` fast reject or answered from the cache are not
counted. Both paths use the same fast reject, so the ablation measures the
candidate-generation strategy alone.

The paper notes (Sec. V-D) that hard clustering makes the result order-
dependent in principle but that the influence is limited; both
implementations here use deterministic tie-breaking (highest similarity,
then lowest cluster-id pair) so results are reproducible run to run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro import obs
from repro.core.cluster import AtypicalCluster, ClusterIdGenerator
from repro.core.merge import merge_clusters
from repro.core.similarity import ClusterSimilarity

__all__ = [
    "IntegrationResult",
    "SimilarityCache",
    "ClusterIntegrator",
]


class SimilarityCache:
    """Memo of pair similarities keyed by ``(low_id, high_id)``.

    Valid indefinitely because clusters are immutable and ids are never
    reused within a session; merged-away clusters simply stop being looked
    up. The forest shares one cache across all its level materializations
    so that re-integrating after ``add_day`` invalidation only scores the
    pairs the new day introduced.
    """

    __slots__ = ("_store", "hits", "misses")

    def __init__(self) -> None:
        self._store: Dict[Tuple[int, int], float] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(a_id: int, b_id: int) -> Tuple[int, int]:
        return (a_id, b_id) if a_id <= b_id else (b_id, a_id)

    def get(self, a_id: int, b_id: int) -> Optional[float]:
        """Cached similarity for the pair, counting a hit or a miss."""
        value = self._store.get(self._key(a_id, b_id))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, a_id: int, b_id: int, value: float) -> None:
        """Memoize the similarity of an id pair (order-insensitive)."""
        self._store[self._key(a_id, b_id)] = value

    def contains(self, a_id: int, b_id: int) -> bool:
        """Membership peek that does not touch the hit/miss counters."""
        return self._key(a_id, b_id) in self._store

    def merge_from(
        self,
        other: "SimilarityCache",
        id_map: Optional[Dict[int, int]] = None,
    ) -> int:
        """Absorb another cache's entries, optionally remapping ids.

        This is the shard-safety hook for parallel construction: a worker
        process integrates a shard under *local* (or temporary) cluster
        ids and ships its cache back; the reducer folds it into the
        forest's shared cache after remapping local ids to their canonical
        values. ``id_map`` translates ids — ids absent from the map are
        assumed to already be canonical (micro-cluster ids are never
        remapped by the materialization phase). Similarity is a pure
        function of the two immutable clusters (Eq. 2-4), so absorbed
        entries are exactly what the parent would have computed itself.

        Returns the number of entries absorbed. The hit/miss counters of
        ``other`` are folded in too, keeping metrics parity.
        """
        absorbed = 0
        if id_map:
            for (low, high), value in other._store.items():
                self._store[
                    self._key(id_map.get(low, low), id_map.get(high, high))
                ] = value
                absorbed += 1
        else:
            absorbed = len(other._store)
            self._store.update(other._store)
        self.hits += other.hits
        self.misses += other.misses
        return absorbed

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0


@dataclass
class IntegrationResult:
    """Outcome of one integration run.

    ``created`` maps the id of every intermediate merge product to its
    cluster, so callers can walk full provenance chains (the clustering
    tree) even for clusters that were merged again later. ``comparisons``
    counts unique full Eq. 2-4 evaluations (fast-rejected and cached pairs
    excluded). ``fast_rejects`` counts the comparisons the candidate
    structure avoided: pairs masked out of the matrix warm-up plus, per
    fixpoint iteration, the active clusters the index (or
    ``can_be_similar``) never offered as candidates — skip *events*, not
    unique pairs.

    ``rounds`` counts fixpoint driver iterations: queue pops for the
    indexed path, heap pops for the naive path — *including* stale
    entries skipped by lazy deletion, so it measures the driver's actual
    work, not just merges. ``cache_hits``/``cache_misses`` are this run's
    deltas of the (possibly shared) :class:`SimilarityCache` counters —
    the same numbers the observability layer exports, surfaced here so
    the query explain report can mirror them exactly.
    """

    clusters: List[AtypicalCluster]
    merges: int = 0
    comparisons: int = 0
    fast_rejects: int = 0
    created: Dict[int, AtypicalCluster] = field(default_factory=dict)
    rounds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def __iter__(self):
        return iter(self.clusters)

    def __len__(self) -> int:
        return len(self.clusters)


class ClusterIntegrator:
    """Configured Algorithm 3 runner.

    Parameters
    ----------
    threshold:
        ``delta_sim``; a pair merges when ``sim > threshold`` (strict, as in
        Algorithm 3 line 3). Default 0.5, the value the paper recommends.
    similarity:
        The configured Eq. 2 measure (balance function choice).
    method:
        ``"indexed"`` (default) or ``"naive"``.
    """

    def __init__(
        self,
        threshold: float = 0.5,
        similarity: ClusterSimilarity | str = "avg",
        method: str = "indexed",
    ):
        if not 0 <= threshold <= 1:
            raise ValueError(f"similarity threshold must be in [0, 1]: {threshold}")
        if method not in ("indexed", "naive"):
            raise ValueError(f"unknown integration method: {method!r}")
        self._threshold = float(threshold)
        self._sim = (
            similarity
            if isinstance(similarity, ClusterSimilarity)
            else ClusterSimilarity(similarity)
        )
        self._method = method

    @property
    def threshold(self) -> float:
        """The merge threshold ``delta_sim`` (Algorithm 3 stop condition)."""
        return self._threshold

    @property
    def similarity(self) -> ClusterSimilarity:
        """The :class:`ClusterSimilarity` measure in use (Eq. 2-4)."""
        return self._sim

    # ------------------------------------------------------------------
    def integrate(
        self,
        clusters: Iterable[AtypicalCluster],
        ids: Optional[ClusterIdGenerator] = None,
        cache: Optional[SimilarityCache] = None,
    ) -> IntegrationResult:
        """Run Algorithm 3 over ``clusters`` and return the macro-cluster set.

        ``cache`` (optional) carries pair similarities across runs; pass the
        same cache to successive integrations over overlapping inputs to
        only pay for pairs not seen before.
        """
        cluster_list = list(clusters)
        if ids is None:
            start = max((c.cluster_id for c in cluster_list), default=-1) + 1
            ids = ClusterIdGenerator(start)
        if len(cluster_list) <= 1:
            return IntegrationResult(clusters=cluster_list)
        if cache is None:
            cache = SimilarityCache()
        hits_before = cache.hits
        misses_before = cache.misses
        with obs.span("integrate.fixpoint") as sp:
            if self._method == "naive":
                result = self._integrate_naive(cluster_list, ids, cache)
            else:
                result = self._integrate_indexed(cluster_list, ids, cache)
            result.clusters.sort(key=lambda c: (-c.severity(), c.cluster_id))
            result.cache_hits = cache.hits - hits_before
            result.cache_misses = cache.misses - misses_before
            if obs.enabled():
                self._export_metrics(sp, result, len(cluster_list))
        return result

    def _export_metrics(
        self,
        sp,
        result: "IntegrationResult",
        inputs: int,
    ) -> None:
        """Feed one run's counters into the registry and span attributes.

        The per-run deltas of the :class:`SimilarityCache` attributes
        (mirrored onto ``result.cache_hits``/``cache_misses`` by
        :meth:`integrate`) are pushed here in one shot, so the hot loops
        never touch the registry and the legacy ``hits``/``misses``
        attributes stay the source of truth (the test suite asserts both
        views agree).
        """
        obs.counter("integration.runs").inc()
        obs.counter("integration.merges").inc(result.merges)
        obs.counter("integration.comparisons").inc(result.comparisons)
        obs.counter("integration.fast_rejects").inc(result.fast_rejects)
        obs.counter("integration.rounds").inc(result.rounds)
        obs.counter("similarity.cache.hits").inc(result.cache_hits)
        obs.counter("similarity.cache.misses").inc(result.cache_misses)
        obs.histogram("integration.input_clusters").observe(inputs)
        looked_up = result.cache_hits + result.cache_misses
        sp.set(
            method=self._method,
            input_clusters=inputs,
            output_clusters=len(result.clusters),
            merges=result.merges,
            comparisons=result.comparisons,
            fast_rejects=result.fast_rejects,
            rounds=result.rounds,
            cache_hit_ratio=(
                round(result.cache_hits / looked_up, 4) if looked_up else 0.0
            ),
        )

    # ------------------------------------------------------------------
    def _score_batch(
        self,
        cluster: AtypicalCluster,
        candidate_ids: List[int],
        active: Dict[int, AtypicalCluster],
        cache: SimilarityCache,
        assume_fresh: bool = False,
    ) -> Tuple[List[float], int]:
        """Similarities of ``cluster`` vs each candidate id, cache-first.

        All cache misses are scored in one vectorized kernel call; returns
        the similarity list (aligned with ``candidate_ids``) and the number
        of fresh evaluations. ``assume_fresh`` skips the per-candidate
        cache scan — valid when ``cluster``'s id was just minted (a fresh
        merge product), because ids are never reused so no pair involving
        it can already be cached.
        """
        cid = cluster.cluster_id
        # same-module fast path: touch the cache dict directly so the inner
        # loop pays one dict lookup per candidate instead of three calls
        store = cache._store
        if assume_fresh:
            values = self._sim.batch(
                cluster, [active[other_id] for other_id in candidate_ids]
            )
            sims = values.tolist()
            store.update(
                zip(
                    (
                        (cid, other_id) if cid <= other_id else (other_id, cid)
                        for other_id in candidate_ids
                    ),
                    sims,
                )
            )
            cache.misses += len(candidate_ids)
            return sims, len(candidate_ids)
        sims: List[Optional[float]] = [None] * len(candidate_ids)
        fresh_pos: List[int] = []
        for pos, other_id in enumerate(candidate_ids):
            key = (cid, other_id) if cid <= other_id else (other_id, cid)
            cached = store.get(key)
            if cached is None:
                fresh_pos.append(pos)
            else:
                sims[pos] = cached
        cache.hits += len(candidate_ids) - len(fresh_pos)
        cache.misses += len(fresh_pos)
        if fresh_pos:
            if len(fresh_pos) <= self._SCALAR_BATCH_CUTOFF:
                # a tiny fresh set is cheaper through the scalar path (bit-
                # identical to the kernel) than through a kernel call's
                # fixed overhead
                score = self._sim
                for pos in fresh_pos:
                    other_id = candidate_ids[pos]
                    value = score(cluster, active[other_id])
                    sims[pos] = value
                    store[
                        (cid, other_id) if cid <= other_id else (other_id, cid)
                    ] = value
            else:
                fresh_clusters = [active[candidate_ids[pos]] for pos in fresh_pos]
                values = self._sim.batch(cluster, fresh_clusters)
                for pos, value in zip(fresh_pos, values.tolist()):
                    sims[pos] = value
                    other_id = candidate_ids[pos]
                    store[
                        (cid, other_id) if cid <= other_id else (other_id, cid)
                    ] = value
        return sims, len(fresh_pos)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _integrate_naive(
        self,
        clusters: List[AtypicalCluster],
        ids: ClusterIdGenerator,
        cache: SimilarityCache,
    ) -> IntegrationResult:
        active: Dict[int, AtypicalCluster] = {c.cluster_id: c for c in clusters}
        if len(active) != len(clusters):
            raise ValueError("duplicate cluster ids in integration input")
        created: Dict[int, AtypicalCluster] = {}
        merges = 0
        comparisons = 0
        fast_rejects = 0
        threshold = self._threshold
        # (-sim, low_id, high_id): pops the highest similarity first, ties
        # resolve to the lexicographically smallest id pair
        heap: List[Tuple[float, int, int]] = []

        def push_qualifying(a_id: int, b_id: int, sim: float) -> None:
            if sim > threshold:
                low, high = (a_id, b_id) if a_id <= b_id else (b_id, a_id)
                heapq.heappush(heap, (-sim, low, high))

        # Seed every qualifying pair once. One CSR sparse product scores
        # the whole input; its candidate mask (pairs sharing a sensor or a
        # window) doubles as the ``can_be_similar`` fast reject — masked-out
        # pairs have exactly similarity 0 and are neither counted nor
        # pushed. Pairs a shared cache already knows are overwritten with
        # bit-identical values; only the genuinely new ones count.
        ordered = sorted(active)
        sim_matrix, candidates = self._sim.matrix_and_candidates(
            [active[cid] for cid in ordered], True
        )
        rows, cols = np.nonzero(np.triu(candidates, k=1))
        id_arr = np.asarray(ordered, dtype=np.int64)
        pair_a = id_arr[rows].tolist()
        pair_b = id_arr[cols].tolist()
        values = sim_matrix[rows, cols]
        store = cache._store
        before = len(store)
        store.update(zip(zip(pair_a, pair_b), values.tolist()))
        comparisons += len(store) - before
        n = len(ordered)
        fast_rejects += n * (n - 1) // 2 - len(pair_a)
        for pos in np.nonzero(values > threshold)[0].tolist():
            heapq.heappush(heap, (-float(values[pos]), pair_a[pos], pair_b[pos]))

        rounds = 0
        while heap:
            rounds += 1
            neg_sim, a_id, b_id = heapq.heappop(heap)
            first = active.get(a_id)
            second = active.get(b_id)
            if first is None or second is None:
                continue  # stale: one side was already merged away
            del active[a_id]
            del active[b_id]
            merged = merge_clusters(first, second, ids)
            created[merged.cluster_id] = merged
            merges += 1
            # incremental best-pair maintenance: only the merged cluster's
            # pairs are new — everything else in the heap stays valid
            if active:
                candidate_ids = [
                    oid
                    for oid in sorted(active)
                    if ClusterSimilarity.can_be_similar(merged, active[oid])
                ]
                fast_rejects += len(active) - len(candidate_ids)
                sims, fresh = self._score_batch(
                    merged, candidate_ids, active, cache
                )
                comparisons += fresh
                for oid, sim in zip(candidate_ids, sims):
                    push_qualifying(merged.cluster_id, oid, sim)
            active[merged.cluster_id] = merged

        return IntegrationResult(
            clusters=list(active.values()),
            merges=merges,
            comparisons=comparisons,
            fast_rejects=fast_rejects,
            created=created,
            rounds=rounds,
        )

    # Above this size the n x n similarity matrix of the warm-up pass costs
    # more memory than the per-pop batch path saves (2048**2 float64 = 32 MB).
    _WARM_CAP = 2048
    # Fresh sets at or below this size go through the scalar similarity
    # (bit-identical); the kernel's fixed call overhead only pays off on
    # larger candidate batches.
    _SCALAR_BATCH_CUTOFF = 8

    def _warm_cache(
        self,
        active: Dict[int, AtypicalCluster],
        include_window: bool,
        cache: SimilarityCache,
    ) -> Tuple[int, int]:
        """Pre-score every candidate pair with one CSR matrix product.

        Filling the cache up front turns the per-pop ``_score_batch`` calls
        of the indexed fixpoint into pure hits for all original-input pairs;
        only pairs touching a freshly merged cluster are scored later.
        Returns ``(fresh, rejected)``: the number of fresh evaluations
        (pairs not already cached) and the number of pairs the candidate
        mask proved trivially dissimilar.
        """
        n = len(active)
        if n < 2 or n > self._WARM_CAP:
            return 0, 0
        ordered = sorted(active)
        sim, candidates = self._sim.matrix_and_candidates(
            [active[cid] for cid in ordered], include_window
        )
        rows, cols = np.nonzero(np.triu(candidates, k=1))
        id_arr = np.asarray(ordered, dtype=np.int64)
        # ordered is ascending and row < col, so each pair is already a
        # cache key; one bulk dict.update instead of a per-pair loop.
        # Pairs a shared cache already knows are overwritten with the same
        # value (the matrix and batch kernels are bit-identical).
        store = cache._store
        before = len(store)
        store.update(
            zip(
                zip(id_arr[rows].tolist(), id_arr[cols].tolist()),
                sim[rows, cols].tolist(),
            )
        )
        return len(store) - before, n * (n - 1) // 2 - len(rows)

    # ------------------------------------------------------------------
    def _integrate_indexed(
        self,
        clusters: List[AtypicalCluster],
        ids: ClusterIdGenerator,
        cache: SimilarityCache,
    ) -> IntegrationResult:
        active: Dict[int, AtypicalCluster] = {c.cluster_id: c for c in clusters}
        if len(active) != len(clusters):
            raise ValueError("duplicate cluster ids in integration input")
        by_sensor: Dict[int, Set[int]] = {}
        by_window: Dict[int, Set[int]] = {}

        def index_add(cluster: AtypicalCluster) -> None:
            for sensor in cluster.spatial:
                by_sensor.setdefault(sensor, set()).add(cluster.cluster_id)
            for window in cluster.temporal:
                by_window.setdefault(window, set()).add(cluster.cluster_id)

        def index_remove(cluster: AtypicalCluster) -> None:
            for sensor in cluster.spatial:
                bucket = by_sensor.get(sensor)
                if bucket is not None:
                    bucket.discard(cluster.cluster_id)
                    if not bucket:
                        del by_sensor[sensor]
            for window in cluster.temporal:
                bucket = by_window.get(window)
                if bucket is not None:
                    bucket.discard(cluster.cluster_id)
                    if not bucket:
                        del by_window[window]

        for cluster in clusters:
            index_add(cluster)

        def collect_candidates(cluster: AtypicalCluster) -> Set[int]:
            found: Set[int] = set()
            for sensor in cluster.spatial:
                found.update(by_sensor.get(sensor, ()))
            if use_window_candidates:
                for window in cluster.temporal:
                    found.update(by_window.get(window, ()))
            found.discard(cluster.cluster_id)
            return found

        # Sensor-disjoint clusters have spatial similarity 0 under every
        # balance function, so Eq. 2 bounds their similarity by 1/2. When
        # the merge threshold is at least 0.5 only clusters sharing a
        # sensor can merge, and the window index would only produce
        # candidates that are rejected anyway — skip it entirely.
        use_window_candidates = self._threshold < 0.5

        created: Dict[int, AtypicalCluster] = {}
        merges = 0
        fast_rejects = 0
        comparisons, fast_rejects = self._warm_cache(
            active, use_window_candidates, cache
        )
        # Process lowest ids first for determinism.
        queue: List[int] = sorted(active)
        queued: Set[int] = set(queue)
        head = 0
        rounds = 0
        while head < len(queue):
            rounds += 1
            cid = queue[head]
            head += 1
            queued.discard(cid)
            cluster = active.get(cid)
            if cluster is None:
                continue
            candidates = collect_candidates(cluster)
            # index pruning: active clusters never offered as candidates
            # are comparisons the inverted indexes saved this iteration
            fast_rejects += len(active) - 1 - len(candidates)
            if not candidates:
                continue

            # one batch kernel call scores the node's whole candidate set;
            # pairs already known (from a previous iteration or a shared
            # forest cache) are answered from the cache
            candidate_ids = sorted(candidates)
            sims, fresh = self._score_batch(cluster, candidate_ids, active, cache)
            comparisons += fresh

            best_sim = self._threshold
            best_id: Optional[int] = None
            for other_id, sim in zip(candidate_ids, sims):
                # strict improvement: ties resolve to the lowest id because
                # candidates are visited in ascending id order
                if sim > best_sim:
                    best_sim = sim
                    best_id = other_id
            if best_id is None:
                continue

            other = active.pop(best_id)
            active.pop(cid)
            index_remove(cluster)
            index_remove(other)
            merged = merge_clusters(cluster, other, ids)
            created[merged.cluster_id] = merged
            active[merged.cluster_id] = merged
            index_add(merged)
            merges += 1
            # score the merged cluster against its whole candidate set now,
            # in one batch call; later pops that see it answer from the
            # cache instead of paying a tiny kernel call per stale pair
            new_candidates = collect_candidates(merged)
            if new_candidates:
                _, fresh = self._score_batch(
                    merged, sorted(new_candidates), active, cache,
                    assume_fresh=True,
                )
                comparisons += fresh
            if merged.cluster_id not in queued:
                queue.append(merged.cluster_id)
                queued.add(merged.cluster_id)

        return IntegrationResult(
            clusters=list(active.values()),
            merges=merges,
            comparisons=comparisons,
            fast_rejects=fast_rejects,
            created=created,
            rounds=rounds,
        )
