"""Spatial and temporal features of atypical clusters (Definition 4).

A micro-cluster summarizes an atypical event with two algebraic features:

* the **spatial feature** ``SF = {<s_i, mu_i>}`` where ``mu_i`` is the
  aggregated severity of sensor ``s_i`` over the event, and
* the **temporal feature** ``TF = {<t_j, nu_j>}`` where ``nu_j`` is the
  aggregated severity over all sensors during window ``t_j``.

Both are severity-weighted multisets over integer keys and share one
implementation, :class:`SeverityFeature`. The merge operation implements
Equations 5/6 and is commutative and associative (Properties 2-3), which the
test suite verifies with property-based tests.

The representation is array-backed: a sorted ``int64`` key array, a parallel
``float64`` severity array, and a cached total. That turns the Eq. 3/4
overlap numerators into ``searchsorted`` kernels, the Eq. 5/6 merge into a
``reduceat`` segment sum, and lets :mod:`repro.core.kernels` pack many
features into one CSR matrix for batch similarity scoring. All severity
sums run in ascending-key order, so the scalar and batch kernels produce
bit-identical floats (see DESIGN.md, "Performance architecture").
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Tuple

import numpy as np

__all__ = ["SeverityFeature", "SpatialFeature", "TemporalFeature"]


class SeverityFeature:
    """An immutable mapping ``key -> aggregated severity`` (minutes).

    Keys are sensor ids for spatial features and window indices for temporal
    features. Severities are strictly positive; merging sums severities on
    common keys and keeps the non-overlapping ones (Eq. 5/6).

    Internally the feature stores a sorted ``int64`` key array and a parallel
    ``float64`` severity array (both frozen), plus the cached total severity.
    """

    __slots__ = ("_keys", "_values", "_total", "_cached_hash")

    def __init__(self, items: Mapping[int, float] | Iterable[Tuple[int, float]] = ()):
        data: dict[int, float] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for key, severity in pairs:
            severity = float(severity)
            if severity <= 0:
                raise ValueError(
                    f"feature severities must be positive, got {severity} for key {key}"
                )
            data[int(key)] = data.get(int(key), 0.0) + severity
        keys = np.fromiter(data.keys(), dtype=np.int64, count=len(data))
        values = np.fromiter(data.values(), dtype=np.float64, count=len(data))
        order = np.argsort(keys, kind="stable")
        self._set_arrays(keys[order], values[order])

    # ------------------------------------------------------------------
    # Array-backed constructors
    # ------------------------------------------------------------------
    def _set_arrays(self, keys: np.ndarray, values: np.ndarray) -> None:
        keys.flags.writeable = False
        values.flags.writeable = False
        self._keys = keys
        self._values = values
        self._total = float(values.sum()) if values.size else 0.0
        self._cached_hash = None

    @classmethod
    def _from_sorted(cls, keys: np.ndarray, values: np.ndarray) -> "SeverityFeature":
        """Internal: wrap already-sorted, unique-key, positive arrays."""
        result = cls.__new__(cls)
        result._set_arrays(keys, values)
        return result

    @classmethod
    def from_arrays(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        assume_sorted: bool = False,
        validate: bool = True,
    ) -> "SeverityFeature":
        """Build a feature from parallel key/severity arrays.

        Keys must be unique; with ``assume_sorted`` they must also be in
        ascending order. ``validate`` controls the positivity/uniqueness
        checks — callers that already aggregated severities from positive
        records (e.g. the event extractor) can skip them.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if keys.shape != values.shape or keys.ndim != 1:
            raise ValueError("keys and values must be parallel 1-d arrays")
        if not assume_sorted:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            values = values[order]
        if validate:
            if values.size and float(values.min()) <= 0.0:
                raise ValueError("feature severities must be positive")
            if keys.size > 1 and not np.all(keys[1:] > keys[:-1]):
                raise ValueError("feature keys must be unique and ascending")
        if keys.flags.writeable:
            keys = keys.copy()
        if values.flags.writeable:
            values = values.copy()
        return cls._from_sorted(keys, values)

    @classmethod
    def from_aggregates(cls, aggregates: Mapping[int, float]) -> "SeverityFeature":
        """Fast path for ``key -> severity`` dicts of positive aggregates.

        Skips the per-item coercion loop of ``__init__``; used by the
        streaming tracker and event extractor whose accumulators already
        hold positive per-key sums.
        """
        keys = np.fromiter(aggregates.keys(), dtype=np.int64, count=len(aggregates))
        values = np.fromiter(
            aggregates.values(), dtype=np.float64, count=len(aggregates)
        )
        if values.size and float(values.min()) <= 0.0:
            raise ValueError("feature severities must be positive")
        order = np.argsort(keys, kind="stable")
        result = cls.__new__(cls)
        result._set_arrays(keys[order], values[order])
        return result

    # ------------------------------------------------------------------
    # Array views (consumed by repro.core.kernels)
    # ------------------------------------------------------------------
    @property
    def key_array(self) -> np.ndarray:
        """Sorted ``int64`` keys (read-only view)."""
        return self._keys

    @property
    def value_array(self) -> np.ndarray:
        """Severities parallel to :attr:`key_array` (read-only view)."""
        return self._values

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def _find(self, key: int) -> int:
        """Index of ``key`` in the sorted key array, or -1."""
        keys = self._keys
        if keys.size == 0:
            return -1
        pos = int(np.searchsorted(keys, key))
        if pos < keys.size and keys[pos] == key:
            return pos
        return -1

    def __len__(self) -> int:
        return self._keys.size

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys.tolist())

    def __contains__(self, key: int) -> bool:
        return self._find(key) >= 0

    def __getitem__(self, key: int) -> float:
        pos = self._find(key)
        if pos < 0:
            raise KeyError(key)
        return float(self._values[pos])

    def get(self, key: int, default: float = 0.0) -> float:
        """Severity at ``key``, or ``default`` when the key is absent."""
        pos = self._find(key)
        return float(self._values[pos]) if pos >= 0 else default

    def keys(self) -> frozenset[int]:
        """The feature's keys as a frozenset."""
        return frozenset(self._keys.tolist())

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate ``(key, severity)`` pairs in ascending key order."""
        return iter(zip(self._keys.tolist(), self._values.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeverityFeature):
            return NotImplemented
        return np.array_equal(self._keys, other._keys) and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:
        if self._cached_hash is None:
            self._cached_hash = hash(
                (self._keys.tobytes(), self._values.tobytes())
            )
        return self._cached_hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(
            f"<{k}, {v:g}>" for k, v in list(self.items())[:4]
        )
        suffix = ", ..." if len(self) > 4 else ""
        return f"{type(self).__name__}({{{preview}{suffix}}})"

    # ------------------------------------------------------------------
    # Severity arithmetic
    # ------------------------------------------------------------------
    def total(self) -> float:
        """Total severity over all keys; ``severity(C)`` sums this. Cached."""
        return self._total

    def overlap(self, other: "SeverityFeature") -> float:
        """Severity of *this* feature restricted to keys shared with ``other``.

        This is the numerator of Eq. 3/4: ``sum_{S1 ∩ S2} mu_1``. Note the
        asymmetry — each side of the similarity uses its own severities.
        The sum runs in ascending-key order (the shared convention of all
        kernels, see module docstring).
        """
        keys, values = self._keys, self._values
        other_keys = other._keys
        if keys.size == 0 or other_keys.size == 0:
            return 0.0
        pos = np.searchsorted(other_keys, keys)
        np.minimum(pos, other_keys.size - 1, out=pos)
        mask = other_keys[pos] == keys
        if not mask.any():
            return 0.0
        # cumsum scans sequentially in key order, matching the batch
        # kernels' bincount accumulation bit for bit (np.sum would use
        # pairwise summation and drift at the last ulp)
        return float(np.cumsum(values[mask])[-1])

    def overlap_fraction(self, other: "SeverityFeature") -> float:
        """``overlap(other) / total()`` — one argument of the balance function."""
        total = self._total
        if total == 0:
            return 0.0
        return self.overlap(other) / total

    def intersects(self, other: "SeverityFeature") -> bool:
        """True when the two key sets share at least one key (fast reject)."""
        keys, other_keys = self._keys, other._keys
        if keys.size == 0 or other_keys.size == 0:
            return False
        # disjoint key ranges settle most rejects with two scalar compares
        if keys[-1] < other_keys[0] or other_keys[-1] < keys[0]:
            return False
        if keys.size > other_keys.size:
            keys, other_keys = other_keys, keys
        pos = other_keys.searchsorted(keys)
        np.minimum(pos, other_keys.size - 1, out=pos)
        return bool((other_keys[pos] == keys).any())

    def merge(self, other: "SeverityFeature") -> "SeverityFeature":
        """Eq. 5/6: sum severities on common keys, keep the rest (Algorithm 2).

        Implemented as a stable-sorted concatenation plus a ``reduceat``
        segment sum; on common keys this adds *this* feature's severity
        first, exactly like the scalar accumulation it replaced.
        """
        return type(self)._merge_arrays(
            (self._keys, other._keys), (self._values, other._values)
        )

    @classmethod
    def merge_all(cls, features: Iterable["SeverityFeature"]) -> "SeverityFeature":
        """K-way Eq. 5/6 merge in one kernel call."""
        feature_list = list(features)
        if not feature_list:
            return cls()
        if len(feature_list) == 1:
            single = feature_list[0]
            return cls._from_sorted(single._keys, single._values)
        return cls._merge_arrays(
            tuple(f._keys for f in feature_list),
            tuple(f._values for f in feature_list),
        )

    @classmethod
    def _merge_arrays(
        cls,
        key_arrays: Tuple[np.ndarray, ...],
        value_arrays: Tuple[np.ndarray, ...],
    ) -> "SeverityFeature":
        keys = np.concatenate(key_arrays)
        if keys.size == 0:
            return cls()
        values = np.concatenate(value_arrays)
        # stable: equal keys stay in operand order, so segment sums
        # accumulate left-to-right like the scalar fold they replaced
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        return cls._from_sorted(keys[starts], np.add.reduceat(values, starts))

    def restricted(self, keys: Iterable[int]) -> "SeverityFeature":
        """Sub-feature on the given keys (used by query-range clipping)."""
        if isinstance(keys, SeverityFeature):
            wanted = keys._keys
        else:
            wanted = np.unique(
                np.fromiter((int(k) for k in keys), dtype=np.int64)
            )
        own = self._keys
        if own.size == 0 or wanted.size == 0:
            return type(self)()
        pos = np.searchsorted(wanted, own)
        np.minimum(pos, wanted.size - 1, out=pos)
        mask = wanted[pos] == own
        return type(self)._from_sorted(own[mask].copy(), self._values[mask].copy())

    def argmax(self) -> Tuple[int, float]:
        """The most severe key, e.g. 'on which road segment is the
        congestion most serious' from Example 1."""
        if self._keys.size == 0:
            raise ValueError("empty feature has no argmax")
        # first maximum = smallest key among ties (keys are sorted)
        pos = int(np.argmax(self._values))
        return int(self._keys[pos]), float(self._values[pos])

    def min_key(self) -> int:
        """Smallest key (e.g. the start window of an event)."""
        if self._keys.size == 0:
            raise ValueError("empty feature has no keys")
        return int(self._keys[0])

    def max_key(self) -> int:
        """Largest key; raises ``ValueError`` on an empty feature."""
        if self._keys.size == 0:
            raise ValueError("empty feature has no keys")
        return int(self._keys[-1])

    def top(self, k: int) -> list[Tuple[int, float]]:
        """The ``k`` most severe entries, most severe first."""
        # stable sort on descending severity: ties keep ascending key order
        order = np.argsort(-self._values, kind="stable")[:k]
        return [
            (int(self._keys[i]), float(self._values[i])) for i in order
        ]


class SpatialFeature(SeverityFeature):
    """``SF``: aggregated severity per sensor (Def. 4)."""

    __slots__ = ()


class TemporalFeature(SeverityFeature):
    """``TF``: aggregated severity per time window (Def. 4)."""

    __slots__ = ()
