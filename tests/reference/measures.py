"""Aggregate measure taxonomy (Gray et al., used by Properties 1, 2 and 4).

The paper's correctness arguments lean on the classic data-cube measure
classification:

* **distributive** — computable by combining the measure of disjoint
  subsets (sum, count, min, max). The total severity ``F(W, T)`` is
  distributive (Property 4), which is what makes the red-zone guidance
  cheap.
* **algebraic** — computable from a bounded number of distributive
  arguments (average = sum/count). The spatial/temporal features of
  atypical clusters are algebraic (Property 2).
* **holistic** — no constant-size sub-aggregate suffices (median, the raw
  atypical *event* of Property 1).

These classes implement the taxonomy as composable aggregators, the
reference ``tests/cube/test_measures.py`` checks the distributivity and
algebraicity claims against directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Generic, Iterable, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = [
    "Measure",
    "DistributiveMeasure",
    "SumMeasure",
    "CountMeasure",
    "MinMeasure",
    "MaxMeasure",
    "AlgebraicMeasure",
    "AverageMeasure",
    "HolisticMeasure",
    "MedianMeasure",
]

State = TypeVar("State")


class Measure(ABC, Generic[State]):
    """An aggregate measure with explicit partial-aggregation state."""

    name: str = "measure"

    @abstractmethod
    def initial(self) -> State:
        """State of the empty aggregate."""

    @abstractmethod
    def add(self, state: State, values: np.ndarray) -> State:
        """Fold a batch of values into ``state``."""

    @abstractmethod
    def combine(self, left: State, right: State) -> State:
        """Combine the states of two disjoint subsets."""

    @abstractmethod
    def finalize(self, state: State) -> float:
        """The measure value of the aggregated set."""

    def compute(self, values: Iterable[float]) -> float:
        """One-shot aggregation of a value collection."""
        arr = np.asarray(list(values), dtype=np.float64)
        return self.finalize(self.add(self.initial(), arr))


class DistributiveMeasure(Measure[float]):
    """A measure whose state *is* its value: combine == the measure itself."""

    def finalize(self, state: float) -> float:
        return float(state)


class SumMeasure(DistributiveMeasure):
    """Total severity — the ``F(W, T)`` measure of Property 4."""

    name = "sum"

    def initial(self) -> float:
        return 0.0

    def add(self, state: float, values: np.ndarray) -> float:
        return state + float(values.sum()) if len(values) else state

    def combine(self, left: float, right: float) -> float:
        return left + right


class CountMeasure(DistributiveMeasure):
    name = "count"

    def initial(self) -> float:
        return 0.0

    def add(self, state: float, values: np.ndarray) -> float:
        return state + float(len(values))

    def combine(self, left: float, right: float) -> float:
        return left + right


class MinMeasure(DistributiveMeasure):
    name = "min"

    def initial(self) -> float:
        return float("inf")

    def add(self, state: float, values: np.ndarray) -> float:
        return min(state, float(values.min())) if len(values) else state

    def combine(self, left: float, right: float) -> float:
        return min(left, right)


class MaxMeasure(DistributiveMeasure):
    name = "max"

    def initial(self) -> float:
        return float("-inf")

    def add(self, state: float, values: np.ndarray) -> float:
        return max(state, float(values.max())) if len(values) else state

    def combine(self, left: float, right: float) -> float:
        return max(left, right)


@dataclass(frozen=True)
class _AlgebraicState:
    """Bounded tuple of distributive sub-states (the ``m`` arguments)."""

    parts: Tuple[float, ...]


class AlgebraicMeasure(Measure[_AlgebraicState]):
    """A measure computed from a bounded vector of distributive states."""

    def __init__(self, components: Sequence[DistributiveMeasure]):
        if not components:
            raise ValueError("algebraic measure needs at least one component")
        self._components = tuple(components)

    @property
    def components(self) -> Tuple[DistributiveMeasure, ...]:
        return self._components

    def initial(self) -> _AlgebraicState:
        return _AlgebraicState(tuple(c.initial() for c in self._components))

    def add(self, state: _AlgebraicState, values: np.ndarray) -> _AlgebraicState:
        return _AlgebraicState(
            tuple(
                c.add(part, values)
                for c, part in zip(self._components, state.parts)
            )
        )

    def combine(self, left: _AlgebraicState, right: _AlgebraicState) -> _AlgebraicState:
        return _AlgebraicState(
            tuple(
                c.combine(a, b)
                for c, a, b in zip(self._components, left.parts, right.parts)
            )
        )


class AverageMeasure(AlgebraicMeasure):
    """Mean severity: the canonical algebraic measure (sum / count)."""

    name = "avg"

    def __init__(self) -> None:
        super().__init__((SumMeasure(), CountMeasure()))

    def finalize(self, state: _AlgebraicState) -> float:
        total, count = state.parts
        return total / count if count else 0.0


class HolisticMeasure(Measure[List[float]]):
    """A measure that must retain the full value multiset (Property 1)."""

    def initial(self) -> List[float]:
        return []

    def add(self, state: List[float], values: np.ndarray) -> List[float]:
        return state + [float(v) for v in values]

    def combine(self, left: List[float], right: List[float]) -> List[float]:
        return left + right

    def state_size(self, state: List[float]) -> int:
        """Storage needed by the state — unbounded for holistic measures."""
        return len(state)


class MedianMeasure(HolisticMeasure):
    """Exact median — the textbook holistic measure, kept for tests that
    contrast it with the algebraic cluster features."""

    name = "median"

    def finalize(self, state: List[float]) -> float:
        if not state:
            return 0.0
        return float(np.median(np.asarray(state)))
