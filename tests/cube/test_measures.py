"""Tests for the aggregate-measure taxonomy (Gray et al.)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.reference.measures import (
    AverageMeasure,
    CountMeasure,
    MaxMeasure,
    MedianMeasure,
    MinMeasure,
    SumMeasure,
)

value_lists = st.lists(st.floats(-100, 100), min_size=0, max_size=30)
nonempty_lists = st.lists(st.floats(-100, 100), min_size=1, max_size=30)


def split(values):
    mid = len(values) // 2
    return values[:mid], values[mid:]


class TestDistributive:
    def test_sum_compute(self):
        assert SumMeasure().compute([1, 2, 3]) == 6.0

    def test_count_compute(self):
        assert CountMeasure().compute([5, 5, 5]) == 3.0

    def test_min_compute(self):
        assert MinMeasure().compute([3, -1, 2]) == -1.0

    def test_max_compute(self):
        assert MaxMeasure().compute([3, -1, 2]) == 3.0

    def test_sum_empty(self):
        assert SumMeasure().compute([]) == 0.0

    @given(values=value_lists)
    def test_sum_distributivity(self, values):
        # Property 4's definition: combine(subsets) == whole
        m = SumMeasure()
        left, right = split(values)
        combined = m.combine(
            m.add(m.initial(), np.asarray(left)),
            m.add(m.initial(), np.asarray(right)),
        )
        assert m.finalize(combined) == pytest.approx(m.compute(values))

    @given(values=nonempty_lists)
    def test_min_max_distributivity(self, values):
        for m in (MinMeasure(), MaxMeasure()):
            left, right = split(values)
            state = m.combine(
                m.add(m.initial(), np.asarray(left)),
                m.add(m.initial(), np.asarray(right)),
            )
            assert m.finalize(state) == pytest.approx(m.compute(values))

    @given(values=value_lists)
    def test_count_distributivity(self, values):
        m = CountMeasure()
        left, right = split(values)
        state = m.combine(
            m.add(m.initial(), np.asarray(left)),
            m.add(m.initial(), np.asarray(right)),
        )
        assert m.finalize(state) == len(values)


class TestAlgebraic:
    def test_average(self):
        assert AverageMeasure().compute([2, 4, 6]) == pytest.approx(4.0)

    def test_average_empty(self):
        assert AverageMeasure().compute([]) == 0.0

    def test_components_bounded(self):
        # algebraic = bounded number of distributive arguments (Property 2)
        assert len(AverageMeasure().components) == 2

    @given(values=nonempty_lists)
    def test_average_from_partials(self, values):
        m = AverageMeasure()
        left, right = split(values)
        state = m.combine(
            m.add(m.initial(), np.asarray(left)),
            m.add(m.initial(), np.asarray(right)),
        )
        assert m.finalize(state) == pytest.approx(float(np.mean(values)))

    def test_rejects_empty_components(self):
        from tests.reference.measures import AlgebraicMeasure

        class Hollow(AlgebraicMeasure):
            def finalize(self, state):  # pragma: no cover - never reached
                return 0.0

        with pytest.raises(ValueError):
            Hollow(())


class TestHolistic:
    def test_median(self):
        assert MedianMeasure().compute([1, 9, 3]) == 3.0

    def test_median_empty(self):
        assert MedianMeasure().compute([]) == 0.0

    @given(values=nonempty_lists)
    def test_median_combine_order_irrelevant(self, values):
        m = MedianMeasure()
        left, right = split(values)
        a = m.add(m.initial(), np.asarray(left))
        b = m.add(m.initial(), np.asarray(right))
        assert m.finalize(m.combine(a, b)) == pytest.approx(
            m.finalize(m.combine(b, a))
        )

    @given(values=value_lists)
    def test_state_size_unbounded(self, values):
        # Property 1's criterion: holistic state grows with the data
        m = MedianMeasure()
        state = m.add(m.initial(), np.asarray(values))
        assert m.state_size(state) == len(values)
