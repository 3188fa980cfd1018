"""Tests for trace primitives."""

import numpy as np
import pytest

from repro.traces.base import ArrayTrace, ConstantTrace, UtilizationTrace
from repro.util.validation import ValidationError


class TestArrayTrace:
    def test_step_function_semantics(self):
        trace = ArrayTrace([0.1, 0.5, 0.9], sample_interval_s=300.0)
        assert trace.utilization_at(0.0) == pytest.approx(0.1)
        assert trace.utilization_at(299.9) == pytest.approx(0.1)
        assert trace.utilization_at(300.0) == pytest.approx(0.5)
        assert trace.utilization_at(899.0) == pytest.approx(0.9)

    def test_cycles_after_end(self):
        trace = ArrayTrace([0.1, 0.9], sample_interval_s=100.0, cycle=True)
        assert trace.utilization_at(200.0) == pytest.approx(0.1)
        assert trace.utilization_at(300.0) == pytest.approx(0.9)

    def test_holds_last_when_not_cycling(self):
        trace = ArrayTrace([0.1, 0.9], sample_interval_s=100.0, cycle=False)
        assert trace.utilization_at(1e9) == pytest.approx(0.9)

    def test_out_of_range_samples_rejected(self):
        with pytest.raises(ValidationError):
            ArrayTrace([0.5, 1.5])
        with pytest.raises(ValidationError):
            ArrayTrace([-0.1])

    def test_out_of_range_array_rejected(self):
        with pytest.raises(ValidationError):
            ArrayTrace(np.array([0.2, 1.0 + 1e-12]))

    def test_samples_are_a_read_only_copy(self):
        source = np.array([0.2, 0.4])
        trace = ArrayTrace(source)
        source[0] = 0.9
        assert trace.utilization_at(0.0) == 0.2
        with pytest.raises(ValueError):
            trace.samples[0] = 0.5
        assert trace.utilization_at(0.0) == 0.2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ArrayTrace([])

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            ArrayTrace([0.5]).utilization_at(-1.0)

    def test_metadata(self):
        trace = ArrayTrace([0.2, 0.4], sample_interval_s=300.0)
        assert len(trace) == 2
        assert trace.duration_s == 600.0
        assert trace.mean() == pytest.approx(0.3)
        assert trace.sample_interval_s == 300.0

    def test_satisfies_protocol(self):
        assert isinstance(ArrayTrace([0.5]), UtilizationTrace)


class TestConstantTrace:
    def test_constant(self):
        trace = ConstantTrace(0.7)
        assert trace.utilization_at(0.0) == 0.7
        assert trace.utilization_at(1e9) == 0.7
        assert trace.mean() == 0.7

    def test_bounds_validated(self):
        with pytest.raises(Exception):
            ConstantTrace(1.5)

    def test_satisfies_protocol(self):
        assert isinstance(ConstantTrace(0.5), UtilizationTrace)
