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


    def test_non_finite_samples_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError):
                ArrayTrace([0.5, bad, 0.2])
        with pytest.raises(ValidationError):
            ArrayTrace(np.full(3, np.nan))


class TestArrayTraceRows:
    MATRIX = np.array(
        [[0.1, 0.5, 0.9], [0.0, 1.0, 0.25], [0.3, 0.3, 0.7]]
    )
    #: Around every sample boundary, the cycle boundary (900 s) and the
    #: hold past the end.
    TIMES = (
        0.0, 299.999, 300.0, 599.999, 600.0, 899.999, 900.0, 1199.0,
        1200.0, 1800.0, 2699.0, 1e6, 1e9,
    )

    @pytest.mark.parametrize("cycle", [True, False])
    def test_each_row_behaves_like_its_own_trace(self, cycle):
        traces = ArrayTrace.rows(self.MATRIX, 300.0, cycle)
        assert len(traces) == len(self.MATRIX)
        for row, trace in zip(self.MATRIX, traces):
            single = ArrayTrace(row, 300.0, cycle)
            for t in self.TIMES:
                assert trace.utilization_at(t) == single.utilization_at(t)
            assert trace.cycle is cycle
            assert trace.sample_interval_s == 300.0
            assert len(trace) == len(single)
            assert trace.mean() == single.mean()
            assert repr(trace) == repr(single)

    def test_rows_are_read_only_views_of_one_copy(self):
        source = self.MATRIX.copy()
        traces = ArrayTrace.rows(source)
        source[0, 0] = 0.8
        assert traces[0].utilization_at(0.0) == 0.1
        base = traces[0].samples.base
        for trace in traces:
            assert not trace.samples.flags.writeable
            assert trace.samples.base is base
            with pytest.raises(ValueError):
                trace.samples[0] = 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            [[]],
            [[0.2, -0.1]],
            [[0.2, 1.5]],
            [[0.2, np.nan, 0.3]],
            [[0.2, np.inf]],
        ],
    )
    def test_rejects_what_init_rejects_with_its_error(self, bad):
        with pytest.raises(ValidationError) as single:
            ArrayTrace(bad[0])
        with pytest.raises(ValidationError) as batch:
            ArrayTrace.rows(bad)
        assert str(batch.value) == str(single.value)

    def test_rejects_a_nan_in_any_row(self):
        matrix = self.MATRIX.copy()
        matrix[2, 1] = np.nan
        with pytest.raises(ValidationError):
            ArrayTrace.rows(matrix)

    def test_rejects_no_rows_and_bad_shapes(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            ArrayTrace.rows(np.empty((0, 16)))
        with pytest.raises(ValidationError, match="2-D"):
            ArrayTrace.rows([0.1, 0.2])
        with pytest.raises(ValidationError, match="positive"):
            ArrayTrace.rows(self.MATRIX, sample_interval_s=0.0)


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
