"""Tests for the trace pool."""

import numpy as np
import pytest

from repro.traces.base import ConstantTrace
from repro.traces.sampler import TracePool
from repro.util.rng import RngFactory
from repro.util.validation import ValidationError


class TestSequenceSource:
    def test_samples_from_sequence(self):
        traces = [ConstantTrace(v / 10) for v in range(5)]
        pool = TracePool(traces, np.random.default_rng(0))
        assert pool.size == 5
        assert pool.sample() in traces

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            TracePool([], np.random.default_rng(0))

    def test_sample_many(self):
        traces = [ConstantTrace(0.5)]
        pool = TracePool(traces, np.random.default_rng(0))
        assert len(pool.sample_many(7)) == 7


class TestSynthesizerSource:
    def test_wraps_synthesizer(self):
        from repro.traces.planetlab import PlanetLabSynthesizer

        pool = TracePool(
            PlanetLabSynthesizer(RngFactory(0)),
            np.random.default_rng(0),
            population=50,
        )
        assert pool.size == 50
        trace = pool.sample()
        assert trace.utilization_at(0.0) >= 0.0

    def test_synthesizes_each_index_once(self):
        calls = []

        class CountingSource:
            def trace(self, index):
                calls.append(index)
                return ConstantTrace(index / 10)

        pool = TracePool(CountingSource(), np.random.default_rng(0),
                         population=3)
        drawn = pool.sample_many(30)
        assert sorted(calls) == sorted(set(calls))
        for trace in drawn:
            assert trace is drawn[[t.mean() for t in drawn].index(trace.mean())]

    def test_population_validated(self):
        from repro.traces.planetlab import PlanetLabSynthesizer

        with pytest.raises(ValidationError):
            TracePool(
                PlanetLabSynthesizer(RngFactory(0)),
                np.random.default_rng(0),
                population=0,
            )

    def test_deterministic_with_seeded_rng(self):
        traces = [ConstantTrace(v / 10) for v in range(10)]

        def draw(seed):
            pool = TracePool(traces, np.random.default_rng(seed))
            return [t.mean() for t in pool.sample_many(5)]

        assert draw(3) == draw(3)
        assert draw(3) != draw(4)
