"""Random assignment of traces to VMs.

The paper "randomly chose traces of the VMs in our experiments"; a
:class:`TracePool` wraps a trace source (a synthesizer or a list of
loaded real traces) and hands out a random trace per VM, reproducibly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.traces.base import UtilizationTrace
from repro.util.validation import require

__all__ = ["TracePool"]

# A source is either a materialized list of traces or an index-addressed
# synthesizer exposing ``trace(index)``.
TraceSource = Union[Sequence[UtilizationTrace], "IndexedSynthesizer"]


class TracePool:
    """Hands out traces for VMs, sampling randomly with replacement.

    A synthesizer's trace is built once per pool index and the same
    object is handed out on every later draw of that index; the memo is
    bounded by ``population``.  Traces are immutable
    (:class:`~repro.traces.base.ArrayTrace` samples are read-only), so
    VMs that draw one index share it safely.

    Args:
        source: either a sequence of traces (e.g. loaded from the real
            dataset) or an object with a ``trace(index)`` method (a
            synthesizer); synthesizers are addressed over ``population``
            distinct indices.
        rng: randomness for the assignment.
        population: virtual population size when ``source`` is a
            synthesizer (ignored for sequences).
    """

    def __init__(
        self,
        source: TraceSource,
        rng: np.random.Generator,
        population: int = 1000,
    ):
        self._rng = rng
        if hasattr(source, "trace") and callable(source.trace):
            require(population > 0, "population must be positive")
            memo: Dict[int, UtilizationTrace] = {}
            synthesize = source.trace

            def get(index: int) -> UtilizationTrace:
                trace = memo.get(index)
                if trace is None:
                    trace = memo[index] = synthesize(index)
                return trace

            self._get = get
            self._size = population
        else:
            traces = list(source)
            require(len(traces) > 0, "trace source is empty")
            self._get = traces.__getitem__
            self._size = len(traces)

    @property
    def size(self) -> int:
        """Number of distinct traces available."""
        return self._size

    def sample(self) -> UtilizationTrace:
        """One random trace (with replacement)."""
        return self._get(int(self._rng.integers(self._size)))

    def sample_many(self, count: int) -> List[UtilizationTrace]:
        """``count`` random traces (with replacement)."""
        return [self.sample() for _ in range(count)]
