"""Trace primitives: a VM's CPU utilization as a function of time.

A trace maps simulation time to the fraction (in [0, 1]) of the VM's
*requested* CPU the VM actually consumes at that moment.  CloudSim's
PlanetLab mode holds each 5-minute sample constant until the next one;
:class:`ArrayTrace` reproduces that step-function semantics and cycles
when the simulation outlives the trace.
"""

from __future__ import annotations

from typing import Any, List, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.util.validation import ValidationError, require

__all__ = ["UtilizationTrace", "ArrayTrace", "ConstantTrace"]


def _read_only_samples(samples: Any, sample_interval_s: float) -> np.ndarray:
    """``samples`` as a validated, read-only float64 copy.

    The one check both :class:`ArrayTrace` constructors run: at least
    one sample, a positive interval, and every sample in [0, 1].  A NaN
    sample fails the range check (``min``/``max`` propagate it), as
    ``ConstantTrace(nan)`` fails its own.
    """
    values = np.array(samples, dtype=float)
    require(values.size > 0, "a trace needs at least one sample")
    require(sample_interval_s > 0, "sample_interval_s must be positive")
    low, high = float(values.min()), float(values.max())
    if not (low >= 0.0 and high <= 1.0):
        raise ValidationError(
            f"trace samples must lie in [0, 1], got range "
            f"[{low:.4f}, {high:.4f}]"
        )
    values.flags.writeable = False
    return values


@runtime_checkable
class UtilizationTrace(Protocol):
    """Anything that yields a utilization fraction over time."""

    def utilization_at(self, time_s: float) -> float:
        """Utilization fraction in [0, 1] at simulation time ``time_s``."""


class ArrayTrace:
    """A step-function trace over evenly spaced samples.

    The samples are copied into a read-only array, because one trace
    object is shared by every VM that draws it (see
    :class:`~repro.traces.sampler.TracePool`).

    Args:
        samples: utilization fractions, each in [0, 1].
        sample_interval_s: seconds each sample holds for (the PlanetLab
            trace uses 300 s).
        cycle: when True (default) the trace repeats after its last
            sample; when False the last sample holds forever.
    """

    __slots__ = ("_samples", "_interval", "_cycle")

    def __init__(
        self,
        samples: Sequence[float],
        sample_interval_s: float = 300.0,
        cycle: bool = True,
    ):
        self._samples = _read_only_samples(samples, sample_interval_s)
        self._interval = float(sample_interval_s)
        self._cycle = cycle

    @classmethod
    def rows(
        cls,
        matrix: Sequence[Sequence[float]],
        sample_interval_s: float = 300.0,
        cycle: bool = True,
    ) -> List["ArrayTrace"]:
        """One trace per row of a ``(n_traces, n_samples)`` matrix.

        The matrix is copied and validated once, by the same check
        :meth:`__init__` runs on one trace; each trace then holds its
        row of the read-only copy as a view, with no copy or range
        check of its own.  ``rows(m)[i]`` behaves exactly like
        ``ArrayTrace(m[i], sample_interval_s, cycle)``.
        """
        values = _read_only_samples(matrix, sample_interval_s)
        require(
            values.ndim == 2,
            f"rows needs a 2-D sample matrix, got {values.ndim}-D",
        )
        interval = float(sample_interval_s)
        traces = []
        for row in values:
            trace = cls.__new__(cls)
            trace._samples = row
            trace._interval = interval
            trace._cycle = cycle
            traces.append(trace)
        return traces

    @property
    def samples(self) -> np.ndarray:
        """The underlying sample array (read-only)."""
        return self._samples

    @property
    def sample_interval_s(self) -> float:
        """Seconds between consecutive samples."""
        return self._interval

    @property
    def cycle(self) -> bool:
        """Whether the trace repeats after its last sample."""
        return self._cycle

    @property
    def duration_s(self) -> float:
        """Total covered duration before cycling/holding."""
        return self._samples.size * self._interval

    def utilization_at(self, time_s: float) -> float:
        """Step-function lookup; cycles or holds past the end."""
        if time_s < 0:
            raise ValidationError(f"time must be non-negative, got {time_s}")
        index = int(time_s // self._interval)
        if self._cycle:
            index %= self._samples.size
        else:
            index = min(index, self._samples.size - 1)
        return float(self._samples[index])

    def mean(self) -> float:
        """Mean utilization across the trace."""
        return float(self._samples.mean())

    def __len__(self) -> int:
        return int(self._samples.size)

    def __reduce__(self) -> Any:
        # Through __init__, so an unpickled trace's samples are read-only
        # too (numpy unpickles arrays writeable).
        return (type(self), (self._samples, self._interval, self._cycle))

    def __repr__(self) -> str:
        return (
            f"ArrayTrace(n={self._samples.size}, "
            f"interval={self._interval}s, mean={self.mean():.3f})"
        )


class ConstantTrace:
    """A trace pinned at a fixed utilization (tests and worst cases)."""

    __slots__ = ("_value",)

    def __init__(self, value: float):
        require(0.0 <= value <= 1.0, f"value must be in [0,1], got {value}")
        self._value = float(value)

    def utilization_at(self, time_s: float) -> float:
        """The constant value, for any time."""
        return self._value

    def mean(self) -> float:
        """The constant value."""
        return self._value

    def __repr__(self) -> str:
        return f"ConstantTrace({self._value})"
