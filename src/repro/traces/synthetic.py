"""Synthetic trace generators.

Building blocks used by the PlanetLab and Google synthesizers, also
useful directly in tests and examples: a diurnal (daily-cycle) pattern,
an Ornstein-Uhlenbeck mean-reverting process, and periodic load spikes.
All generators take an explicit :class:`numpy.random.Generator` so
experiments are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from repro.traces.base import ArrayTrace
from repro.util.validation import require

__all__ = ["diurnal_trace", "ou_trace", "periodic_spike_trace"]


def diurnal_trace(
    rng: np.random.Generator,
    n_samples: int = 288,
    sample_interval_s: float = 300.0,
    base: float = 0.15,
    amplitude: float = 0.10,
    noise: float = 0.05,
    burst_probability: float = 0.02,
    burst_height: float = 0.4,
) -> ArrayTrace:
    """A daily sinusoid plus Gaussian noise and occasional bursts.

    Models the interactive workloads that dominate PlanetLab nodes: a
    day/night cycle with a randomized peak hour, noise around it, and
    rare short bursts.

    Args:
        rng: randomness source.
        n_samples: number of samples (288 = 24 h at 5-minute intervals).
        sample_interval_s: seconds per sample.
        base: mean utilization level.
        amplitude: half peak-to-trough swing of the daily cycle.
        noise: standard deviation of per-sample Gaussian noise.
        burst_probability: per-sample probability of a burst.
        burst_height: additional utilization during a burst.
    """
    require(n_samples > 0, "n_samples must be positive")
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n_samples) * (2.0 * np.pi / n_samples)
    values = base + amplitude * np.sin(t + phase)
    values += rng.normal(0.0, noise, size=n_samples)
    bursts = rng.random(n_samples) < burst_probability
    values[bursts] += burst_height * rng.random(int(bursts.sum()))
    return ArrayTrace(np.clip(values, 0.0, 1.0), sample_interval_s)


def ou_trace(
    rng: np.random.Generator,
    n_samples: int = 288,
    sample_interval_s: float = 300.0,
    mean: float = 0.25,
    reversion: float = 0.2,
    volatility: float = 0.08,
    start: float = None,
) -> ArrayTrace:
    """A mean-reverting Ornstein-Uhlenbeck utilization process.

    Matches batch/long-running services whose load wanders around a
    setpoint: ``x[k+1] = x[k] + reversion * (mean - x[k]) + vol * N(0,1)``.
    """
    require(n_samples > 0, "n_samples must be positive")
    require(0.0 < reversion <= 1.0, "reversion must be in (0, 1]")
    x = mean if start is None else start
    values = []
    # The clipped recurrence is sequential; Python floats run it several
    # times faster than NumPy scalars, with the same IEEE-754 results.
    for shock in rng.normal(0.0, volatility, size=n_samples).tolist():
        x = x + reversion * (mean - x) + shock
        x = min(max(x, 0.0), 1.0)
        values.append(x)
    return ArrayTrace(values, sample_interval_s)


def periodic_spike_trace(
    rng: np.random.Generator,
    n_samples: int = 288,
    sample_interval_s: float = 300.0,
    idle: float = 0.05,
    spike: float = 0.85,
    period: int = 24,
    duty: int = 3,
) -> ArrayTrace:
    """Mostly idle with regular high-load windows (cron-style jobs).

    Every ``period`` samples the load jumps to ``spike`` for ``duty``
    samples; the phase is randomized per trace.
    """
    require(0 < duty <= period, "need 0 < duty <= period")
    offset = int(rng.integers(period))
    values = np.full(n_samples, idle, dtype=float)
    values[(np.arange(n_samples) + offset) % period < duty] = spike
    values += rng.normal(0.0, 0.02, size=n_samples)
    return ArrayTrace(np.clip(values, 0.0, 1.0), sample_interval_s)
