"""Float sanitizer: numpy error traps, finiteness guards, ULP compare.

The scoring and energy hot paths are pure float pipelines; a NaN or an
overflow there silently corrupts a whole run's metrics.  Under
:func:`float_guard` (the sanitizer's execution context) numpy turns
overflow/invalid/divide into raised ``FloatingPointError`` and the
instrumented hot paths additionally assert finiteness of what they
produce.  Guards follow the trace layer's compiled-out-by-default
discipline: call sites test ``GUARD.active`` (one slotted attribute
load) and skip the checks entirely outside a guard context.

:func:`ulp_diff` / :func:`ulp_close` implement the documented
summation-order tolerance: the columnar tick re-associates float
reductions, so energy/SLO running totals are compared in units-in-the-
last-place rather than bit-for-bit (see DESIGN.md §3.12 for the
documented bounds per twin pair).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "FloatSanitizerError",
    "GUARD",
    "float_guard",
    "check_finite",
    "ulp_diff",
    "ulp_close",
]


class FloatSanitizerError(FloatingPointError):
    """A guarded hot path produced a non-finite value."""


class _GuardState:
    """Process-wide guard switch; slotted so the check is one load."""

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active = False


#: The global switch guarded call sites test
#: (``if GUARD.active: check_finite(...)``).
GUARD = _GuardState()


@contextmanager
def float_guard() -> Iterator[None]:
    """Trap float faults for the duration of the block.

    Numpy overflow/invalid/divide raise instead of warn, and the
    instrumented hot paths (score snapping, power integration) assert
    finiteness of their outputs.  Re-entrant: nested guards simply keep
    the switch on.
    """
    previous = GUARD.active
    GUARD.active = True
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    finally:
        GUARD.active = previous


def check_finite(values: object, label: str) -> None:
    """Raise :class:`FloatSanitizerError` if any value is NaN or inf.

    Args:
        values: a scalar or array-like of floats.
        label: what the values are, for the error message.
    """
    array = np.atleast_1d(np.asarray(values, dtype=float))
    if array.size and not bool(np.all(np.isfinite(array))):
        bad = array[~np.isfinite(array)]
        raise FloatSanitizerError(
            f"non-finite value in {label}: {bad[:8].tolist()}"
            + ("..." if bad.size > 8 else "")
        )


def _ordered_bits(value: float) -> int:
    """Map a float64 to an integer whose ordering matches the reals.

    Adjacent representable floats map to adjacent integers, so the
    absolute difference of two mapped values is their distance in
    units-in-the-last-place.  Both zeros map to 0.
    """
    bits = int(np.float64(value).view(np.int64))
    if bits >= 0:
        return bits
    return -(2**63) - bits


def ulp_diff(a: float, b: float) -> int:
    """Distance between two floats in units-in-the-last-place.

    NaN against anything, or mismatched infinities, count as infinitely
    far apart (``2**64``); equal values (including ``-0.0`` vs ``0.0``
    and matching infinities) are 0 apart.
    """
    if math.isnan(a) or math.isnan(b):
        return 2**64
    if math.isinf(a) or math.isinf(b):
        return 0 if a == b else 2**64
    return abs(_ordered_bits(a) - _ordered_bits(b))


def ulp_close(a: float, b: float, max_ulps: int = 0) -> bool:
    """Whether two floats are within ``max_ulps`` representable steps."""
    return ulp_diff(a, b) <= max_ulps
