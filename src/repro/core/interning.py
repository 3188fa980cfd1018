"""Packed storage width for canonical usage profiles.

A profile graph stores its flat profile values in one packed
unsigned-integer matrix (see
:meth:`repro.core.graph.ProfileGraph.packed_profiles`).  The dtype is
chosen from the shape's largest unit capacity
(``uint8``/``uint16``/``uint32``), so an EC2-scale graph's profile store
is a few MB instead of a forest of tuple objects.
"""

from __future__ import annotations

import numpy as np

from repro.core.profile import MachineShape

__all__ = ["packed_dtype_for"]


def packed_dtype_for(shape: MachineShape) -> np.dtype:
    """Smallest unsigned dtype holding every unit capacity of ``shape``."""
    max_cap = max(c for group in shape.groups for c in group.capacities)
    if max_cap <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if max_cap <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)
