"""Columnar (struct-of-arrays) storage for the PM fleet.

The object substrate keeps one Python :class:`~repro.cluster.machine.
PhysicalMachine` per PM; every monitor tick then walks ~n Python objects.
This module stores the same state as one set of contiguous numpy
columns indexed by inventory position:

* :class:`FleetColumns` — the fleet's columns: quantized usage (real
  unit order), health flag, allocation count, shape/type ids, CPU
  capacity, the per-row allocation records, and an append-only CSR of
  per-chunk CPU demand terms (``pm row, trace slot, burst ceiling``).
  The CSR is built in one pass over the live allocations (each distinct
  CPU assignment's ceilings computed once, each column converted to its
  array once) and then appended to by every write.  Each entry span
  keeps the ceilings tuple it was written from, so the relief loop's
  per-machine fold reads it instead of re-deriving the ceilings.
* :class:`TraceColumns` — the VM side: utilization traces grouped by
  kind so one tick evaluates every VM's current fraction with a handful
  of array reads instead of n_vms Python calls.  Each sample-array
  group is stored tick-major, ``(n_samples, n_slots)``, so a tick reads
  one contiguous row per group.

The fleet is one column set; DESIGN.md §3.11 says why.

Bit-identity with the object path rests on two facts, both load-bearing:

1. ``np.bincount(rows, weights=...)`` accumulates float64 weights
   *sequentially per bin in input order*, so the fleet's demand reduction
   reproduces the Python left-fold ``demand += fraction * ceiling``
   bit-for-bit as long as CSR entries keep allocation insertion order.
   (``np.add.reduceat`` does not have this property — pairwise summation
   diverges in the last ulp — which is why the CSR feeds ``bincount``.)
2. Dead CSR entries are *zeroed*, not removed: adding ``0.0`` to a
   non-negative partial sum is an exact no-op, so eviction never has to
   reorder the surviving terms.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.machine import cpu_group_index
from repro.core.profile import MachineShape, Usage
from repro.traces.base import ArrayTrace, ConstantTrace, UtilizationTrace
from repro.util.validation import ValidationError

__all__ = [
    "FleetColumns",
    "ShapeInfo",
    "TraceColumns",
    "chunk_ceilings",
    "validate_burst",
]


def validate_burst(burst: Any) -> bool:
    """Validate a burst model; returns True when it is numeric.

    Mirrors ``PhysicalMachine._cpu_demand_terms`` exactly, including the
    error messages, so the columnar path fails identically.
    """
    numeric = isinstance(burst, (int, float)) and not isinstance(burst, bool)
    if not numeric and burst not in ("core", "request"):
        raise ValidationError(
            f"unknown burst model {burst!r}; use 'core', 'request' or a "
            "positive factor"
        )
    if numeric and burst <= 0:
        raise ValidationError(f"burst factor must be positive, got {burst}")
    return numeric


def chunk_ceilings(
    cpu_assignment: Sequence[Tuple[int, int]],
    capacities: Sequence[int],
    burst: Any,
) -> Tuple[float, ...]:
    """Per-chunk CPU demand ceilings of one allocation under a burst model.

    Same definition as ``PhysicalMachine._cpu_demand_terms``; values are
    exact small integers (or ``chunk * burst`` products computed the same
    way), so the downstream ``fraction * ceiling`` terms are bit-equal to
    the object path's.
    """
    numeric = validate_burst(burst)
    if numeric:
        return tuple(
            min(chunk * burst, capacities[idx]) for idx, chunk in cpu_assignment
        )
    if burst == "core":
        return tuple(capacities[idx] for idx, chunk in cpu_assignment)
    return tuple(chunk for idx, chunk in cpu_assignment)


class ShapeInfo:
    """Flattening metadata of one :class:`MachineShape` (interned per dc).

    Maps the shape's per-group unit structure onto one flat row of the
    usage column: group ``g`` occupies columns ``offsets[g] ..
    offsets[g+1]`` (``spans[g]``).  ``empty_usage`` is the shape's zero
    usage, the one canonical usage every empty PM of the shape shares.
    """

    __slots__ = (
        "shape", "shape_id", "n_dims", "offsets", "spans", "cpu_group",
        "cpu_capacities", "cpu_capacity", "empty_usage",
    )

    def __init__(self, shape: MachineShape, shape_id: int) -> None:
        self.shape = shape
        self.shape_id = shape_id
        self.offsets: Tuple[int, ...] = tuple(
            int(x) for x in np.cumsum(
                [0] + [group.n_units for group in shape.groups]
            )
        )
        self.n_dims = self.offsets[-1]
        self.spans: Tuple[Tuple[int, int], ...] = tuple(
            zip(self.offsets, self.offsets[1:])
        )
        self.cpu_group = cpu_group_index(shape)
        self.cpu_capacities = shape.groups[self.cpu_group].capacities
        self.cpu_capacity = shape.groups[self.cpu_group].total_capacity
        self.empty_usage = shape.empty_usage()

    def split_usage(self, values: List[int]) -> Usage:
        """Split one flat usage row (a list) into the nested ``Usage`` form."""
        return tuple(tuple(values[lo:hi]) for lo, hi in self.spans)

    def usage_tuple(self, row: np.ndarray) -> Usage:
        """Materialize one usage row as the nested-tuple ``Usage`` form."""
        return self.split_usage(row.tolist())


class _BurstCSR:
    """Append-only fleet-wide CSR of CPU demand terms for one burst model.

    Arrays grow by doubling; entries are appended in placement order and
    zeroed (never compacted away) on removal, preserving the exact
    accumulation order of the object path's per-machine fold.
    """

    __slots__ = ("rows", "slots", "ceilings", "n", "spans")

    def __init__(
        self,
        rows: np.ndarray,
        slots: np.ndarray,
        ceilings: np.ndarray,
        spans: Dict[Tuple[int, int], Tuple[int, Tuple[float, ...]]],
    ) -> None:
        self.rows, self.slots, self.ceilings = rows, slots, ceilings
        self.n = rows.size
        #: (row, vm_id) -> (start, ceilings) of the live entry span; the
        #: ceilings tuple is the one its entries were written from.
        self.spans = spans

    def _grow(self, need: int) -> None:
        capacity = max(self.rows.size, 256)
        while capacity < need:
            capacity *= 2
        for name in ("rows", "slots", "ceilings"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)

    def append(
        self, row: int, vm_id: int, slot: int, ceilings: Tuple[float, ...]
    ) -> None:
        k = len(ceilings)
        if self.n + k > self.rows.size:
            self._grow(self.n + k)
        start = self.n
        self.rows[start:start + k] = row
        self.slots[start:start + k] = slot
        self.ceilings[start:start + k] = ceilings
        self.n += k
        self.spans[(row, vm_id)] = (start, ceilings)

    def remove(self, row: int, vm_id: int) -> None:
        start, ceilings = self.spans.pop((row, vm_id))
        # Zeroing keeps surviving terms in order; 0.0-weight entries are
        # exact no-ops under bincount accumulation.
        self.ceilings[start:start + len(ceilings)] = 0.0

    def live(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (rows, slots, ceilings) views covering all entries."""
        return (
            self.rows[: self.n],
            self.slots[: self.n],
            self.ceilings[: self.n],
        )


class FleetColumns:
    """The fleet's contiguous columns, one row per inventory position.

    All mutation goes through :class:`~repro.core.soa.datacenter.
    SoADatacenter`; this class only owns the storage and the per-burst
    CSR bookkeeping.  A write reads its usage row once as a list and
    stores it back once.  There is no canonical-usage column: the
    usage-class index keeps the one copy of each PM's canonical usage.
    """

    __slots__ = (
        "n", "usage", "failed", "alloc_count", "shape_id",
        "type_id", "cpu_capacity", "allocs", "csr",
    )

    def __init__(self, n: int, max_dims: int) -> None:
        self.n = n
        self.usage = np.zeros((n, max_dims), dtype=np.int32)
        self.failed = np.zeros(n, dtype=bool)
        self.alloc_count = np.zeros(n, dtype=np.int32)
        self.shape_id = np.zeros(n, dtype=np.int32)
        self.type_id = np.zeros(n, dtype=np.int32)
        self.cpu_capacity = np.ones(n, dtype=np.float64)
        self.allocs: List[Dict[int, Allocation]] = [{} for _ in range(n)]
        #: burst model -> lazily built CSR (usually exactly one entry).
        self.csr: Dict[Any, _BurstCSR] = {}

    def build_csr(
        self,
        burst: Any,
        info_of: Sequence[ShapeInfo],
        slot_of: Callable[[int], int],
    ) -> _BurstCSR:
        """Bulk-build the CSR for a burst model from the live allocations.

        One pass in row order, then each column converted once: the
        entries land exactly where appends in that order would put them,
        and each distinct (shape, CPU assignment) gets its ceilings once.
        """
        validate_burst(burst)
        vm_rows: List[int] = []
        vm_slots: List[int] = []
        counts: List[int] = []
        ceilings: List[float] = []
        spans: Dict[Tuple[int, int], Tuple[int, Tuple[float, ...]]] = {}
        known: Dict[Tuple[int, Any], Tuple[float, ...]] = {}
        for row in np.flatnonzero(self.alloc_count).tolist():
            info = info_of[self.shape_id[row]]
            for vm_id, allocation in self.allocs[row].items():
                cpu_assign = allocation.assignments[info.cpu_group]
                key = (info.shape_id, cpu_assign)
                if key not in known:
                    known[key] = chunk_ceilings(
                        cpu_assign, info.cpu_capacities, burst
                    )
                terms = known[key]
                spans[(row, vm_id)] = (len(ceilings), terms)
                vm_rows.append(row)
                vm_slots.append(slot_of(vm_id))
                counts.append(len(terms))
                ceilings.extend(terms)
        csr = _BurstCSR(
            np.repeat(np.asarray(vm_rows, dtype=np.intp), counts),
            np.repeat(np.asarray(vm_slots, dtype=np.intp), counts),
            np.asarray(ceilings, dtype=np.float64),
            spans,
        )
        self.csr[burst] = csr
        return csr

    def demand(self, burst: Any, fractions: np.ndarray) -> np.ndarray:
        """Per-row CPU demand under ``burst`` given global trace fractions.

        ``bincount`` accumulates the ``fraction * ceiling`` terms
        sequentially per row in entry order — bit-identical to the object
        path's left-fold (see module docstring).
        """
        csr = self.csr.get(burst)
        if csr is None or csr.n == 0:
            return np.zeros(self.n, dtype=np.float64)
        rows, slots, ceilings = csr.live()
        return np.bincount(
            rows, weights=fractions[slots] * ceilings, minlength=self.n
        )


class _ArrayTraceGroup:
    """Traces sharing (n_samples, interval, cycle): one sample matrix.

    The matrix is tick-major, ``(n_samples, n_slots)``: one tick reads
    one contiguous row.  Constant traces form the one-sample group.
    """

    __slots__ = ("slots", "samples", "matrix", "slot_arr")

    def __init__(self) -> None:
        self.slots: List[int] = []
        self.samples: List[Union[np.ndarray, Tuple[float]]] = []
        self.matrix: Optional[np.ndarray] = None
        self.slot_arr: Optional[np.ndarray] = None

    def add(self, slot: int, samples: Union[np.ndarray, Tuple[float]]) -> None:
        self.slots.append(slot)
        self.samples.append(samples)
        self.matrix = None

    def materialize(self) -> Tuple[np.ndarray, np.ndarray]:
        if self.matrix is None:
            self.matrix = np.stack(self.samples, axis=1)
            self.slot_arr = np.asarray(self.slots, dtype=np.intp)
        return self.slot_arr, self.matrix


class TraceColumns:
    """Column registry of VM utilization traces, grouped by kind.

    ``register`` interns a VM's trace into a slot; ``fractions(t)``
    returns the float64 fraction of every slot at time ``t`` —
    bit-identical to calling each trace's ``utilization_at`` because the
    grouped forms read the very same float64 sample values.
    """

    __slots__ = ("n", "_slot_of", "_array_groups", "_fallback")

    def __init__(self) -> None:
        self.n = 0
        #: vm_id -> (slot, trace object); a *different* trace object for
        #: the same vm_id gets a fresh slot (the old one simply goes idle).
        self._slot_of: Dict[int, Tuple[int, UtilizationTrace]] = {}
        self._array_groups: Dict[
            Tuple[int, float, bool], _ArrayTraceGroup
        ] = {}
        self._fallback: Dict[int, UtilizationTrace] = {}

    def register(self, vm_id: int, trace: UtilizationTrace) -> int:
        """Slot of a VM's trace, interning it on first sight."""
        known = self._slot_of.get(vm_id)
        if known is not None and known[1] is trace:
            return known[0]
        slot = self.n
        self.n += 1
        self._slot_of[vm_id] = (slot, trace)
        samples: Union[np.ndarray, Tuple[float]]
        if isinstance(trace, ConstantTrace):
            key, samples = (1, 1.0, True), (trace.mean(),)
        elif isinstance(trace, ArrayTrace):
            key = (len(trace), trace.sample_interval_s, trace.cycle)
            samples = trace.samples
        else:
            self._fallback[slot] = trace
            return slot
        group = self._array_groups.get(key)
        if group is None:
            group = _ArrayTraceGroup()
            self._array_groups[key] = group
        group.add(slot, samples)
        return slot

    def slot(self, vm_id: int) -> int:
        """The registered slot of a VM (KeyError when never registered)."""
        return self._slot_of[vm_id][0]

    def fractions(self, time_s: float) -> np.ndarray:
        """Every slot's utilization fraction at ``time_s`` (float64)."""
        out = np.zeros(self.n, dtype=np.float64)
        for (n_samples, interval, cycle), group in self._array_groups.items():
            index = int(time_s // interval)
            if cycle:
                index %= n_samples
            else:
                index = min(index, n_samples - 1)
            slot_arr, matrix = group.materialize()
            out[slot_arr] = matrix[index]
        for slot, trace in self._fallback.items():
            out[slot] = trace.utilization_at(time_s)
        return out
