"""Columnar datacenter: the object-path API served from fleet columns.

:class:`SoADatacenter` is the substrate the simulation, serving and
testbed paths run on.  It keeps the API of the object
:class:`~repro.cluster.datacenter.Datacenter`, which survives only as
the seed-scan baseline the identity tests and twins compare against:
same constructor invariants, same mutation methods, same error types
and messages, same rollback semantics on failed migrations.  The
difference is storage — all machine state lives in
:class:`~repro.core.soa.columns.FleetColumns` arrays — and two
additional capabilities the simulation and auditor discover by duck
typing:

* :meth:`monitor_arrays` — one monitor tick's utilization/active/type
  columns for the healthy fleet, reduced in one fold (the columnar
  tick in :class:`~repro.cluster.simulation.CloudSimulation` consumes
  this instead of n per-machine utilization calls);
* :meth:`check_columns` — the auditor's "I2" check: every column is
  re-derived from the allocation records and compared, and every
  filled usage-cache entry is compared with its usage row.

:class:`SoAMachineView` is the ``__slots__``-backed proxy satisfying the
``PhysicalMachine`` API (the policy ``MachineView`` protocol plus the
monitor/selector surface) over one row of the columns.  Views are cheap,
stable (one per PM, created eagerly) and writable only through the
datacenter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocation import Allocation, Assignments
from repro.cluster.datacenter import restore_placement
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import Placement, can_place
from repro.core.policy import PlacementDecision
from repro.core.profile import MachineShape, Usage, VMType
from repro.core.soa.columns import (
    FleetColumns,
    ShapeInfo,
    TraceColumns,
    chunk_ceilings,
    validate_burst,
)
from repro.core.usage_index import ClassKey, IndexedMachines, UsageClassIndex
from repro.util.validation import ValidationError, require

__all__ = ["SoAMachineView", "SoADatacenter"]

#: Entries a datacenter's row-transition memo holds before it is emptied
#: (see :meth:`SoADatacenter._transition`).
TRANSITION_MEMO_SIZE = 256


class _Transition:
    """One valid write of ``assignments`` to a row of one shape at one usage.

    ``row`` is the new flat usage row, ``usage`` its nested form (shared
    by every PM the transition leaves in that state), ``class_key`` its
    usage-class key and ``class_id`` the id the usage-class index last
    gave that key (-1 before it gave one); :meth:`ceilings` gives the
    CSR terms of the placed chunks under a burst model, computed once
    per model.
    """

    __slots__ = (
        "assignments", "info", "row", "usage", "class_key", "class_id",
        "_ceilings",
    )

    def __init__(
        self,
        assignments: Assignments,
        info: ShapeInfo,
        row: np.ndarray,
        usage: Usage,
        class_key: ClassKey,
    ) -> None:
        self.assignments = assignments
        self.info = info
        self.row = row
        self.usage = usage
        self.class_key = class_key
        self.class_id = -1
        self._ceilings: Dict[Any, Tuple[float, ...]] = {}

    def ceilings(self, burst: Any) -> Tuple[float, ...]:
        """:func:`chunk_ceilings` of the placed CPU chunks under ``burst``."""
        terms = self._ceilings.get(burst)
        if terms is None:
            info = self.info
            terms = chunk_ceilings(
                self.assignments[info.cpu_group], info.cpu_capacities, burst
            )
            self._ceilings[burst] = terms
        return terms


class SoAMachineView:
    """Read-mostly ``PhysicalMachine`` facade over one column row."""

    __slots__ = ("_dc", "_pos")

    def __init__(self, dc: "SoADatacenter", pos: int) -> None:
        self._dc = dc
        self._pos = pos

    # ------------------------------------------------------------------
    # MachineView protocol
    # ------------------------------------------------------------------
    @property
    def pm_id(self) -> int:
        """Stable PM identifier."""
        return self._dc._pm_ids[self._pos]

    @property
    def shape(self) -> MachineShape:
        """Capacity shape."""
        return self._dc._info_of_pos(self._pos).shape

    @property
    def usage(self) -> Usage:
        """Committed usage, real unit order (snapshot tuple, cached).

        Every write fills the cache with the tuple it built from the row
        it just updated; rows never written since construction or a
        rebuild materialize lazily here.
        """
        cached = self._dc._usage_cache[self._pos]
        if cached is None:
            cached = self._dc._info_of_pos(self._pos).usage_tuple(
                self._dc._cols.usage[self._pos]
            )
            self._dc._usage_cache[self._pos] = cached
        return cached

    @property
    def is_used(self) -> bool:
        """True when at least one VM is hosted."""
        return bool(self._dc._cols.alloc_count[self._pos] > 0)

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    @property
    def type_name(self) -> str:
        """PM type label (keys the power model)."""
        return self._dc.type_names[self._dc._cols.type_id[self._pos]]

    @property
    def allocations(self) -> List[Allocation]:
        """Allocation records of the hosted VMs (insertion order)."""
        return list(self._dc._cols.allocs[self._pos].values())

    @property
    def n_vms(self) -> int:
        """Number of hosted VMs."""
        return len(self._dc._cols.allocs[self._pos])

    def hosts(self, vm_id: int) -> bool:
        """True when the PM hosts the given VM."""
        return vm_id in self._dc._cols.allocs[self._pos]

    def allocation_of(self, vm_id: int) -> Allocation:
        """The allocation record of a hosted VM (KeyError otherwise)."""
        allocation = self._dc._cols.allocs[self._pos].get(vm_id)
        if allocation is None:
            raise KeyError(f"PM#{self.pm_id} does not host VM#{vm_id}")
        return allocation

    # ------------------------------------------------------------------
    # Failure state
    # ------------------------------------------------------------------
    @property
    def is_failed(self) -> bool:
        """True while the PM is crashed."""
        return bool(self._dc._cols.failed[self._pos])

    # ------------------------------------------------------------------
    # Utilization
    # ------------------------------------------------------------------
    def can_host(self, vm_type: VMType) -> bool:
        """Feasibility of hosting a VM of the given type right now."""
        if self.is_failed:
            return False
        return can_place(self.shape, self.usage, vm_type)

    def committed_utilization(self) -> float:
        """Mean per-dimension committed (requested) utilization."""
        return self.shape.utilization(self.usage)

    def committed_cpu_utilization(self) -> float:
        """Committed CPU utilization (requested CPU / CPU capacity)."""
        info = self._dc._info_of_pos(self._pos)
        lo = info.offsets[info.cpu_group]
        hi = info.offsets[info.cpu_group + 1]
        usage_row = self._dc._cols.usage[self._pos]
        return int(usage_row[lo:hi].sum()) / info.cpu_capacity

    def actual_cpu_utilization(self, time_s: float, burst: Any = "core") -> float:
        """Trace-driven CPU utilization at a time (object-path fold).

        Same left-fold over the same terms in the same order as
        ``PhysicalMachine.actual_cpu_utilization`` — the relief loop
        recomputes mid-tick utilizations through this, so it must agree
        bitwise with both the object path and the fleet reduction.  Each
        allocation's ceilings are the ones its CSR span was written from.
        """
        dc, pos = self._dc, self._pos
        dc.ensure_csr(burst)
        spans = dc._cols.csr[burst].spans
        demand = 0.0
        for vm_id, allocation in dc._cols.allocs[pos].items():
            fraction = allocation.vm.cpu_utilization_at(time_s)
            if fraction <= 0.0:
                continue
            for ceiling in spans[(pos, vm_id)][1]:
                demand += fraction * ceiling
        return demand / dc._info_of_pos(pos).cpu_capacity

    def __repr__(self) -> str:
        return (
            f"SoAMachineView(id={self.pm_id}, type={self.type_name!r}, "
            f"vms={self.n_vms}, committed={self.committed_utilization():.2f})"
        )


class SoADatacenter:
    """Struct-of-arrays datacenter with the ``Datacenter`` API.

    Args:
        specs: per-PM ``(pm_id, shape, type_name)`` rows in inventory
            order.
    """

    def __init__(self, specs: Sequence[Tuple[int, MachineShape, str]]) -> None:
        specs = list(specs)
        require(len(specs) > 0, "a datacenter needs at least one PM")
        ids = [pm_id for pm_id, _, _ in specs]
        require(len(set(ids)) == len(ids), f"duplicate PM ids: {ids!r}")

        self._pm_ids: List[int] = ids
        self._pos_of: Dict[int, int] = {pm_id: i for i, pm_id in enumerate(ids)}

        # Intern shapes and type names into dense ids.  A shape is a
        # frozen dataclass, hashed field by field, so each distinct shape
        # object is hashed once (``specs`` keeps the objects alive).
        shape_ids: Dict[MachineShape, int] = {}
        by_object: Dict[int, int] = {}
        self.type_names: List[str] = []
        type_ids: Dict[str, int] = {}
        n = len(specs)
        shape_col = np.empty(n, dtype=np.int32)
        type_col = np.empty(n, dtype=np.int32)
        for i, (_, shape, type_name) in enumerate(specs):
            if id(shape) not in by_object:
                by_object[id(shape)] = shape_ids.setdefault(
                    shape, len(shape_ids)
                )
            shape_col[i] = by_object[id(shape)]
            type_id = type_ids.get(type_name)
            if type_id is None:
                type_id = len(self.type_names)
                type_ids[type_name] = type_id
                self.type_names.append(type_name)
            type_col[i] = type_id
        self._infos = [ShapeInfo(shape, i) for shape, i in shape_ids.items()]
        cols = FleetColumns(n, max(info.n_dims for info in self._infos))
        cols.shape_id[:] = shape_col
        cols.type_id[:] = type_col
        cols.cpu_capacity[:] = [
            float(self._infos[sid].cpu_capacity) for sid in shape_col
        ]
        self._cols = cols

        self._traces = TraceColumns()
        self._vm_location: Dict[int, int] = {}
        self._views: List[SoAMachineView] = [
            SoAMachineView(self, pos) for pos in range(n)
        ]
        self._usage_cache: List[Optional[Usage]] = [None] * n
        self._transitions: Dict[
            Tuple[int, Usage, int, bool], _Transition
        ] = {}
        self._index = UsageClassIndex(self)
        self._view = IndexedMachines(self._index)

    @classmethod
    def from_machines(cls, machines: Sequence[Any]) -> "SoADatacenter":
        """Build from empty ``PhysicalMachine``-like machines, in order."""
        return cls([(m.pm_id, m.shape, m.type_name) for m in machines])

    def _info_of_pos(self, pos: int) -> ShapeInfo:
        return self._infos[self._cols.shape_id[pos]]

    @property
    def columns(self) -> FleetColumns:
        """The fleet columns (read-only use: tests, the auditor)."""
        return self._cols

    # ------------------------------------------------------------------
    # Inventory (Datacenter API)
    # ------------------------------------------------------------------
    @property
    def machines(self) -> List[SoAMachineView]:
        """All PMs in inventory order."""
        return list(self._views)

    def machine(self, pm_id: int) -> SoAMachineView:
        """PM view by id (KeyError for unknown ids)."""
        pos = self._pos_of.get(pm_id)
        if pos is None:
            raise KeyError(f"no PM with id {pm_id}")
        return self._views[pos]

    def machine_at(self, pos: int) -> SoAMachineView:
        """PM view by inventory position (the tick's addressing)."""
        return self._views[pos]

    @property
    def n_machines(self) -> int:
        """Total PM count."""
        return len(self._views)

    def used_machines(self) -> List[SoAMachineView]:
        """PMs currently hosting at least one VM (maintained, O(used))."""
        return self._index.used_machines()

    def healthy_machines(self) -> List[SoAMachineView]:
        """PMs not currently crashed — the candidate pool under faults."""
        return self._index.healthy_machines()

    @property
    def usage_index(self) -> UsageClassIndex:
        """The maintained usage-class index (audited by check I1)."""
        return self._index

    def indexed_machines(self) -> IndexedMachines:
        """Live class-structured view of the healthy machines."""
        return self._view

    @property
    def pms_used(self) -> int:
        """Number of PMs currently hosting VMs (maintained, O(1))."""
        return self._index.n_used

    @property
    def n_vms(self) -> int:
        """Number of VMs currently placed."""
        return len(self._vm_location)

    def locate(self, vm_id: int) -> Optional[int]:
        """PM id hosting a VM, or None when unplaced."""
        return self._vm_location.get(vm_id)

    # ------------------------------------------------------------------
    # Row mutation primitives
    # ------------------------------------------------------------------
    def _transition(
        self, pos: int, assignments: Assignments, placing: bool, vm_id: int
    ) -> _Transition:
        """The row transition placing (or removing) ``assignments`` at
        ``pos``, memoized by (shape id, the row's usage, the assignments'
        identity, direction).

        The usage half of the key is read from the row (its cached
        tuple), never carried from the decision.  The entry holds the
        assignments, which keeps their ``id`` from being reused while
        the entry lives, and is checked with ``is``.  A miss validates
        exactly as an unmemoized write would and raises before anything
        is stored, so only valid transitions enter the memo; the memo
        is emptied when it reaches :data:`TRANSITION_MEMO_SIZE`.
        """
        cols = self._cols
        info = self._infos[cols.shape_id[pos]]
        usage = self._usage_cache[pos]
        if usage is None:
            # Not cached here: a failed write leaves the cache as it was.
            usage = info.usage_tuple(cols.usage[pos])
        key = (info.shape_id, usage, id(assignments), placing)
        entry = self._transitions.get(key)
        if entry is not None and entry.assignments is assignments:
            return entry
        # One row read; validate before anything is stored so failures
        # leave the row and the memo unchanged.
        values = cols.usage[pos].tolist()
        if placing:
            for offset, group, group_assign in zip(
                info.offsets, info.shape.groups, assignments
            ):
                taken = set()
                for idx, chunk in group_assign:
                    if idx in taken and group.anti_collocation:
                        raise ValidationError(
                            f"anti-collocation violated: two chunks on unit "
                            f"{idx} of group {group.name!r}"
                        )
                    taken.add(idx)
                    if values[offset + idx] + chunk > group.capacities[idx]:
                        raise ValidationError(
                            f"capacity exceeded on unit {idx} of group "
                            f"{group.name!r}: {values[offset + idx]}+"
                            f"{chunk} > {group.capacities[idx]}"
                        )
            for offset, group_assign in zip(info.offsets, assignments):
                for idx, chunk in group_assign:
                    values[offset + idx] += chunk
        else:
            for offset, group_assign in zip(info.offsets, assignments):
                for idx, chunk in group_assign:
                    values[offset + idx] -= chunk
                    if values[offset + idx] < 0:
                        raise ValidationError(
                            f"negative usage on PM#{self._pm_ids[pos]} after "
                            f"removing VM#{vm_id}; allocation records are "
                            f"corrupt"
                        )
        new_usage = info.split_usage(values)
        class_key = (info.shape, info.shape.canonicalize(new_usage))
        # Share the class table's copy of a known key.
        class_id = self._index.table.lookup(class_key)
        if class_id >= 0:
            class_key = self._index.table.keys[class_id]
        entry = _Transition(
            assignments,
            info,
            np.array(values, dtype=cols.usage.dtype),
            new_usage,
            class_key,
        )
        if len(self._transitions) >= TRANSITION_MEMO_SIZE:
            self._transitions.clear()
        self._transitions[key] = entry
        return entry

    def _machine_place(
        self, pos: int, vm: VirtualMachine, placement: Placement, time_s: float
    ) -> Allocation:
        """``PhysicalMachine.place`` semantics against the columns; the
        index is refreshed with the transition's class key and id."""
        cols = self._cols
        pm_id = self._pm_ids[pos]
        if cols.failed[pos]:
            raise ValidationError(
                f"PM#{pm_id} is crashed and cannot accept VM#{vm.vm_id}"
            )
        row_allocs = cols.allocs[pos]
        if vm.vm_id in row_allocs:
            raise ValidationError(
                f"VM#{vm.vm_id} is already placed on PM#{pm_id}"
            )
        assignments = placement.assignments
        entry = self._transition(pos, assignments, True, vm.vm_id)
        cols.usage[pos] = entry.row
        self._usage_cache[pos] = entry.usage
        allocation = Allocation(
            vm=vm, pm_id=pm_id, assignments=assignments, placed_at=time_s,
        )
        row_allocs[vm.vm_id] = allocation
        cols.alloc_count[pos] += 1
        slot = self._traces.register(vm.vm_id, vm.trace)
        for burst, csr in cols.csr.items():
            csr.append(pos, vm.vm_id, slot, entry.ceilings(burst))
        entry.class_id = self._index.refresh(
            pos, entry.class_key, entry.class_id
        )
        return allocation

    def _machine_remove(self, pos: int, vm_id: int) -> Allocation:
        """``PhysicalMachine.remove`` semantics against the columns; the
        index is refreshed with the transition's class key and id unless
        the PM is crashed (it left the index when it crashed)."""
        cols = self._cols
        pm_id = self._pm_ids[pos]
        allocation = cols.allocs[pos].get(vm_id)
        if allocation is None:
            raise KeyError(f"PM#{pm_id} does not host VM#{vm_id}")
        entry = self._transition(pos, allocation.assignments, False, vm_id)
        cols.usage[pos] = entry.row
        self._usage_cache[pos] = entry.usage
        del cols.allocs[pos][vm_id]
        cols.alloc_count[pos] -= 1
        for csr in cols.csr.values():
            csr.remove(pos, vm_id)
        if not cols.failed[pos]:
            entry.class_id = self._index.refresh(
                pos, entry.class_key, entry.class_id
            )
        return allocation

    # ------------------------------------------------------------------
    # Mutation (Datacenter API)
    # ------------------------------------------------------------------
    def apply(
        self, vm: VirtualMachine, decision: PlacementDecision, time_s: float = 0.0
    ) -> Allocation:
        """Apply a policy's placement decision (see ``Datacenter.apply``)."""
        if vm.vm_id in self._vm_location:
            raise ValidationError(
                f"VM#{vm.vm_id} is already placed on "
                f"PM#{self._vm_location[vm.vm_id]}"
            )
        pos = self._pos_of.get(decision.pm_id)
        if pos is None:
            raise KeyError(f"no PM with id {decision.pm_id}")
        allocation = self._machine_place(pos, vm, decision.placement, time_s)
        self._vm_location[vm.vm_id] = decision.pm_id
        return allocation

    def evict(self, vm_id: int) -> Allocation:
        """Remove a VM from its current PM (KeyError when unplaced)."""
        pm_id = self._vm_location.get(vm_id)
        if pm_id is None:
            raise KeyError(f"VM#{vm_id} is not placed")
        allocation = self._machine_remove(self._pos_of[pm_id], vm_id)
        del self._vm_location[vm_id]
        return allocation

    def crash_machine(self, pm_id: int) -> List[Allocation]:
        """Fail a PM, evicting every hosted VM (see ``Datacenter``)."""
        view = self.machine(pm_id)
        if view.is_failed:
            raise ValidationError(f"PM#{pm_id} is already crashed")
        pos = self._pos_of[pm_id]
        self._cols.failed[pos] = True
        self._index.refresh(pos, None, -1)
        return [self.evict(a.vm_id) for a in view.allocations]

    def repair_machine(self, pm_id: int) -> None:
        """Bring a crashed PM back into the candidate pool (empty)."""
        view = self.machine(pm_id)
        if not view.is_failed:
            raise ValidationError(f"PM#{pm_id} is not crashed")
        pos = self._pos_of[pm_id]
        self._cols.failed[pos] = False
        self._index.refresh(pos, None, -1)

    def migrate(
        self, vm_id: int, decision: PlacementDecision, time_s: float = 0.0
    ) -> Allocation:
        """Move a placed VM (same rollback semantics as ``Datacenter``)."""
        old = self.evict(vm_id)
        try:
            return self.apply(old.vm, decision, time_s)
        except (ValidationError, KeyError):
            source_pos = self._pos_of[old.pm_id]
            self._machine_place(
                source_pos,
                old.vm,
                restore_placement(self._views[source_pos], old),
                old.placed_at,
            )
            self._vm_location[vm_id] = old.pm_id
            raise

    # ------------------------------------------------------------------
    # Columnar tick
    # ------------------------------------------------------------------
    def ensure_csr(self, burst: Any) -> None:
        """Build the CSR for ``burst`` if it is missing (on its first read)."""
        if burst not in self._cols.csr:
            self._cols.build_csr(burst, self._infos, self._traces.slot)

    def monitor_arrays(
        self, time_s: float, burst: Any = "core"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One tick's ``(positions, utilization, active, type_ids)``.

        Rows cover the healthy fleet in inventory order — the same
        machines, in the same order, as the seed scan's
        ``monitor.snapshot`` — with utilization reduced by one bincount
        fold (bit-identical to the per-machine walk).
        """
        validate_burst(burst)
        self.ensure_csr(burst)
        cols = self._cols
        demand = cols.demand(burst, self._traces.fractions(time_s))
        healthy = np.flatnonzero(~cols.failed)
        return (
            healthy,
            (demand / cols.cpu_capacity)[healthy],
            cols.alloc_count[healthy] > 0,
            cols.type_id[healthy],
        )

    # ------------------------------------------------------------------
    # Bulk rebuild + consistency
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Re-derive every column from the allocation records.

        The bulk-reload seam (checkpoint restore, defragmentation):
        usage/count columns are recomputed, the usage cache emptied (it
        refills on read), CSRs dropped (they rebuild lazily on the next
        tick), and the usage-class index is rebuilt — which re-interns
        class ids and bumps the index epoch so memoized per-id consumers
        invalidate.  The row-transition memo is kept: its entries are
        keyed by value (shape id, usage, the held assignments) and hold
        values (rows, usages, class keys), none of which a rebuild
        changes, so writes after it hit the entries made before it.
        """
        self._usage_cache = [None] * len(self._views)
        cols = self._cols
        cols.usage[:] = 0
        cols.csr.clear()
        for pos in range(cols.n):
            cols.alloc_count[pos] = len(cols.allocs[pos])
            info = self._infos[cols.shape_id[pos]]
            usage_row = cols.usage[pos]
            for allocation in cols.allocs[pos].values():
                for g, group_assign in enumerate(allocation.assignments):
                    offset = info.offsets[g]
                    for idx, chunk in group_assign:
                        usage_row[offset + idx] += chunk
        self._index.rebuild()

    def check_columns(self) -> List[str]:
        """Re-derive expected column state from the allocation records.

        Returns human-readable discrepancies (empty when consistent);
        the constraint auditor surfaces them as check "I2".
        """
        problems: List[str] = []
        seen_vms: Dict[int, int] = {}
        cols = self._cols
        for pos in range(cols.n):
            pm_id = self._pm_ids[pos]
            info = self._infos[cols.shape_id[pos]]
            row_allocs = cols.allocs[pos]
            if cols.failed[pos] and row_allocs:
                problems.append(
                    f"crashed PM#{pm_id} still carries "
                    f"{len(row_allocs)} allocation records"
                )
            if int(cols.alloc_count[pos]) != len(row_allocs):
                problems.append(
                    f"alloc_count[{pm_id}] = "
                    f"{int(cols.alloc_count[pos])} != "
                    f"{len(row_allocs)} records"
                )
            expected = np.zeros(cols.usage.shape[1], dtype=np.int64)
            for vm_id, allocation in row_allocs.items():
                seen_vms[vm_id] = pm_id
                for g, group_assign in enumerate(allocation.assignments):
                    offset = info.offsets[g]
                    for idx, chunk in group_assign:
                        expected[offset + idx] += chunk
            if not np.array_equal(expected, cols.usage[pos]):
                problems.append(
                    f"usage column of PM#{pm_id} diverged from its "
                    f"allocation records: {cols.usage[pos].tolist()} "
                    f"!= {expected.tolist()}"
                )
            cached = self._usage_cache[pos]
            if cached is not None:
                actual = info.usage_tuple(cols.usage[pos])
                if cached != actual:
                    problems.append(
                        f"usage cache of PM#{pm_id} stale: {cached!r} "
                        f"!= {actual!r}"
                    )
            for burst, csr in cols.csr.items():
                for vm_id, allocation in row_allocs.items():
                    span = csr.spans.get((pos, vm_id))
                    if span is None:
                        problems.append(
                            f"CSR[{burst!r}] misses VM#{vm_id} on "
                            f"PM#{pm_id}"
                        )
                        continue
                    start, terms = span
                    want = chunk_ceilings(
                        allocation.assignments[info.cpu_group],
                        info.cpu_capacities,
                        burst,
                    )
                    got = tuple(csr.ceilings[start:start + len(terms)])
                    if got != want or terms != want or not np.all(
                        csr.rows[start:start + len(terms)] == pos
                    ):
                        problems.append(
                            f"CSR[{burst!r}] terms of VM#{vm_id} on "
                            f"PM#{pm_id} diverged: {got} != {want}"
                        )
        for vm_id, pm_id in seen_vms.items():
            if self._vm_location.get(vm_id) != pm_id:
                problems.append(
                    f"VM#{vm_id} recorded on PM#{pm_id} but located at "
                    f"{self._vm_location.get(vm_id)!r}"
                )
        for vm_id, pm_id in self._vm_location.items():
            if seen_vms.get(vm_id) != pm_id:
                problems.append(
                    f"VM#{vm_id} located at PM#{pm_id} without a matching "
                    f"allocation record"
                )
        return problems
