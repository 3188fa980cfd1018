"""Property-based tests: the SoA index survives arbitrary op interleavings.

For arbitrary interleavings of place / evict / migrate / crash / repair
the columnar datacenter's usage-class index must stay internally
consistent (``check_consistency``), its columns must re-derive exactly
from the allocation records (``check_columns``, the auditor's I2), and
at toy scale the full MIP constraint replay must pass.  A small number
of examples also runs at 5k PMs, past the toy world's row range, to
catch position addressing bugs the toy world cannot.

A second property drives two datacenters through the same ops, failing
writes included: one keeps its memoized row transitions, the other has
its memo emptied before every op, so every write it makes takes the
validating miss path.  Both must raise the same errors, leave the same
rows, and pass I1 and I2 after every op.

A third property checks the columnar monitor fold over mixed traces
(constant, cycling and holding sample arrays of two lengths, a trace of
neither kind, VMs re-registered with a new trace object): its
utilization column must equal, bit for bit, every healthy PM's own fold
and the fold of a datacenter rebuilt from the live allocation records,
and the trace columns must match each trace at its cycle and hold
boundaries.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import audit_datacenter
from repro.cluster.allocation import Allocation
from repro.cluster.datacenter import restore_placement
from repro.cluster.vm import VirtualMachine
from repro.core.permutations import Placement
from repro.core.placement import PageRankVMPolicy
from repro.core.policy import PlacementDecision
from repro.core.soa import SoADatacenter
from repro.core.soa import datacenter as soa_datacenter
from repro.traces.base import ArrayTrace, ConstantTrace
from repro.util.validation import ValidationError


@st.composite
def op_sequences(draw, max_ops=24):
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ("place", "place", "place", "evict", "migrate", "crash", "repair")
        ))
        ops.append((kind, draw(st.integers(min_value=0, max_value=63))))
    return tuple(ops)


class _Driver:
    """One SoA datacenter driven through the op vocabulary."""

    def __init__(self, toy_shape, toy_table, n_pms):
        self.dc = SoADatacenter([(i, toy_shape, "M3") for i in range(n_pms)])
        self.policy = PageRankVMPolicy({toy_shape: toy_table})
        self.placed = {}  # vm_id -> VMType
        self.next_id = 0

    def step(self, op, vm_types):
        kind, pick = op
        if kind == "place":
            vm_type = vm_types[pick % len(vm_types)]
            decision = self.policy.select(vm_type, self.dc.indexed_machines())
            if decision is None:
                return
            vm_id = self.next_id
            self.next_id += 1
            self.dc.apply(
                VirtualMachine(vm_id, vm_type, ConstantTrace(0.4)), decision
            )
            self.placed[vm_id] = vm_type
        elif kind == "evict":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            self.dc.evict(vm_id)
            del self.placed[vm_id]
        elif kind == "migrate":
            if not self.placed:
                return
            vm_id = sorted(self.placed)[pick % len(self.placed)]
            source = self.dc.locate(vm_id)
            decision = self.policy.select_excluding(
                self.placed[vm_id], self.dc.indexed_machines(),
                excluded_pm=source,
            )
            if decision is None:
                return
            self.dc.migrate(vm_id, decision)
        elif kind == "crash":
            healthy = [m.pm_id for m in self.dc.machines if not m.is_failed]
            if not healthy:
                return
            pm_id = healthy[pick % len(healthy)]
            for allocation in self.dc.crash_machine(pm_id):
                del self.placed[allocation.vm_id]
        elif kind == "repair":
            failed = [m.pm_id for m in self.dc.machines if m.is_failed]
            if not failed:
                return
            pm_id = failed[pick % len(failed)]
            self.dc.repair_machine(pm_id)

    def check(self):
        assert self.dc.usage_index.check_consistency() == []
        assert self.dc.check_columns() == []


class TestSoAConsistency:
    @given(ops=op_sequences())
    @settings(max_examples=25, deadline=None)
    def test_any_op_sequence_keeps_columns_consistent(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        driver = _Driver(toy_shape, toy_table, n_pms=8)
        for op in ops:
            driver.step(op, (vm1, vm2, vm4))
        driver.check()
        audit_datacenter(
            driver.dc, expected_vm_ids=sorted(driver.placed)
        ).raise_if_failed()

    @given(ops=op_sequences(max_ops=40))
    @settings(max_examples=3, deadline=None)
    def test_op_sequences_at_5k_pms(
        self, ops, toy_shape, toy_table, vm1, vm2, vm4
    ):
        # Crash/repair and migrations must address rows anywhere in a
        # 5k-row column set.
        driver = _Driver(toy_shape, toy_table, n_pms=5_000)
        for op in ops:
            driver.step(op, (vm1, vm2, vm4))
        driver.check()


# ----------------------------------------------------------------------
# Memoized row transitions against fresh writes
# ----------------------------------------------------------------------
TWIN_OPS = (
    "place", "place", "place", "evict", "migrate", "migrate_to",
    "crash", "repair", "replay", "anti", "duplicate", "corrupt",
    "forge", "rebuild", "csr",
)


@st.composite
def twin_op_sequences(draw, max_ops=40):
    n = draw(st.integers(min_value=1, max_value=max_ops))
    return tuple(
        (
            draw(st.sampled_from(TWIN_OPS)),
            draw(st.integers(min_value=0, max_value=63)),
            draw(st.integers(min_value=0, max_value=63)),
        )
        for _ in range(n)
    )


def _state(dc):
    """Rows, usage cache, CSR terms and VM locations of a datacenter."""
    cols = dc.columns
    return (
        cols.usage.tolist(),
        list(dc._usage_cache),
        {
            burst: {
                key: (terms, tuple(csr.ceilings[start:start + len(terms)]))
                for key, (start, terms) in csr.spans.items()
            }
            for burst, csr in cols.csr.items()
        },
        {vm_id: dc.locate(vm_id) for vm_id in range(256)},
    )


class _TwinDriver:
    """The same ops on ``warm`` (memo kept) and ``cold`` (memo emptied
    before every op); decisions are taken once, on ``warm``."""

    def __init__(self, toy_shape, toy_table, n_pms):
        self.shape = toy_shape
        self.warm, self.cold = (
            SoADatacenter([(i, toy_shape, "M3") for i in range(n_pms)])
            for _ in range(2)
        )
        for dc in self.both():
            dc.ensure_csr("core")
        self.policy = PageRankVMPolicy({toy_shape: toy_table})
        self.placed = {}  # vm_id -> VMType
        self.history = []  # (pm_id, placement, VMType) of writes that held
        self.next_id = 0
        self.failures = 0

    def both(self):
        return (self.warm, self.cold)

    def new_vm(self, vm_type):
        vm = VirtualMachine(self.next_id, vm_type, ConstantTrace(0.4))
        self.next_id += 1
        return vm

    def run(self, call):
        """``call(dc)`` on both datacenters: the same outcome, and a
        failure leaves each as it was.  True when the call held."""
        self.cold._transitions.clear()
        outcomes = []
        for dc in self.both():
            before = _state(dc)
            try:
                result = call(dc)
            except (ValidationError, KeyError) as exc:
                assert _state(dc) == before
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append((
                    "held",
                    None if not isinstance(result, Allocation)
                    else (result.pm_id, result.assignments),
                ))
        assert outcomes[0] == outcomes[1]
        self.failures += outcomes[0][0] != "held"
        return outcomes[0][0] == "held"

    def apply(self, vm, vm_type, decision):
        if self.run(lambda dc: dc.apply(vm, decision)):
            self.placed[vm.vm_id] = vm_type
            self.history.append((decision.pm_id, decision.placement, vm_type))

    def pick_vm(self, pick):
        return sorted(self.placed)[pick % len(self.placed)]

    def step(self, op, vm_types):
        kind, pick, other = op
        vm_type = vm_types[pick % len(vm_types)]
        if kind == "place":
            decision = self.policy.select(vm_type, self.warm.indexed_machines())
            if decision is not None:
                self.apply(self.new_vm(vm_type), vm_type, decision)
        elif kind == "replay" and self.history:
            # A recorded placement on its PM, twice over: once the PM is
            # full, the second attempt repeats a failing write exactly.
            pm_id, placement, vm_type = self.history[pick % len(self.history)]
            decision = PlacementDecision(pm_id=pm_id, placement=placement)
            for _ in range(2):
                self.apply(self.new_vm(vm_type), vm_type, decision)
        elif kind == "anti":
            # Two chunks on one unit of the anti-collocated CPU group.
            unit = pick % 4
            placement = Placement(
                new_usage=self.shape.empty_usage(),
                assignments=(((unit, 1), (unit, 1)),),
            )
            decision = PlacementDecision(pm_id=other % 8, placement=placement)
            self.apply(self.new_vm(vm_type), vm_type, decision)
        elif kind == "duplicate" and self.placed:
            vm_id = self.pick_vm(pick)
            allocation = self.warm.machine(self.warm.locate(vm_id)) \
                .allocation_of(vm_id)
            decision = PlacementDecision(
                pm_id=other % 8,
                placement=Placement(self.shape.empty_usage(),
                                    allocation.assignments),
            )
            self.run(lambda dc: dc.apply(allocation.vm, decision))
        elif kind == "evict" and self.placed:
            vm_id = self.pick_vm(pick)
            if self.run(lambda dc: dc.evict(vm_id)):
                del self.placed[vm_id]
        elif kind == "corrupt" and self.placed:
            # A record claiming more than its row holds: the remove must
            # fail before touching the row; the record is then restored.
            vm_id = self.pick_vm(pick)
            pos = self.warm.locate(vm_id)
            bogus = (((pick % 4, 5),),)
            saved = []
            for dc in self.both():
                allocation = dc.columns.allocs[pos][vm_id]
                saved.append(allocation)
                dc.columns.allocs[pos][vm_id] = Allocation(
                    vm=allocation.vm, pm_id=allocation.pm_id,
                    assignments=bogus, placed_at=allocation.placed_at,
                )
            assert not self.run(lambda dc: dc.evict(vm_id))
            for dc, allocation in zip(self.both(), saved):
                dc.columns.allocs[pos][vm_id] = allocation
        elif kind == "migrate" and self.placed:
            vm_id = self.pick_vm(pick)
            decision = self.policy.select_excluding(
                self.placed[vm_id], self.warm.indexed_machines(),
                excluded_pm=self.warm.locate(vm_id),
            )
            if decision is not None:
                self.run(lambda dc: dc.migrate(vm_id, decision))
        elif kind == "migrate_to" and self.placed and self.history:
            # A recorded placement on an arbitrary PM: often full or
            # crashed, so the migration rolls back onto its source.
            vm_id = self.pick_vm(pick)
            same_type = [placement for _, placement, vm_type in self.history
                         if vm_type is self.placed[vm_id]]
            if same_type:
                decision = PlacementDecision(
                    pm_id=other % 8,
                    placement=same_type[other % len(same_type)],
                )
                self.run(lambda dc: dc.migrate(vm_id, decision))
        elif kind == "crash":
            pm_id = other % 8
            evicted = []
            if self.run(lambda dc: evicted.append(dc.crash_machine(pm_id))):
                for allocation in evicted[0]:
                    del self.placed[allocation.vm_id]
        elif kind == "repair":
            self.run(lambda dc: dc.repair_machine(other % 8))
        elif kind == "forge" and self.warm._transitions:
            # A recycled ``id``: the next write's key already maps to an
            # entry made for other assignments, which must not be used.
            decision = self.policy.select(vm_type, self.warm.indexed_machines())
            if decision is None:
                return
            pos = self.warm._pos_of[decision.pm_id]
            usage = self.warm.machine_at(pos).usage
            assignments = decision.placement.assignments
            entries = list(self.warm._transitions.values())
            forged = entries[other % len(entries)]
            if forged.assignments is not assignments:
                shape_id = int(self.warm.columns.shape_id[pos])
                self.warm._transitions[
                    (shape_id, usage, id(assignments), True)
                ] = forged
            self.apply(self.new_vm(vm_type), vm_type, decision)
        elif kind == "rebuild":
            self.run(lambda dc: dc.rebuild())
        elif kind == "csr":
            self.run(lambda dc: dc.ensure_csr(("request", 1.5)[pick % 2]))

    def check(self):
        assert self.warm.columns.usage.tolist() == \
            self.cold.columns.usage.tolist()
        for dc in self.both():
            assert dc.usage_index.check_consistency() == []
            assert dc.check_columns() == []
            assert len(dc._transitions) <= soa_datacenter.TRANSITION_MEMO_SIZE


class TestMemoizedTransitions:
    @given(ops=twin_op_sequences(), tight=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_memoized_writes_match_fresh_writes(
        self, ops, tight, toy_shape, toy_table, vm1, vm2, vm4
    ):
        """Warm and cold datacenters agree op by op, failures included;
        a ``tight`` memo bound empties the warm memo every few writes."""
        bound = 3 if tight else soa_datacenter.TRANSITION_MEMO_SIZE
        with mock.patch.object(soa_datacenter, "TRANSITION_MEMO_SIZE", bound):
            driver = _TwinDriver(toy_shape, toy_table, n_pms=8)
            for op in ops:
                driver.step(op, (vm1, vm2, vm4))
                driver.check()
        audit_datacenter(
            driver.warm, expected_vm_ids=sorted(driver.placed)
        ).raise_if_failed()


# ----------------------------------------------------------------------
# The columnar fold against the per-machine fold, over mixed traces
# ----------------------------------------------------------------------
#: Times around the traces' cycle and hold boundaries: 300 s samples,
#: 3 and 5 of them, so they wrap (or start holding) at 900 s and 1500 s.
FOLD_TIMES = (
    0.0, 299.99, 300.0, 899.99, 900.0, 1_199.99, 1_499.99, 1_500.0,
    1_800.0, 2_700.0, 3_000.0, 4_500.0, 86_399.99,
)

FOLD_OPS = (
    "place", "place", "place", "evict", "migrate", "crash", "repair",
    "reregister", "tick",
)


class _RampTrace:
    """A trace of neither columnar kind: served by the fallback."""

    def __init__(self, slope):
        self.slope = slope

    def utilization_at(self, time_s):
        return min(1.0, (time_s % 7_200.0) * self.slope)


@st.composite
def fold_cases(draw, max_ops=30):
    unit = st.floats(min_value=0.0, max_value=1.0)
    samples = draw(st.lists(unit, min_size=14, max_size=14))
    burst = draw(st.sampled_from(("core", "request", 1.5)))
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops = tuple(
        (
            draw(st.sampled_from(FOLD_OPS)),
            draw(st.integers(min_value=0, max_value=63)),
            draw(st.sampled_from(FOLD_TIMES)),
        )
        for _ in range(n)
    )
    return samples, burst, ops


class _FoldDriver(_Driver):
    """:class:`_Driver` placing VMs over mixed traces, each VM with its
    own trace object; ``slots`` records every (slot, trace) registered,
    the idle slots of re-registered VMs included."""

    def __init__(self, toy_shape, toy_table, n_pms, samples, burst):
        super().__init__(toy_shape, toy_table, n_pms)
        self.specs = [(i, toy_shape, "M3") for i in range(n_pms)]
        self.burst = burst
        self.kinds = (
            lambda: ConstantTrace(samples[0]),
            lambda: ArrayTrace(samples[1:4], 300.0, cycle=True),
            lambda: ArrayTrace(samples[4:9], 300.0, cycle=False),
            lambda: ArrayTrace(samples[9:14], 300.0, cycle=True),
            lambda: ArrayTrace(samples[1:4], 300.0, cycle=False),
            lambda: _RampTrace(samples[0] * 1e-3),
        )
        self.slots = []

    def trace(self, pick):
        return self.kinds[pick % len(self.kinds)]()

    def place(self, vm_id, vm_type, trace, pm_id, placement):
        self.dc.apply(
            VirtualMachine(vm_id, vm_type, trace),
            PlacementDecision(pm_id=pm_id, placement=placement),
        )
        self.placed[vm_id] = vm_type
        self.slots.append((self.dc._traces.slot(vm_id), trace))

    def fold_step(self, op, vm_types):
        kind, pick, time_s = op
        if kind == "place":
            vm_type = vm_types[pick % len(vm_types)]
            decision = self.policy.select(vm_type, self.dc.indexed_machines())
            if decision is not None:
                self.next_id += 1
                self.place(
                    self.next_id - 1, vm_type, self.trace(pick // 3),
                    decision.pm_id, decision.placement,
                )
        elif kind == "reregister":
            # The same VM id, back on its PM with its assignments, under
            # a new trace object: a fresh slot, the old one left idle.
            if self.placed:
                vm_id = sorted(self.placed)[pick % len(self.placed)]
                pm_id = self.dc.locate(vm_id)
                old = self.dc.evict(vm_id)
                self.place(
                    vm_id, old.vm.vm_type, self.trace(pick // 3), pm_id,
                    restore_placement(self.dc.machine(pm_id), old),
                )
        elif kind == "tick":
            self.check_fold(time_s)
        else:
            self.step((kind, pick), vm_types)

    def rebuilt(self):
        """A new datacenter holding the live allocation records, each
        PM's in its own order."""
        fresh = SoADatacenter(self.specs)
        for machine in self.dc.machines:
            if machine.is_failed:
                fresh.crash_machine(machine.pm_id)
            for allocation in machine.allocations:
                fresh.apply(allocation.vm, PlacementDecision(
                    pm_id=machine.pm_id,
                    placement=restore_placement(
                        fresh.machine(machine.pm_id), allocation
                    ),
                ))
        return fresh

    def check_fold(self, time_s):
        dc = self.dc
        columns = dc.monitor_arrays(time_s, self.burst)
        positions, utilization = columns[0], columns[1]
        own = np.array([
            dc.machine_at(pos).actual_cpu_utilization(time_s, self.burst)
            for pos in positions.tolist()
        ], dtype=np.float64)
        assert own.tobytes() == utilization.tobytes()
        again = self.rebuilt().monitor_arrays(time_s, self.burst)
        for mine, theirs in zip(columns, again):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
        for at in FOLD_TIMES:
            fractions = dc._traces.fractions(at)
            assert [fractions[slot] for slot, _ in self.slots] == [
                trace.utilization_at(at) for _, trace in self.slots
            ]


class TestColumnarFold:
    @given(case=fold_cases())
    @settings(max_examples=40, deadline=None)
    def test_fold_matches_machines_and_rebuild(
        self, case, toy_shape, toy_table, vm1, vm2, vm4
    ):
        samples, burst, ops = case
        driver = _FoldDriver(toy_shape, toy_table, 6, samples, burst)
        for op in ops:
            driver.fold_step(op, (vm1, vm2, vm4))
        driver.check_fold(ops[-1][2])
        driver.check()
