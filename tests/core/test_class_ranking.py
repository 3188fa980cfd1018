"""Class ranking on the SoA class table agrees with the linear scan.

Every :class:`~repro.core.policy.ProfileScorePolicy` ranks the used
classes of an ``SoADatacenter`` with one lazily invalidated heap per VM
type (:class:`~repro.core.usage_index.ClassRanking`), keyed by negated
score.  FF and FFDSum rank the same table by ``(tier, representative)``
with a first-fit walk behind it.  This suite drives a random place /
evict / migrate script on an M3 fleet and on a mixed M3 + C3 fleet
(where FFDSum's size tiers interleave with inventory order), checks
every ``select`` and ``select_excluding`` decision against the linear
scan over the object ``Datacenter``'s machine list, and checks that the
heap's excluded-representative fix-up, stale pops, compaction and
log-trim rebuild all ran.  A property test compares the heap's winner
with a brute-force minimum over random table churn, and a bound test
keeps heap and log proportional to the live classes over a fleet day.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BestFitPolicy,
    CompVMPolicy,
    FFDSumPolicy,
    FirstFitPolicy,
)
from repro.cluster.datacenter import Datacenter
from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape
from repro.cluster.machine import PhysicalMachine
from repro.cluster.vm import VirtualMachine
from repro.core.placement import PageRankVMPolicy
from repro.core import usage_index
from repro.core.policy import ProfileScorePolicy
from repro.core.soa import SoADatacenter
from repro.core.usage_index import ClassRanking, SoAClassTable
from repro.traces.base import ConstantTrace

N_PMS = 48
STEPS = 400
# The opening steps place m3.large only: few classes, many of them with
# several members, so migrations out of a class representative happen
# early.  The rest draws from every EC2 type.
SINGLE_TYPE_STEPS = 150


class CoarseTuplePolicy(ProfileScorePolicy):
    """A tuple score whose first component ties often.

    CompVM's variance rarely ties exactly, so this policy is what makes
    the second score column decide the ranking.
    """

    name = "CoarseTuple"

    def profile_score(self, shape, usage):
        return (round(shape.utilization(usage), 1), -shape.variance(usage))


@pytest.fixture(scope="module")
def tables():
    from repro.core.graph import SuccessorStrategy
    from repro.core.score_table import build_score_table

    return {
        shape: build_score_table(
            shape, EC2_VM_TYPES, strategy=SuccessorStrategy.BALANCED
        )
        for shape in (ec2_pm_shape("M3"), ec2_pm_shape("C3"))
    }


#: PM type per inventory position of the mixed fleet: every third PM is
#: an M3.  FFDSum tries the larger M3s first, out of inventory order, and
#: fills them early enough that the C3s between them get used too.
MIXED_FLEET = ["M3" if i % 3 == 0 else "C3" for i in range(N_PMS)]


def _excludes_representative(view, pm_id):
    """True when ``pm_id`` represents a class that keeps other members."""
    excluded = view.excluding(pm_id)
    pos = excluded.excluded_position()
    class_id = int(view.index.class_ids[pos])
    table = view.class_table
    return (
        class_id >= 0
        and table.rep[class_id] == pos
        and table.size[class_id] >= 2
    )


def _assert_same(scan, ranked, step):
    assert (scan is None) == (ranked is None), step
    if scan is not None:
        assert scan.pm_id == ranked.pm_id, step
        assert scan.placement == ranked.placement, step


POLICIES = pytest.mark.parametrize(
    "make_policy",
    [
        pytest.param(lambda tables: PageRankVMPolicy(tables), id="PageRankVM"),
        pytest.param(lambda tables: CompVMPolicy(), id="CompVM"),
        pytest.param(lambda tables: BestFitPolicy(), id="BestFit"),
        pytest.param(lambda tables: CoarseTuplePolicy(), id="CoarseTuple"),
        pytest.param(lambda tables: FirstFitPolicy(), id="FF"),
        pytest.param(lambda tables: FFDSumPolicy(), id="FFDSum"),
    ],
)


#: The heap counters every scripted run must exercise.
COUNTERS = ("excluded_tops", "stale_pops")


@POLICIES
def test_class_ranking_matches_linear_scan(make_policy, tables, monkeypatch):
    # No slack: the heap compacts once stale entries outnumber the live.
    monkeypatch.setattr(usage_index, "_HEAP_SLACK", 0)
    counts = _check_against_scan(
        make_policy(tables), make_policy(tables), ["M3"] * N_PMS
    )
    assert all(counts[name] > 0 for name in COUNTERS + ("compactions",)), (
        counts
    )


@POLICIES
def test_class_ranking_matches_linear_scan_on_mixed_fleet(
    make_policy, tables, monkeypatch
):
    # A short log makes the rarely requested VM types fall behind its
    # trimmed start and rebuild their heaps from a scan of the table.
    monkeypatch.setattr(usage_index, "_LOG_MIN_ENTRIES", 16)
    monkeypatch.setattr(usage_index, "_LOG_PER_CLASS", 1)
    counts = _check_against_scan(
        make_policy(tables), make_policy(tables), MIXED_FLEET
    )
    assert all(counts[name] > 0 for name in COUNTERS + ("rebuilds",)), counts


def _counts(policy):
    rankings = policy._class_memo.values()
    return {
        name: sum(getattr(r, name) for r in rankings)
        for name in COUNTERS + ("compactions", "rebuilds")
    }


def _check_against_scan(scan_policy, soa_policy, types):
    scan_dc = Datacenter([
        PhysicalMachine(i, ec2_pm_shape(t), type_name=t)
        for i, t in enumerate(types)
    ])
    soa_dc = SoADatacenter([(i, ec2_pm_shape(t), t) for i, t in enumerate(types)])
    rng = np.random.default_rng(0)
    placed = {}  # vm_id -> VMType
    for step in range(STEPS):
        view = soa_dc.indexed_machines()
        draw = rng.random()
        if placed and draw < 0.25:
            vm_id = sorted(placed)[int(rng.integers(len(placed)))]
            scan_dc.evict(vm_id)
            soa_dc.evict(vm_id)
            del placed[vm_id]
        elif placed and draw < 0.45:
            # Prefer migrating off a class representative, the branch
            # where excluding the source moves the representative.
            on_rep = [
                vm_id for vm_id in sorted(placed)
                if _excludes_representative(view, soa_dc.locate(vm_id))
            ]
            pool = on_rep or sorted(placed)
            vm_id = pool[int(rng.integers(len(pool)))]
            source = scan_dc.locate(vm_id)
            scan = scan_policy.select_excluding(
                placed[vm_id], scan_dc.machines, source
            )
            ranked = soa_policy.select_excluding(placed[vm_id], view, source)
            _assert_same(scan, ranked, step)
            if scan is not None:
                scan_dc.migrate(vm_id, scan)
                soa_dc.migrate(vm_id, ranked)
        else:
            types = (
                EC2_VM_TYPES[1:2] if step < SINGLE_TYPE_STEPS
                else EC2_VM_TYPES
            )
            vm_type = types[int(rng.integers(len(types)))]
            scan = scan_policy.select(vm_type, scan_dc.machines)
            ranked = soa_policy.select(vm_type, view)
            _assert_same(scan, ranked, step)
            if scan is not None:
                vm_id = step
                scan_dc.apply(
                    VirtualMachine(vm_id, vm_type, ConstantTrace(0.3)), scan
                )
                soa_dc.apply(
                    VirtualMachine(vm_id, vm_type, ConstantTrace(0.3)), ranked
                )
                placed[vm_id] = vm_type
    return _counts(soa_policy)


#: Random churn for the property test: ``(position, class, excluded
#: position, check)``; class -1 empties the position, -1 hides nothing.
CHURN = st.lists(
    st.tuples(
        st.integers(0, 5), st.integers(-1, 4), st.integers(-1, 5),
        st.booleans(),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.one_of(st.none(), st.integers(0, 3)),
                     min_size=1, max_size=5),
       churn=CHURN, tight=st.booleans())
def test_heap_winner_is_the_brute_force_minimum(keys, churn, tight):
    """Over random add/remove/exclusion sequences the heap's top is the
    minimum ``(key, rep)`` over live classes with the exclusion applied.
    ``tight`` bounds (a short log, no heap slack) run every rebuild
    path; the default ones leave the lazy invalidation on its own."""
    bounds = (8, 1, 0) if tight else (4096, 4, 64)
    with mock.patch.object(usage_index, "_LOG_MIN_ENTRIES", bounds[0]), \
            mock.patch.object(usage_index, "_LOG_PER_CLASS", bounds[1]), \
            mock.patch.object(usage_index, "_HEAP_SLACK", bounds[2]):
        table = SoAClassTable()
        for k in range(len(keys)):
            table.intern(("shape", k))
        ranking = ClassRanking()
        home = {}  # position -> class id

        def key_of(ids):
            return [(None if keys[c] is None else (keys[c],), c) for c in ids]

        for pos, cls, ex, check in churn:
            old = home.pop(pos, -1)
            if old >= 0:
                table.remove(old, pos)
            if cls >= 0:
                cls %= len(keys)
                table.add(cls, pos)
                home[pos] = cls
            if not check:
                continue
            ranking.sync(table, key_of)
            expected = min(
                (
                    (keys[c], min(p for p, h in home.items()
                                  if h == c and p != ex), c)
                    for c in set(home.values())
                    if keys[c] is not None
                    and any(h == c and p != ex for p, h in home.items())
                ),
                default=None,
            )
            assert ranking.top(table, ex) == expected
            assert all(ranking.values[c] == c for c in ranking.keys)
            assert len(ranking.heap) <= 2 * table.n_live + bounds[2]


def test_heap_and_log_stay_bounded_over_a_fleet_day(monkeypatch):
    """A 10k-PM day (e2ebench ``fleet_day``'s point) keeps every heap
    within ``2 * live + slack`` and the log within its trim bound, far
    below the number of membership changes."""
    from repro.experiments.sweep import run_point, sweep_table

    seen = {"heap": 0, "log": 0, "changes": 0}
    sync = ClassRanking.sync

    def observed_sync(self, table, key_of):
        sync(self, table, key_of)
        assert len(self.heap) <= 2 * table.n_live + usage_index._HEAP_SLACK
        assert len(table.log) <= max(
            usage_index._LOG_MIN_ENTRIES,
            usage_index._LOG_PER_CLASS * table.n_classes,
        )
        seen["heap"] = max(seen["heap"], len(self.heap))
        seen["log"] = max(seen["log"], len(table.log))
        seen["changes"] = table.log_base + len(table.log)

    monkeypatch.setattr(ClassRanking, "sync", observed_sync)
    run_point(sweep_table(), 10_000)
    assert seen["changes"] > 4 * seen["log"] > 0, seen
