"""Class ranking on the SoA class table agrees with the linear scan.

Every :class:`~repro.core.policy.ProfileScorePolicy` ranks the used
classes of an ``SoADatacenter`` through its class table: a plain loop up
to ``_VECTOR_MIN_CLASSES`` interned classes, one masked argmax above.
FF and FFDSum rank the same table by ``(tier, representative)`` with a
first-fit walk behind it.  This suite drives a random place / evict /
migrate script on an M3 fleet and on a mixed M3 + C3 fleet (where
FFDSum's size tiers interleave with inventory order) until the table
passes that threshold, and checks every ``select`` and
``select_excluding`` decision against the linear scan over the object
``Datacenter``'s machine list.
"""

import numpy as np
import pytest

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
from repro.core.policy import _VECTOR_MIN_CLASSES, ProfileScorePolicy
from repro.core.soa import SoADatacenter
from repro.traces.base import ConstantTrace

N_PMS = 48
STEPS = 400
# The opening steps place m3.large only: few classes, many of them with
# several members, so migrations out of a class representative happen
# below the threshold too.  The rest draws from every EC2 type.
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
    pos = excluded._excluded_pos()
    class_id = int(view.index.class_ids[pos])
    table = view.class_table
    return (
        class_id >= 0
        and int(table.rep[class_id]) == pos
        and int(table.size[class_id]) >= 2
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


@POLICIES
def test_class_ranking_matches_linear_scan(make_policy, tables):
    _check_against_scan(make_policy(tables), make_policy(tables), ["M3"] * N_PMS)


@POLICIES
def test_class_ranking_matches_linear_scan_on_mixed_fleet(make_policy, tables):
    _check_against_scan(make_policy(tables), make_policy(tables), MIXED_FLEET)


def _check_against_scan(scan_policy, soa_policy, types):
    scan_dc = Datacenter([
        PhysicalMachine(i, ec2_pm_shape(t), type_name=t)
        for i, t in enumerate(types)
    ])
    soa_dc = SoADatacenter([(i, ec2_pm_shape(t), t) for i, t in enumerate(types)])
    rng = np.random.default_rng(0)
    placed = {}  # vm_id -> VMType
    compared = {"loop": 0, "argmax": 0}
    excluded_reps = {"loop": 0, "argmax": 0}
    for step in range(STEPS):
        view = soa_dc.indexed_machines()
        path = (
            "loop" if view.class_table.n_classes <= _VECTOR_MIN_CLASSES
            else "argmax"
        )
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
            excluded_reps[path] += bool(on_rep)
            source = scan_dc.locate(vm_id)
            scan = scan_policy.select_excluding(
                placed[vm_id], scan_dc.machines, source
            )
            ranked = soa_policy.select_excluding(placed[vm_id], view, source)
            _assert_same(scan, ranked, step)
            compared[path] += 1
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
            compared[path] += 1
            if scan is not None:
                vm_id = step
                scan_dc.apply(
                    VirtualMachine(vm_id, vm_type, ConstantTrace(0.3)), scan
                )
                soa_dc.apply(
                    VirtualMachine(vm_id, vm_type, ConstantTrace(0.3)), ranked
                )
                placed[vm_id] = vm_type
    assert compared["loop"] > 0 and compared["argmax"] > 0, compared
    assert excluded_reps["loop"] > 0 and excluded_reps["argmax"] > 0, (
        excluded_reps
    )
