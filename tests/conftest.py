"""Shared fixtures: the paper's toy world and small EC2 configurations.

The "toy world" is the paper's running example — a PM with capacity
[4,4,4,4] (one anti-collocation group) and the VM type set
{[1,1], [1,1,1,1]} — used throughout Sections III and V.
"""

import functools

import pytest

from repro.core.graph import SuccessorStrategy, build_profile_graph
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.core.score_table import build_score_table


@pytest.fixture(scope="session", autouse=True)
def no_table_cache():
    """Keep the suite off any graph cache named by the environment.

    Every table build reads ``$REPRO_TABLE_CACHE``, so a developer's
    setting would otherwise feed (and fill) the suite's builds.  Tests
    that exercise the cache set the variable themselves.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_TABLE_CACHE", raising=False)
        yield


@pytest.fixture(scope="session")
def toy_shape():
    """A PM with capacity [4,4,4,4], all dimensions one CPU group."""
    return MachineShape(
        groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
    )


@pytest.fixture(scope="session")
def vm2():
    """The paper's [1,1] VM: two unit chunks on distinct dimensions."""
    return VMType(name="vm2", demands=((1, 1),))


@pytest.fixture(scope="session")
def vm4():
    """The paper's [1,1,1,1] VM: four unit chunks, one per dimension."""
    return VMType(name="vm4", demands=((1, 1, 1, 1),))


@pytest.fixture(scope="session")
def vm1():
    """The paper's [1] VM used in the Section V.A counter-example."""
    return VMType(name="vm1", demands=((1,),))


@pytest.fixture(scope="session")
def toy_vm_types(vm2, vm4):
    """The paper's default VM set {[1,1], [1,1,1,1]}."""
    return (vm2, vm4)


@pytest.fixture(scope="session")
def toy_graph(toy_shape, toy_vm_types):
    """Full-lattice profile graph of the toy world (70 canonical nodes)."""
    return build_profile_graph(toy_shape, toy_vm_types, mode="full")


@pytest.fixture(scope="session")
def ec2_graph():
    """``ec2_graph(pm)``: the EC2 profile graph of PM kind ``pm`` under
    BALANCED successors (what the sweep and the service rank), built
    once per session."""
    from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape

    @functools.lru_cache(maxsize=None)
    def build(pm: str):
        return build_profile_graph(
            ec2_pm_shape(pm), EC2_VM_TYPES,
            strategy=SuccessorStrategy.BALANCED,
        )

    return build


@pytest.fixture(scope="session")
def toy_table(toy_shape, toy_vm_types):
    """Score table of the toy world under the default (forward) scoring."""
    return build_score_table(toy_shape, toy_vm_types, mode="full")


@pytest.fixture(scope="session")
def toy_table_reverse(toy_shape, toy_vm_types):
    """Score table under the reverse vote direction (worked examples)."""
    return build_score_table(
        toy_shape, toy_vm_types, mode="full", vote_direction="reverse"
    )


@pytest.fixture(scope="session")
def mixed_shape():
    """A small EC2-like shape: 2 cores, scalar memory, 2 disks."""
    return MachineShape(
        groups=(
            ResourceGroup(name="cpu", capacities=(4, 4)),
            ResourceGroup(name="mem", capacities=(8,), anti_collocation=False),
            ResourceGroup(name="disk", capacities=(10, 10)),
        )
    )


@pytest.fixture(scope="session")
def mixed_vm():
    """A VM for the mixed shape: 2 vCPUs, memory 2, one disk chunk."""
    return VMType(name="mixed", demands=((2, 2), (2,), (5,)))


class FakeMachine:
    """A minimal MachineView test double with settable usage."""

    def __init__(self, pm_id, shape, usage=None):
        self.pm_id = pm_id
        self.shape = shape
        self.usage = usage if usage is not None else shape.empty_usage()

    @property
    def is_used(self):
        return any(u > 0 for group in self.usage for u in group)


@pytest.fixture
def fake_machine():
    """Factory for MachineView test doubles."""
    return FakeMachine


def _place_units(datacenter, pm_id, vm_id, units):
    """Place a VM putting ``units[i]`` on unit ``i`` of the PM's only group.

    Policies canonicalize what they place; this sets a machine's *real*
    unit order, which order-sensitive first-fit placement depends on.
    """
    from repro.cluster.vm import VirtualMachine
    from repro.core.permutations import Placement
    from repro.core.policy import PlacementDecision
    from repro.traces.base import ConstantTrace

    shape = datacenter.machine(pm_id).shape
    placement = Placement(
        new_usage=shape.canonicalize((units,)),
        assignments=(tuple(enumerate(units)),),
    )
    datacenter.apply(
        VirtualMachine(vm_id, VMType(name=f"fill{units}", demands=(units,)),
                       ConstantTrace(0.3)),
        PlacementDecision(pm_id=pm_id, placement=placement),
    )


@pytest.fixture
def place_units():
    """Place a VM with an explicit per-unit assignment (see above)."""
    return _place_units


@pytest.fixture
def constraint_audit():
    """Audit helper: replay state against the MIP constraints (1)-(11).

    Call with a :class:`~repro.cluster.datacenter.Datacenter` (and
    optionally the :class:`~repro.cluster.simulation.SimulationResult`
    it produced); returns the passing
    :class:`~repro.analysis.invariants.AuditReport` or raises
    :class:`~repro.analysis.invariants.AuditError` naming the broken
    constraint.  Use it at the end of any test that mutates allocation
    state through a new code path.
    """
    from repro.analysis.invariants import audit_datacenter, audit_simulation

    def _audit(datacenter, result=None, **kwargs):
        if result is None:
            report = audit_datacenter(datacenter, **kwargs)
        else:
            report = audit_simulation(datacenter, result, **kwargs)
        return report.raise_if_failed()

    return _audit
