"""Amazon EC2 catalogs: Table I (VM types) and Table II (PM types).

Fixed-point quanta: CPU 0.1 GHz, memory 0.25 GiB, disk 1 GB — every
demand and capacity in the paper's tables is an exact multiple, so no
rounding distortion enters the profiles.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.cluster.datacenter import Datacenter
from repro.cluster.machine import PhysicalMachine
from repro.core.profile import MachineShape, Quantizer, ResourceGroup, VMType
from repro.util.validation import require

__all__ = [
    "CPU_QUANTUM_GHZ",
    "MEM_QUANTUM_GIB",
    "DISK_QUANTUM_GB",
    "EC2_VM_SPECS",
    "EC2_PM_SPECS",
    "EC2_VM_TYPES",
    "EC2_PM_TYPES",
    "ec2_vm_type",
    "ec2_pm_shape",
    "build_ec2_datacenter",
    "build_ec2_soa_datacenter",
]

CPU_QUANTUM_GHZ = 0.1
MEM_QUANTUM_GIB = 0.25
DISK_QUANTUM_GB = 1.0

_CPU = Quantizer(CPU_QUANTUM_GHZ)
_MEM = Quantizer(MEM_QUANTUM_GIB)
_DISK = Quantizer(DISK_QUANTUM_GB)

# Table I: (vcpu count, GHz each, memory GiB, disk count, GB each).
EC2_VM_SPECS: Dict[str, Tuple[int, float, float, int, float]] = {
    "m3.medium": (1, 0.6, 3.75, 1, 4.0),
    "m3.large": (2, 0.6, 7.5, 1, 32.0),
    "m3.xlarge": (4, 0.6, 15.0, 2, 40.0),
    "m3.2xlarge": (8, 0.6, 30.0, 2, 80.0),
    "c3.large": (2, 0.7, 3.75, 2, 16.0),
    "c3.xlarge": (4, 0.7, 7.5, 2, 40.0),
}

# Table II: (core count, GHz each, memory GiB, disk count, GB each).
EC2_PM_SPECS: Dict[str, Tuple[int, float, float, int, float]] = {
    "M3": (8, 2.6, 64.0, 4, 250.0),
    "C3": (8, 2.8, 7.5, 4, 250.0),
}


def ec2_vm_type(name: str) -> VMType:
    """The Table I VM type in fixed-point units.

    Raises:
        KeyError: for names outside Table I.
    """
    spec = EC2_VM_SPECS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown EC2 VM type {name!r}; known: {sorted(EC2_VM_SPECS)}"
        )
    n_vcpu, ghz, mem_gib, n_disk, disk_gb = spec
    return VMType(
        name=name,
        demands=(
            tuple(_CPU.to_units(ghz) for _ in range(n_vcpu)),
            (_MEM.to_units(mem_gib),),
            tuple(_DISK.to_units(disk_gb) for _ in range(n_disk)),
        ),
    )


def ec2_pm_shape(name: str) -> MachineShape:
    """The Table II PM shape in fixed-point units.

    Each physical core and each physical disk is its own dimension
    (anti-collocation groups); memory is a scalar group.

    Raises:
        KeyError: for names outside Table II.
    """
    spec = EC2_PM_SPECS.get(name)
    if spec is None:
        raise KeyError(
            f"unknown EC2 PM type {name!r}; known: {sorted(EC2_PM_SPECS)}"
        )
    n_core, ghz, mem_gib, n_disk, disk_gb = spec
    return MachineShape(
        groups=(
            ResourceGroup(
                name="cpu",
                capacities=tuple(_CPU.to_units(ghz) for _ in range(n_core)),
            ),
            ResourceGroup(
                name="mem",
                capacities=(_MEM.to_units(mem_gib),),
                anti_collocation=False,
            ),
            ResourceGroup(
                name="disk",
                capacities=tuple(_DISK.to_units(disk_gb) for _ in range(n_disk)),
            ),
        )
    )


#: All Table I VM types, in table order.
EC2_VM_TYPES: List[VMType] = [ec2_vm_type(name) for name in EC2_VM_SPECS]

#: All Table II PM shapes, keyed by type name.
EC2_PM_TYPES: Dict[str, MachineShape] = {
    name: ec2_pm_shape(name) for name in EC2_PM_SPECS
}


def build_ec2_datacenter(counts: Mapping[str, int]) -> Datacenter:
    """A datacenter of Table II machines.

    Args:
        counts: PM type name -> how many (e.g. ``{"M3": 400, "C3": 100}``).
    """
    require(len(counts) > 0, "counts must not be empty")
    machines: List[PhysicalMachine] = []
    pm_id = 0
    for name, count in counts.items():
        require(count >= 0, f"count for {name!r} must be non-negative")
        shape = ec2_pm_shape(name)
        for _ in range(count):
            machines.append(PhysicalMachine(pm_id, shape, type_name=name))
            pm_id += 1
    return Datacenter(machines)


def build_ec2_soa_datacenter(counts: Mapping[str, int]):
    """A columnar (struct-of-arrays) datacenter of Table II machines.

    Same inventory and pm_id assignment as :func:`build_ec2_datacenter`,
    backed by :class:`repro.core.soa.SoADatacenter` — the substrate used
    by the scale sweep (100k PMs / 1M VMs).

    Args:
        counts: PM type name -> how many.
    """
    from repro.core.soa import SoADatacenter

    require(len(counts) > 0, "counts must not be empty")
    specs: List[Tuple[int, MachineShape, str]] = []
    pm_id = 0
    for name, count in counts.items():
        require(count >= 0, f"count for {name!r} must be non-negative")
        shape = ec2_pm_shape(name)
        for _ in range(count):
            specs.append((pm_id, shape, name))
            pm_id += 1
    return SoADatacenter(specs)
