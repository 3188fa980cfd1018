"""Service builders: wire a fleet + policy + breaker into one service.

Two fleets cover the serving stack's needs:

* :func:`build_toy_service` — the 4x4-core toy world every fast unit
  test uses (score table builds in milliseconds).  This is what the
  chaos drill and the CI smoke boot.
* :func:`build_ec2_service` — the paper's M3 fleet on the
  struct-of-arrays substrate, for real load generation.

:func:`swap_catalog` rebuilds a running service's score tables for a VM
type catalog and hot-swaps them in; it is how a new VM type registers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.ec2 import EC2_VM_TYPES, build_ec2_soa_datacenter
from repro.core.placement import PageRankVMPolicy
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.core.score_table import build_score_table
from repro.core.soa.datacenter import SoADatacenter
from repro.experiments.sweep import sweep_table
from repro.serve.clock import Clock
from repro.serve.service import PlacementService
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = [
    "toy_shape",
    "toy_vm_types",
    "build_toy_service",
    "build_ec2_service",
    "swap_catalog",
]


def toy_shape() -> MachineShape:
    """The 4x4-core toy PM shape shared with the CLI demo world."""
    return MachineShape(
        groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4)),)
    )


def toy_vm_types() -> Tuple[VMType, ...]:
    """The toy catalog: 1-, 2- and 4-core VMs."""
    return (
        VMType(name="vm1", demands=((1,),)),
        VMType(name="vm2", demands=((1, 1),)),
        VMType(name="vm4", demands=((1, 1, 1, 1),)),
    )


def build_toy_service(
    n_pms: int = 8,
    seed: int = 0,
    clock: Optional[Clock] = None,
    pool_size: Optional[int] = None,
    **service_kwargs,
) -> PlacementService:
    """A small table-driven service on the struct-of-arrays substrate."""
    shape = toy_shape()
    vm_types = toy_vm_types()
    policy = PageRankVMPolicy(
        {shape: build_score_table(shape, vm_types)},
        pool_size=pool_size,
        rng=RngFactory(seed).generator("serve-policy"),
    )
    datacenter = SoADatacenter(
        [(pm_id, shape, "toy.4x4") for pm_id in range(n_pms)]
    )
    return PlacementService(
        datacenter,
        policy,
        vm_types,
        clock=clock,
        seed=seed,
        **service_kwargs,
    )


def swap_catalog(
    service: PlacementService,
    vm_types: Sequence[VMType],
) -> None:
    """Rebuild every served score table for ``vm_types`` and hot-swap.

    Each shape's table is built cold with :func:`build_score_table`
    (reachable mode, PageRank scoring), keeping the live table's
    strategy, damping and vote direction, and its snap tree is built
    before the swap so no request pays for it.  The service then swaps
    the tables and the catalog in together between admission batches
    (:meth:`PlacementService.hot_swap`).

    A table depends only on its shape and catalog, so registering a VM
    type is this call with the current catalog plus the new type, and
    the result is the table a service cold-built with that catalog
    serves.  The current catalog swaps in equal-content tables.

    Raises:
        ValidationError: when the policy serves no score tables, or the
            catalog is empty or repeats a VM type name.
    """
    tables = getattr(service.policy, "tables", None)
    require(
        tables is not None and len(tables) > 0,
        "swapping a catalog needs a table-driven policy with score tables",
    )
    catalog = tuple(vm_types)
    names = [vm.name for vm in catalog]
    require(
        len(set(names)) == len(names),
        f"VM type names repeat in the catalog: {names}",
    )
    rebuilt = {}
    for shape, live in tables.items():
        table = build_score_table(
            shape,
            catalog,
            strategy=live.strategy,
            damping=live.damping,
            vote_direction=live.vote_direction,
        )
        table._tree()
        rebuilt[shape] = table
    service.hot_swap(rebuilt, vm_types=catalog)


def build_ec2_service(
    counts: Optional[Dict[str, int]] = None,
    seed: int = 0,
    clock: Optional[Clock] = None,
    pool_size: Optional[int] = None,
    **service_kwargs,
) -> PlacementService:
    """The paper's M3 fleet as a service (loadgen's default world)."""
    counts = counts if counts is not None else {"M3": 480}
    table = sweep_table()
    policy = PageRankVMPolicy(
        {table.shape: table},
        pool_size=pool_size,
        rng=RngFactory(seed).generator("serve-policy"),
    )
    datacenter = build_ec2_soa_datacenter(counts)
    return PlacementService(
        datacenter,
        policy,
        EC2_VM_TYPES,
        clock=clock,
        seed=seed,
        **service_kwargs,
    )
