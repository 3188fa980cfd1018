"""Service builders: wire a fleet + policy + breaker into one service.

Two fleets cover the serving stack's needs:

* :func:`build_toy_service` — the 4x4-core toy world every fast unit
  test uses (score table builds in milliseconds).  This is what the
  chaos drill and the CI smoke boot.
* :func:`build_ec2_service` — the paper's M3 fleet on the
  struct-of-arrays substrate, for real load generation.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.ec2 import EC2_VM_TYPES, build_ec2_soa_datacenter
from repro.core.graph import ProfileGraph, extend_profile_graph
from repro.core.graph_cache import load_or_build_profile_graph
from repro.core.kernel_sweep import resweep_delta, sweep_profile_pagerank
from repro.core.pagerank import PageRankResult
from repro.core.placement import PageRankVMPolicy
from repro.core.profile import MachineShape, ResourceGroup, VMType
from repro.core.score_table import ScoreTable, build_score_table
from repro.core.soa.datacenter import SoADatacenter
from repro.experiments.sweep import sweep_table
from repro.serve.clock import Clock
from repro.serve.service import PlacementService
from repro.serve.workers import PooledScoreTable, ScoringWorkerPool
from repro.util.rng import RngFactory
from repro.util.validation import require

__all__ = [
    "toy_shape",
    "toy_vm_types",
    "build_toy_service",
    "build_ec2_service",
    "FleetDeltaPlane",
]


def _pooled_tables(
    tables: Dict[MachineShape, ScoreTable],
    scoring_workers: int,
    min_batch: int = 64,
) -> Tuple[Dict[MachineShape, ScoreTable], Optional[ScoringWorkerPool]]:
    """Share the tables and wrap them over a worker pool when asked.

    ``scoring_workers <= 1`` returns the tables untouched (the serial
    path); otherwise each table is published into shared memory once and
    wrapped so batched admission scoring fans out across the workers —
    value-identical either way (see :mod:`repro.serve.workers`).
    """
    pool = ScoringWorkerPool.create(
        list(tables.values()), scoring_workers, min_batch=min_batch
    )
    if pool is None:
        return tables, None
    wrapped: Dict[MachineShape, ScoreTable] = {
        shape: PooledScoreTable.wrap(table, pool, index)
        for index, (shape, table) in enumerate(tables.items())
    }
    return wrapped, pool


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
    scoring_workers: int = 1,
    scoring_min_batch: int = 64,
    **service_kwargs,
) -> PlacementService:
    """A small table-driven service on the struct-of-arrays substrate."""
    shape = toy_shape()
    vm_types = toy_vm_types()
    tables, pool = _pooled_tables(
        {shape: build_score_table(shape, vm_types)},
        scoring_workers,
        min_batch=scoring_min_batch,
    )
    policy = PageRankVMPolicy(
        tables,
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
        scoring_pool=pool,
        **service_kwargs,
    )


class FleetDeltaPlane:
    """Live fleet-change pipeline over a serving :class:`PlacementService`.

    The plane owns, per PM shape, a private *master* generation: the
    profile graph, its exact sweep rank
    (:mod:`repro.core.kernel_sweep`) and a writable master
    :class:`ScoreTable` whose rows are in graph node-id order.
    :meth:`register` grows all three incrementally for a new VM type —
    frontier-restricted graph extension
    (:func:`~repro.core.graph.extend_profile_graph`), partial re-sweep
    over the invalidation cone
    (:func:`~repro.core.kernel_sweep.resweep_delta`), in-place table
    row append (:meth:`ScoreTable.apply_delta`) — and hot-swaps
    immutable snapshots into the service between admission batches
    (pool republish under the bumped content key, then policy table
    replacement).  The serving tables are never mutated: each swap
    hands out a fresh :meth:`ScoreTable.view` of the master, whose
    arrays and snap tree the master abandons (never edits) on its next
    delta, so a stale reader can at worst see a complete old generation.

    Bootstrapping the plane performs one cold build per shape (graphs
    come from the on-disk cache when ``graph_cache_dir`` is set); every
    :meth:`register` after that is incremental, and ``last_report``
    records where the time went so the ``delta`` bench phase can hold
    the delta path to a fraction of the cold rebuild.
    """

    def __init__(
        self,
        service: PlacementService,
        graph_cache_dir: Optional[Union[str, Path]] = None,
        jobs: int = 1,
        node_limit: int = 1_000_000,
    ) -> None:
        tables = getattr(service.policy, "tables", None)
        require(
            tables is not None and len(tables) > 0,
            "FleetDeltaPlane needs a table-driven policy with score tables",
        )
        self._service = service
        self._node_limit = node_limit
        self._vm_types: List[VMType] = list(service.vm_type_catalog)
        self._graphs: Dict[MachineShape, ProfileGraph] = {}
        self._results: Dict[MachineShape, PageRankResult] = {}
        self._masters: Dict[MachineShape, ScoreTable] = {}
        self.last_report: Optional[Dict[str, Any]] = None
        for shape, table in tables.items():
            graph = load_or_build_profile_graph(
                shape,
                tuple(self._vm_types),
                strategy=table.strategy,
                node_limit=node_limit,
                jobs=jobs,
                cache_dir=graph_cache_dir,
            )
            result = sweep_profile_pagerank(
                graph,
                damping=table.damping,
                vote_direction=table.vote_direction,
            )
            self._graphs[shape] = graph
            self._results[shape] = result
            # The master is built straight over its flat arrays in graph
            # node-id order — no per-profile dict walk; the exact-lookup
            # dict materializes lazily if anything ever asks for it.
            self._masters[shape] = ScoreTable.from_flat_arrays(
                shape=shape,
                matrix=np.ascontiguousarray(
                    graph.flat_profiles().astype(float)
                ),
                flat_scores=result.scores.copy(),
                damping=table.damping,
                strategy=table.strategy,
                vote_direction=table.vote_direction,
            )

    @property
    def vm_types(self) -> Tuple[VMType, ...]:
        """The live catalog, in declaration (= graph build) order."""
        return tuple(self._vm_types)

    @property
    def service(self) -> PlacementService:
        """The service this plane swaps tables into."""
        return self._service

    def graph_for(self, shape: MachineShape) -> ProfileGraph:
        """The master profile graph of a shape."""
        return self._graphs[shape]

    def master_table(self, shape: MachineShape) -> ScoreTable:
        """The writable master table of a shape (do not serve from it)."""
        return self._masters[shape]

    def swap_current(self) -> None:
        """Hot-swap the service onto snapshots of the current masters.

        Content-equal to what the service already holds unless a
        :meth:`register` happened; the digest-identity CI leg uses this
        as its "swap with no semantic change" probe.
        """
        self._service.hot_swap(
            {shape: master.view() for shape, master in self._masters.items()},
            vm_types=tuple(self._vm_types),
        )

    def register(self, vm_type: VMType) -> Dict[str, Any]:
        """Register a new VM type fleet-wide and hot-swap the service.

        Per shape: delta-grow the master graph, re-sweep the rank over
        the invalidation cone, append the new profiles' rows to the
        master table in place — then swap fresh snapshots (and the
        grown catalog) into the service between admission batches.
        Returns a timing/size report, also kept in ``last_report``.
        """
        require(
            all(vm.name != vm_type.name for vm in self._vm_types),
            f"VM type {vm_type.name!r} is already registered",
        )
        started = time.perf_counter()
        report: Dict[str, Any] = {"vm_type": vm_type.name, "shapes": {}}
        for shape, graph in list(self._graphs.items()):
            shape_started = time.perf_counter()
            master = self._masters[shape]
            grown, delta = extend_profile_graph(
                graph, (vm_type,), node_limit=self._node_limit
            )
            result = resweep_delta(
                grown,
                self._results[shape],
                delta,
                damping=master.damping,
                vote_direction=master.vote_direction,
            )
            new_rows = grown.flat_profiles()[delta.base_nodes:].astype(
                float
            )
            master.apply_delta(new_rows, result.scores)
            self._graphs[shape] = grown
            self._results[shape] = result
            report["shapes"][repr(shape)] = {
                "n_nodes": grown.n_nodes,
                "new_nodes": delta.n_new_nodes,
                "changed_sources": len(delta.changed_sources),
                "seconds": time.perf_counter() - shape_started,
            }
        self._vm_types.append(vm_type)
        swap_started = time.perf_counter()
        self.swap_current()
        report["swap_seconds"] = time.perf_counter() - swap_started
        report["seconds"] = time.perf_counter() - started
        self.last_report = report
        return report


def build_ec2_service(
    counts: Optional[Dict[str, int]] = None,
    seed: int = 0,
    clock: Optional[Clock] = None,
    pool_size: Optional[int] = None,
    table_cache_dir: Optional[str] = None,
    jobs: int = 1,
    shard_size: int = 4_096,
    scoring_workers: int = 1,
    scoring_min_batch: int = 64,
    **service_kwargs,
) -> PlacementService:
    """The paper's M3 fleet as a service (loadgen's default world)."""
    counts = counts if counts is not None else {"M3": 480}
    table = sweep_table(table_cache_dir, jobs=jobs)
    tables, pool = _pooled_tables(
        {table.shape: table}, scoring_workers, min_batch=scoring_min_batch
    )
    policy = PageRankVMPolicy(
        tables,
        pool_size=pool_size,
        rng=RngFactory(seed).generator("serve-policy"),
    )
    datacenter = build_ec2_soa_datacenter(counts, shard_size=shard_size)
    return PlacementService(
        datacenter,
        policy,
        EC2_VM_TYPES,
        clock=clock,
        seed=seed,
        scoring_pool=pool,
        **service_kwargs,
    )
