"""Shared machinery for ablation benches.

Ablations compare PageRankVM variants end to end on a small EC2
configuration: same workload (paired), same datacenter, different score
tables.  The profile graphs are built once per PM shape and reused
across every variant, so a sweep costs one graph build plus cheap
rescoring.
"""

from repro.cluster.ec2 import (
    EC2_VM_TYPES,
    build_ec2_soa_datacenter,
    ec2_pm_shape,
)
from repro.cluster.simulation import CloudSimulation, SimulationConfig
from repro.core.graph import SuccessorStrategy, build_profile_graph
from repro.core.migration import PageRankMigrationSelector
from repro.core.placement import PageRankVMPolicy
from repro.core.score_table import build_score_table
from repro.experiments.config import ExperimentConfig, WorkloadSpec
from repro.experiments.workload import build_vms

DATACENTER = {"M3": 120, "C3": 30}
N_VMS = 200
REPETITIONS = 2

_GRAPHS = {}


def ec2_graphs():
    """BALANCED-strategy profile graphs for M3 and C3 (built once)."""
    if not _GRAPHS:
        for name in ("M3", "C3"):
            shape = ec2_pm_shape(name)
            _GRAPHS[shape] = build_profile_graph(
                shape,
                EC2_VM_TYPES,
                strategy=SuccessorStrategy.BALANCED,
                node_limit=500_000,
            )
    return _GRAPHS


def tables_for_variant(**table_kwargs):
    """Per-shape score tables for one ablation variant."""
    return {
        shape: build_score_table(
            shape, EC2_VM_TYPES, graph=graph, **table_kwargs
        )
        for shape, graph in ec2_graphs().items()
    }


def run_variant(tables, pool_size=None, repetitions=REPETITIONS):
    """Run the standard ablation workload under one table variant.

    Returns per-metric means over the repetitions.
    """
    sums = {"pms_used": 0.0, "energy_kwh": 0.0, "migrations": 0.0, "slo": 0.0}
    config = ExperimentConfig(
        n_vms=N_VMS,
        datacenter=tuple(DATACENTER.items()),
        workload=WorkloadSpec(trace="planetlab"),
        repetitions=repetitions,
        sim=SimulationConfig(),
    )
    for rep in range(repetitions):
        datacenter = build_ec2_soa_datacenter(DATACENTER)
        policy = PageRankVMPolicy(tables, pool_size=pool_size)
        selector = PageRankMigrationSelector(tables)
        simulation = CloudSimulation(datacenter, policy, selector, config.sim)
        result = simulation.run(build_vms(config, rep))
        sums["pms_used"] += result.pms_used_peak
        sums["energy_kwh"] += result.energy_kwh
        sums["migrations"] += result.migrations
        sums["slo"] += result.slo_violation_rate
    return {key: value / repetitions for key, value in sums.items()}
