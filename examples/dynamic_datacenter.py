#!/usr/bin/env python3
"""Dynamic workload: arrivals, departures and underload consolidation.

Extends the paper's initial-allocation evaluation to the general cloud
setting: VM requests arrive as a Poisson process with exponential
lifetimes; PMs that fall idle are drained and powered off when underload
consolidation is enabled.

Run:  python examples/dynamic_datacenter.py
"""

from repro.baselines import FirstFitPolicy, MinimumMigrationTimeSelector
from repro.cluster.ec2 import (
    EC2_VM_TYPES,
    build_ec2_soa_datacenter,
    ec2_pm_shape,
)
from repro.cluster.simulation import DynamicSimulation, SimulationConfig
from repro.core.graph import SuccessorStrategy
from repro.core.migration import PageRankMigrationSelector
from repro.core.placement import PageRankVMPolicy
from repro.experiments.config import ExperimentConfig, WorkloadSpec
from repro.experiments.tables import score_tables_for
from repro.experiments.workload import build_dynamic_workload

DATACENTER = {"M3": 60, "C3": 15}


def make_policy(name):
    if name == "PageRankVM":
        shapes = [ec2_pm_shape(n) for n in DATACENTER]
        tables = score_tables_for(
            shapes, EC2_VM_TYPES, strategy=SuccessorStrategy.BALANCED
        )
        return PageRankVMPolicy(tables), PageRankMigrationSelector(tables)
    return FirstFitPolicy(), MinimumMigrationTimeSelector()


def main():
    config = ExperimentConfig(
        n_vms=300,
        datacenter=tuple(DATACENTER.items()),
        workload=WorkloadSpec(trace="planetlab"),
    )
    events = build_dynamic_workload(
        config, repetition=0,
        mean_interarrival_s=180.0, mean_lifetime_s=6 * 3600.0,
    )
    print(f"{len(events)} arrivals over 24 h "
          f"(Poisson, mean lifetime 6 h) on {sum(DATACENTER.values())} PMs\n")

    header = (f"{'policy':14s} {'consolidate':>12s} {'peak PMs':>9s} "
              f"{'kWh':>8s} {'migr':>6s} {'rejected':>9s} {'done':>6s}")
    print(header)
    print("-" * len(header))
    for name in ("PageRankVM", "FF"):
        for consolidate in (False, True):
            policy, selector = make_policy(name)
            sim_config = SimulationConfig(
                underload_threshold=0.2 if consolidate else None
            )
            simulation = DynamicSimulation(
                build_ec2_soa_datacenter(DATACENTER),
                policy,
                selector,
                sim_config,
            )
            result = simulation.run_events(events)
            print(
                f"{name:14s} {'on' if consolidate else 'off':>12s} "
                f"{result.pms_used_peak:9d} {result.energy_kwh:8.1f} "
                f"{result.migrations:6d} {result.rejected_arrivals:9d} "
                f"{result.completed_vms:6d}"
            )

    print("\n-> consolidation drains underloaded PMs as VMs depart, cutting")
    print("   energy at the price of extra migrations.")


if __name__ == "__main__":
    main()
