"""Ablation: underload consolidation under a dynamic workload.

Extends the paper's static evaluation: VMs arrive and depart over a day
(Poisson/exponential), and the energy-saving consolidation loop drains
underloaded PMs so they can power off.  Reports the energy/migration
trade per policy with consolidation on and off.
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
from repro.experiments.report import format_catalog_table
from repro.experiments.tables import score_tables_for
from repro.experiments.workload import build_dynamic_workload

DATACENTER = {"M3": 60, "C3": 15}


def _policy(name):
    if name == "PageRankVM":
        shapes = [ec2_pm_shape(n) for n in DATACENTER]
        tables = score_tables_for(
            shapes, EC2_VM_TYPES, strategy=SuccessorStrategy.BALANCED
        )
        return PageRankVMPolicy(tables), PageRankMigrationSelector(tables)
    return FirstFitPolicy(), MinimumMigrationTimeSelector()


def test_ablation_consolidation(benchmark, emit):
    config = ExperimentConfig(
        n_vms=300,
        datacenter=tuple(DATACENTER.items()),
        workload=WorkloadSpec(trace="planetlab"),
    )
    events = build_dynamic_workload(
        config, repetition=0,
        mean_interarrival_s=180.0, mean_lifetime_s=6 * 3600.0,
    )

    def sweep():
        results = {}
        for name in ("PageRankVM", "FF"):
            for consolidate in (False, True):
                policy, selector = _policy(name)
                sim = DynamicSimulation(
                    build_ec2_soa_datacenter(DATACENTER),
                    policy,
                    selector,
                    SimulationConfig(
                        underload_threshold=0.2 if consolidate else None
                    ),
                )
                results[(name, consolidate)] = sim.run_events(events)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            name,
            "on" if consolidate else "off",
            result.pms_used_peak,
            f"{result.energy_kwh:.1f}",
            result.migrations,
            result.consolidations,
            result.rejected_arrivals,
        )
        for (name, consolidate), result in results.items()
    ]
    emit(
        format_catalog_table(
            "Ablation: underload consolidation "
            f"({len(events)} dynamic arrivals, 24 h, PlanetLab)",
            ("policy", "consolidate", "peak PMs", "kWh", "migr",
             "drains", "rejected"),
            rows,
        )
    )

    # Consolidation must save energy for both policies, at the price of
    # extra migrations, without rejecting any arrivals.
    for name in ("PageRankVM", "FF"):
        off = results[(name, False)]
        on = results[(name, True)]
        assert on.energy_kwh < off.energy_kwh
        assert on.migrations >= off.migrations
        assert on.rejected_arrivals == 0
        assert on.consolidations > 0
