"""One entry point per paper figure.

Each ``figureN_*`` function runs (or reuses) the underlying experiment
suite and returns a :class:`FigureResult` whose ``text`` renders the
figure as a table.  A single simulation produces all four simulation
metrics, so Figures 3/5/6/7 share one suite per (trace, scale) — the
suite is memoized per process.

Scale: the paper runs 1000-3000 VMs with 100 repetitions.  Full scale is
available (pass ``n_vms_list=(1000, 2000, 3000), repetitions=100``) but
slow in pure Python; the defaults are a faithful scaled-down grid that
preserves the figures' shape.  EXPERIMENTS.md records both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.graph import SuccessorStrategy
from repro.core.migration import PageRankMigrationSelector
from repro.core.placement import PageRankVMPolicy
from repro.baselines import (
    CompVMPolicy,
    FFDSumPolicy,
    FirstFitPolicy,
    MinimumMigrationTimeSelector,
)
from repro.experiments.config import (
    DEFAULT_POLICIES,
    DEFAULT_VM_MIX,
    ExperimentConfig,
    WorkloadSpec,
)
from repro.experiments.report import format_series
from repro.experiments.runner import ExperimentResults, run_experiment
from repro.experiments.tables import score_tables_for
from repro.testbed.experiment import TestbedConfig, TestbedExperiment, TestbedResult
from repro.testbed.instance import geni_instance_shape
from repro.testbed.job import JOB_2VCPU, JOB_4VCPU
from repro.util.stats import Percentiles, summarize
from repro.util.validation import ValidationError

__all__ = [
    "FigureResult",
    "simulation_suite",
    "figure3_pms_used",
    "figure5_energy",
    "figure6_migrations",
    "figure7_slo",
    "testbed_suite",
    "figure4_testbed",
    "figure8_testbed_slo",
]


@dataclass
class FigureResult:
    """A rendered figure: x values and per-policy percentile series."""

    figure_id: str
    title: str
    x_label: str
    xs: Tuple
    series: Dict[str, List[Percentiles]]

    @property
    def text(self) -> str:
        """The figure as an aligned text table."""
        return format_series(
            f"{self.figure_id}: {self.title}", self.x_label, self.xs, self.series
        )

    def ordering(self, x_index: int = -1) -> List[str]:
        """Policies sorted by median at one x (default: largest), best first."""
        return sorted(
            self.series, key=lambda name: self.series[name][x_index].median
        )


# ----------------------------------------------------------------------
# Simulation suite (Figures 3, 5, 6, 7)
# ----------------------------------------------------------------------
_SUITE_CACHE: Dict[Tuple, Dict[int, ExperimentResults]] = {}


def simulation_suite(
    trace: str = "planetlab",
    n_vms_list: Sequence[int] = (300, 600, 900),
    repetitions: int = 5,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 2018,
    datacenter: Optional[Sequence[Tuple[str, int]]] = None,
    vm_mix: Sequence[Tuple[str, float]] = DEFAULT_VM_MIX,
    vote_direction: str = "forward",
    workers: Optional[int] = 1,
) -> Dict[int, ExperimentResults]:
    """Run (or reuse) the simulation grid underlying Figures 3/5/6/7.

    ``workers`` only changes how fast the grid runs, never what it
    produces (see :func:`run_experiment`), so it is deliberately
    excluded from the memo key.
    """
    n_vms_list = tuple(n_vms_list)
    policies = tuple(policies)
    vm_mix = tuple(vm_mix)
    if datacenter is None:
        # Size the fleet to the largest grid point: ~1 M3 per 2 VMs keeps
        # headroom without drowning the run in idle PMs.
        biggest = max(n_vms_list)
        datacenter = (("M3", max(8, biggest // 2)), ("C3", max(2, biggest // 8)))
    datacenter = tuple(tuple(d) for d in datacenter)

    key = (trace, n_vms_list, repetitions, policies, seed, datacenter,
           vm_mix, vote_direction)
    cached = _SUITE_CACHE.get(key)
    if cached is not None:
        return cached

    suite: Dict[int, ExperimentResults] = {}
    for n_vms in n_vms_list:
        config = ExperimentConfig(
            n_vms=n_vms,
            datacenter=datacenter,
            workload=WorkloadSpec(vm_mix=vm_mix, trace=trace),
            policies=policies,
            repetitions=repetitions,
            seed=seed,
            vote_direction=vote_direction,
        )
        suite[n_vms] = run_experiment(config, workers=workers)
    _SUITE_CACHE[key] = suite
    return suite


def _simulation_figure(
    figure_id: str, title: str, metric: str, trace: str, **suite_kwargs
) -> FigureResult:
    suite = simulation_suite(trace=trace, **suite_kwargs)
    xs = tuple(sorted(suite))
    policies = suite[xs[0]].config.policies
    series = {
        policy: [suite[x].summarize(metric)[policy] for x in xs]
        for policy in policies
    }
    return FigureResult(
        figure_id=figure_id,
        title=f"{title} ({trace} trace)",
        x_label="#VMs",
        xs=xs,
        series=series,
    )


def figure3_pms_used(trace: str = "planetlab", **suite_kwargs) -> FigureResult:
    """Figure 3: the number of PMs used vs the number of VMs."""
    sub = "a" if trace == "planetlab" else "b"
    return _simulation_figure(
        f"Fig 3({sub})", "number of PMs used", "pms_used", trace, **suite_kwargs
    )


def figure5_energy(trace: str = "planetlab", **suite_kwargs) -> FigureResult:
    """Figure 5: 24-hour energy consumption (kWh) vs the number of VMs."""
    sub = "a" if trace == "planetlab" else "b"
    return _simulation_figure(
        f"Fig 5({sub})", "energy consumption (kWh)", "energy_kwh", trace,
        **suite_kwargs,
    )


def figure6_migrations(trace: str = "planetlab", **suite_kwargs) -> FigureResult:
    """Figure 6: the number of VM migrations vs the number of VMs."""
    sub = "a" if trace == "planetlab" else "b"
    return _simulation_figure(
        f"Fig 6({sub})", "number of VM migrations", "migrations", trace,
        **suite_kwargs,
    )


def figure7_slo(trace: str = "planetlab", **suite_kwargs) -> FigureResult:
    """Figure 7: SLO violations (fraction of active time) vs #VMs."""
    sub = "a" if trace == "planetlab" else "b"
    return _simulation_figure(
        f"Fig 7({sub})", "SLO violations", "slo_violations", trace, **suite_kwargs
    )


# ----------------------------------------------------------------------
# Testbed suite (Figures 4 and 8)
# ----------------------------------------------------------------------
_TESTBED_CACHE: Dict[Tuple, Dict[int, Dict[str, List[TestbedResult]]]] = {}

#: Testbed metric name -> TestbedResult attribute.
TESTBED_METRICS: Dict[str, str] = {
    "instances_used": "instances_used_peak",
    "migrations": "migrations",
    "slo_violations": "slo_violation_rate",
}


def make_testbed_policy(name: str, config: TestbedConfig):
    """Policy + eviction selector for the GENI configuration.

    Raises:
        ValidationError: for unknown policy names.
    """
    if name == "PageRankVM":
        shape = geni_instance_shape(config.n_cores, config.slots_per_core)
        tables = score_tables_for(
            [shape],
            [JOB_2VCPU, JOB_4VCPU],
            strategy=SuccessorStrategy.ALL_PLACEMENTS,
        )
        return PageRankVMPolicy(tables), PageRankMigrationSelector(tables)
    if name == "CompVM":
        return CompVMPolicy(), MinimumMigrationTimeSelector()
    if name == "FFDSum":
        return FFDSumPolicy(), MinimumMigrationTimeSelector()
    if name == "FF":
        return FirstFitPolicy(), MinimumMigrationTimeSelector()
    raise ValidationError(f"unknown testbed policy {name!r}")


def testbed_suite(
    n_jobs_list: Sequence[int] = (100, 200, 300),
    repetitions: int = 5,
    policies: Sequence[str] = DEFAULT_POLICIES,
    seed: int = 2018,
    duration_s: float = 4 * 3600.0,
) -> Dict[int, Dict[str, List[TestbedResult]]]:
    """Run (or reuse) the testbed grid underlying Figures 4 and 8."""
    n_jobs_list = tuple(n_jobs_list)
    policies = tuple(policies)
    key = (n_jobs_list, repetitions, policies, seed, duration_s)
    cached = _TESTBED_CACHE.get(key)
    if cached is not None:
        return cached

    suite: Dict[int, Dict[str, List[TestbedResult]]] = {}
    for n_jobs in n_jobs_list:
        per_policy: Dict[str, List[TestbedResult]] = {}
        for policy_name in policies:
            runs = []
            for rep in range(repetitions):
                config = TestbedConfig(seed=seed + rep, duration_s=duration_s)
                policy, selector = make_testbed_policy(policy_name, config)
                experiment = TestbedExperiment(policy, selector, config)
                runs.append(experiment.run(n_jobs, repetition=rep))
            per_policy[policy_name] = runs
        suite[n_jobs] = per_policy
    _TESTBED_CACHE[key] = suite
    return suite


def _testbed_figure(
    figure_id: str, title: str, metric: str, **suite_kwargs
) -> FigureResult:
    suite = testbed_suite(**suite_kwargs)
    xs = tuple(sorted(suite))
    attribute = TESTBED_METRICS[metric]
    policies = list(suite[xs[0]])
    series = {
        policy: [
            summarize([getattr(r, attribute) for r in suite[x][policy]])
            for x in xs
        ]
        for policy in policies
    }
    return FigureResult(
        figure_id=figure_id,
        title=f"{title} (GENI testbed, Google trace)",
        x_label="#VMs(jobs)",
        xs=xs,
        series=series,
    )


def figure4_testbed(**suite_kwargs) -> Tuple[FigureResult, FigureResult]:
    """Figure 4: (a) instances used and (b) migrations on the testbed."""
    pms = _testbed_figure(
        "Fig 4(a)", "number of PMs (instances) used", "instances_used",
        **suite_kwargs,
    )
    migrations = _testbed_figure(
        "Fig 4(b)", "number of migrations", "migrations", **suite_kwargs
    )
    return pms, migrations


def figure8_testbed_slo(**suite_kwargs) -> FigureResult:
    """Figure 8: SLO violations on the testbed."""
    return _testbed_figure(
        "Fig 8", "SLO violations", "slo_violations", **suite_kwargs
    )
