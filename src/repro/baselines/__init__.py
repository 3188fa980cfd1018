"""Comparison algorithms from the paper's evaluation (Section VI.A).

* :class:`FirstFitPolicy` (FF) — first PM with sufficient resources.
* :class:`FFDSumPolicy` (FFDSum) — first-fit over PMs sorted by
  decreasing capacity sum, with VM batches sorted by decreasing demand.
* :class:`BestFitPolicy` — minimum remaining resources after placement
  (the CompVM paper's greedy strawman, ref [10] in the paper).
* :class:`CompVMPolicy` (CompVM) — consolidates complementary VMs by
  minimizing the variance of per-dimension utilization.
* :mod:`repro.baselines.migration_policies` — CloudSim's default
  minimum-migration-time eviction selector, used by the baselines when a
  PM overloads.
"""

from repro.baselines.first_fit import FirstFitPolicy
from repro.baselines.ffd_sum import FFDSumPolicy
from repro.baselines.best_fit import BestFitPolicy
from repro.baselines.compvm import CompVMPolicy
from repro.baselines.migration_policies import (
    MinimumMigrationTimeSelector,
    RandomVictimSelector,
)

__all__ = [
    "FirstFitPolicy",
    "FFDSumPolicy",
    "BestFitPolicy",
    "CompVMPolicy",
    "MinimumMigrationTimeSelector",
    "RandomVictimSelector",
]
