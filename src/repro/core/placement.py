"""Algorithm 2: the PageRankVM initial allocation policy.

For each VM the policy scans the used PMs, derives every canonically
distinct accommodation of the VM's (permutable) demands, looks the
resulting profiles up in the Profile-PageRank score table, and picks the
PM + accommodation with the globally highest score.  When no used PM
fits, the first unused PM with sufficient resources is opened.

The heavy lifting (candidate enumeration, caching, 2-choice pool
sampling) lives in :class:`repro.core.policy.ProfileScorePolicy`; this
class contributes the score function — the Profile-PageRank table lookup
with nearest-profile snapping for off-graph profiles.
"""

from __future__ import annotations

import logging
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.graph import SuccessorStrategy
from repro.core.policy import PlacementDecision, ProfileScorePolicy
from repro.core.profile import MachineShape, Usage, VMType
from repro.core.score_table import ScoreTable
from repro.util.validation import ValidationError, require

__all__ = ["TABLE_FAULTS", "PageRankVMPolicy"]

logger = logging.getLogger(__name__)

#: Score-table faults the policy survives by degrading: a shape with no
#: table (KeyError), a table whose arrays are truncated/mis-shaped
#: (IndexError/ValueError) and one with poisoned scores (ValidationError
#: from the finiteness guard).  Public so the serving layer's circuit
#: breaker can catch exactly the fault family the policy degrades on.
TABLE_FAULTS = (KeyError, IndexError, ValueError, ValidationError)
_TABLE_FAULTS = TABLE_FAULTS


class PageRankVMPolicy(ProfileScorePolicy):
    """The paper's placement algorithm, driven by precomputed score tables.

    Args:
        tables: one :class:`ScoreTable` per PM shape present in the
            datacenter.
        pool_size: when set, the number of feasible used PMs sampled per
            decision (the 2-choice method uses ``pool_size=2``); None
            scans every used PM, as in Algorithm 2.
        rng: random generator for pool sampling.

    A score-table fault mid-run (missing table for a shape,
    corrupt/truncated arrays, non-finite scores) degrades the policy to
    FFDSum, logged once, instead of crashing the simulation;
    ``degraded`` / ``degraded_reason`` report that it happened.
    """

    name = "PageRankVM"

    def __init__(
        self,
        tables: Mapping[MachineShape, ScoreTable],
        pool_size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(pool_size=pool_size, rng=rng)
        require(len(tables) > 0, "PageRankVMPolicy needs at least one score table")
        self._tables = dict(tables)
        self._shape_ids = {shape: i for i, shape in enumerate(self._tables)}
        self._fallback_policy = None
        self._degraded_reason: Optional[str] = None

    @property
    def tables(self) -> Dict[MachineShape, ScoreTable]:
        """The per-shape score tables (read-only use intended)."""
        return self._tables

    def replace_tables(
        self, tables: Mapping[MachineShape, ScoreTable]
    ) -> None:
        """Swap in a new score-table generation (live fleet change).

        The serving layer calls this between admission batches when it
        swaps in tables rebuilt for a new catalog
        (:func:`repro.serve.fleet.swap_catalog`).  Cached candidates
        are dropped — entries scored against the old generation must not
        survive the swap — and a degraded policy stays degraded until
        the breaker's next healthy probe, which then probes the *new*
        tables.
        """
        require(
            len(tables) > 0, "PageRankVMPolicy needs at least one score table"
        )
        self._tables = dict(tables)
        self._shape_ids = {shape: i for i, shape in enumerate(self._tables)}
        self.invalidate_cache()

    def table_for(self, shape: MachineShape) -> ScoreTable:
        """The table for a shape.

        Raises:
            KeyError: when the shape was not given a table — the caller
                must build one with :func:`build_score_table` first.
        """
        table = self._tables.get(shape)
        if table is None:
            raise KeyError(
                f"no score table for shape {shape!r}; build one with "
                "build_score_table(shape, vm_types) and pass it to the policy"
            )
        return table

    def profile_score(self, shape: MachineShape, usage: Usage) -> float:
        """Profile-PageRank table lookup with nearest-profile snapping.

        Raises:
            ValidationError: when the table returns a non-finite score —
                the signature of a corrupt or poisoned table.
        """
        score = self.table_for(shape).score_or_snap(usage)
        if not np.isfinite(score):
            raise ValidationError(
                f"score table for shape returned non-finite score {score!r}"
            )
        return score

    def profile_scores(self, shape: MachineShape, usages) -> list:
        """Batched table lookups; misses share one snap distance pass.

        Raises:
            ValidationError: when any score is non-finite (corrupt table).
        """
        scores = self.table_for(shape).score_or_snap_many(usages)
        if not np.all(np.isfinite(scores)):
            raise ValidationError(
                "score table returned non-finite scores in batched lookup"
            )
        return scores

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once a score-table fault forced the FFDSum fallback."""
        return self._fallback_policy is not None

    @property
    def degraded_reason(self) -> Optional[str]:
        """Why the policy degraded (None while healthy)."""
        return self._degraded_reason

    def _degrade(self, error: BaseException) -> None:
        # Imported lazily: baselines depends on core, not vice versa.
        from repro.baselines.ffd_sum import FFDSumPolicy

        self._degraded_reason = f"{type(error).__name__}: {error}"
        self._fallback_policy = FFDSumPolicy()
        logger.warning(
            "PageRankVM score tables unusable (%s); degrading to FFDSum "
            "for the rest of this run",
            self._degraded_reason,
        )

    def reset_degradation(self) -> None:
        """Leave the FFDSum fallback after the score tables were repaired.

        The serving layer's circuit breaker calls this when a half-open
        probe finds the tables healthy again, turning PR 3's sticky
        one-way degradation into a recoverable state.  Cached candidates
        are dropped: entries memoized before the fault are content-
        addressed and still valid, but dropping them keeps the contract
        trivially airtight ("nothing scored before the repair survives
        it") at the cost of a one-time re-warm.
        """
        if self._fallback_policy is None:
            return
        self._fallback_policy = None
        self._degraded_reason = None
        self.invalidate_cache()
        logger.info(
            "PageRankVM score tables healthy again; leaving FFDSum fallback"
        )

    def probe_tables(self) -> bool:
        """One cheap lookup per shape: are the tables answering sanely?

        Used by the circuit breaker's half-open probe.  A healthy probe
        on a degraded policy clears the degradation (see
        :meth:`reset_degradation`); a failing probe refreshes
        ``degraded_reason`` and leaves (or puts) the policy in its
        fallback state.  Never raises table faults.
        """
        try:
            for shape in self._tables:
                score = self.table_for(shape).score_or_snap(
                    shape.empty_usage()
                )
                if not np.isfinite(score):
                    raise ValidationError(
                        f"score table probe returned non-finite {score!r}"
                    )
        except _TABLE_FAULTS as error:
            if self._fallback_policy is None:
                self._degrade(error)
            else:
                self._degraded_reason = f"{type(error).__name__}: {error}"
            return False
        self.reset_degradation()
        return True

    def order_vms(self, vms: Sequence[VMType]) -> List[VMType]:
        if self._fallback_policy is not None:
            return self._fallback_policy.order_vms(vms)
        return super().order_vms(vms)

    def select(self, vm, machines) -> Optional[PlacementDecision]:
        if self._fallback_policy is not None:
            return self._fallback_policy.select(vm, machines)
        try:
            return super().select(vm, machines)
        except _TABLE_FAULTS as error:
            self._degrade(error)
            return self._fallback_policy.select(vm, machines)

    def candidate_mode(self, shape: MachineShape) -> str:
        """Match the candidate set to the table's successor strategy."""
        table = self.table_for(shape)
        if table.strategy is SuccessorStrategy.BALANCED:
            return "balanced"
        return "all"

    def _shape_key(self, shape: MachineShape) -> Hashable:
        # Pure read: candidate caches key on this, and select() may run
        # under a process pool — mutating state here (the old setdefault)
        # meant unbounded growth and divergent ids across workers.  Known
        # shapes map to their dense table index; unknown shapes (no table;
        # the lookup will fault and degrade) key as themselves.
        key = self._shape_ids.get(shape)
        return shape if key is None else key
