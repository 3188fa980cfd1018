"""Runs (policy x repetition) grids and aggregates percentile statistics.

The grid is embarrassingly parallel: every (policy, repetition) cell
derives all of its randomness from the config seed via
:class:`repro.util.rng.RngFactory` label paths, so cells are independent
and their results do not depend on execution order.
:func:`run_experiment` exploits this with a process pool
(``workers=N``) whose output is bit-identical to the serial run.

The engine is crash-tolerant: cells that raise, hang past a per-cell
timeout, or die with their worker are retried with exponential backoff
(:class:`RetryPolicy`) and, once retries are exhausted, recorded as
:class:`CellFailure` entries instead of aborting the grid.  With a
``checkpoint_path``, every finished cell is persisted atomically so a
killed run can ``resume=True`` and skip completed cells bit-identically
(see :mod:`repro.experiments.checkpoint`).
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import (
    BestFitPolicy,
    CompVMPolicy,
    FFDSumPolicy,
    FirstFitPolicy,
    MinimumMigrationTimeSelector,
)
from repro.cluster.ec2 import EC2_VM_TYPES, build_ec2_soa_datacenter, ec2_pm_shape
from repro.cluster.simulation import CloudSimulation, SimulationResult
from repro.core.graph import SuccessorStrategy
from repro.core.migration import PageRankMigrationSelector
from repro.core.placement import PageRankVMPolicy
from repro.experiments.checkpoint import ExperimentCheckpoint
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import score_tables_for
from repro.experiments.workload import build_vms, sharing_draws
from repro.faults.schedule import FaultInjector
from repro.faults.spec import FaultSpec
from repro.util.rng import RngFactory
from repro.util.stats import Percentiles, summarize
from repro.util.validation import ValidationError, require

__all__ = [
    "POLICY_NAMES",
    "CellFailure",
    "RetryPolicy",
    "make_policy_and_selector",
    "run_single",
    "run_experiment",
    "ExperimentResults",
]

#: Environment hook for chaos tests: ``"<policy>/<rep>@<sentinel path>"``
#: makes the first worker that picks up that cell SIGKILL itself after
#: creating the sentinel file, so the retry path can be exercised end to
#: end (including across fork/spawn start methods and ``--resume``).
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL"

#: Metric name -> SimulationResult attribute.
METRICS: Dict[str, str] = {
    "pms_used": "pms_used_peak",
    "pms_used_initial": "pms_used_initial",
    "energy_kwh": "energy_kwh",
    "migrations": "migrations",
    "slo_violations": "slo_violation_rate",
}

POLICY_NAMES: Tuple[str, ...] = (
    "PageRankVM",
    "PageRankVM-2choice",
    "CompVM",
    "FFDSum",
    "FF",
    "BestFit",
)


def make_policy_and_selector(
    name: str,
    config: ExperimentConfig,
    repetition: int = 0,
    table_cache_dir: Optional[str] = None,
):
    """Instantiate a placement policy and its eviction selector.

    PageRankVM variants share cached score tables and pair with the
    PageRank eviction selector; baselines pair with CloudSim's default
    minimum-migration-time selector, exactly as in the paper.

    Args:
        table_cache_dir: optional on-disk profile-graph cache directory
            (defaults to the ``REPRO_TABLE_CACHE`` environment variable).

    Raises:
        ValidationError: for unknown policy names.
    """
    rng = RngFactory(config.seed).generator("policy", name, repetition)
    if name in ("PageRankVM", "PageRankVM-2choice"):
        tables = _score_tables(config, table_cache_dir)
        pool = 2 if name.endswith("2choice") else None
        policy = PageRankVMPolicy(tables, pool_size=pool, rng=rng)
        return policy, PageRankMigrationSelector(tables)
    if name == "CompVM":
        return CompVMPolicy(), MinimumMigrationTimeSelector()
    if name == "BestFit":
        return BestFitPolicy(), MinimumMigrationTimeSelector()
    if name == "FFDSum":
        return FFDSumPolicy(), MinimumMigrationTimeSelector()
    if name == "FF":
        return FirstFitPolicy(), MinimumMigrationTimeSelector()
    raise ValidationError(
        f"unknown policy {name!r}; known: {sorted(POLICY_NAMES)}"
    )


def _score_tables(
    config: ExperimentConfig,
    table_cache_dir: Optional[str],
):
    """The (cached) score tables every PageRankVM variant of a config shares.

    A table miss loads its profile graph from the on-disk graph cache in
    ``table_cache_dir`` (default ``$REPRO_TABLE_CACHE``), building and
    storing any missing one, and re-solves the table from it — see
    :func:`repro.experiments.tables.score_tables_for`.
    """
    shapes = [ec2_pm_shape(pm_name) for pm_name, _ in config.datacenter]
    return score_tables_for(
        shapes,
        EC2_VM_TYPES,
        strategy=SuccessorStrategy.BALANCED,
        damping=config.damping,
        vote_direction=config.vote_direction,
        scoring=config.scoring,
        cache_dir=table_cache_dir,
    )


def run_single(
    config: ExperimentConfig,
    policy_name: str,
    repetition: int,
    table_cache_dir: Optional[str] = None,
    audit: bool = False,
    faults: Optional[FaultSpec] = None,
) -> SimulationResult:
    """One (policy, repetition) simulation run.

    Args:
        audit: when True, the datacenter's final allocation state and
            the reported metrics are replayed against the MIP
            constraints (1)-(11) via
            :func:`repro.analysis.invariants.audit_simulation`;
            violations raise :class:`repro.analysis.invariants.AuditError`.
            Because this runs inside the worker, a parallel
            :func:`run_experiment` validates every worker's placements
            *before* results merge in the parent.
        faults: optional fault spec.  The concrete schedule derives from
            ``(config.seed, "faults", repetition)`` — *not* the policy
            name — so every policy in a repetition faces the identical
            crash/flap sequence and policy comparisons stay paired.
    """
    datacenter = build_ec2_soa_datacenter(dict(config.datacenter))
    policy, selector = make_policy_and_selector(
        policy_name, config, repetition, table_cache_dir=table_cache_dir
    )
    vms = build_vms(config, repetition)
    injector = None
    if faults is not None:
        injector = FaultInjector.for_run(
            faults,
            config.seed,
            repetition,
            horizon_s=config.sim.duration_s,
            pm_ids=[m.pm_id for m in datacenter.machines],
            n_vms=config.n_vms,
        )
    simulation = CloudSimulation(
        datacenter, policy, selector, config.sim, faults=injector
    )
    result = simulation.run(vms)
    if audit:
        from repro.analysis.invariants import audit_simulation

        audit_simulation(datacenter, result).raise_if_failed()
    return result


@dataclass(frozen=True)
class RetryPolicy:
    """How the grid engine handles misbehaving cells.

    Attributes:
        max_attempts: total tries per cell (first run included).
        backoff_base_s: sleep before the first retry.
        backoff_factor: multiplier applied per further retry.
        cell_timeout_s: wall-clock budget per cell in parallel runs;
            a cell still running past it is abandoned (its worker is
            orphaned until the interpreter exits) and retried in a
            fresh pool.  None disables the timeout.  Serial runs ignore
            it — there is no second process to watch the clock.
        jitter: fraction of the exponential delay randomized away to
            decorrelate retry storms; 0.25 means each sleep lands in
            ``[0.75, 1.0] * base * factor**(attempt-1)``.  The draw
            comes from a keyed :class:`~repro.util.rng.RngFactory`
            stream per (labels, attempt), so it is deterministic under
            a fixed seed and independent of how many other cells are
            retrying.  Callers that pass no factory get the undithered
            exponential delay.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    cell_timeout_s: Optional[float] = None
    jitter: float = 0.25

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.backoff_base_s >= 0, "backoff_base_s must be >= 0")
        require(self.backoff_factor >= 1, "backoff_factor must be >= 1")
        require(0 <= self.jitter <= 1, "jitter must be in [0, 1]")
        if self.cell_timeout_s is not None:
            require(self.cell_timeout_s > 0, "cell_timeout_s must be > 0")

    def backoff_s(
        self,
        attempt: int,
        rngs: Optional[RngFactory] = None,
        *labels: object,
    ) -> float:
        """Sleep before retry number ``attempt`` (1-based).

        With a factory, the delay is dithered by a one-shot draw from
        the ``(*labels, "backoff", attempt)`` stream — keyed, not
        sequential, so concurrent cells never perturb each other's
        delays and a retried cell sleeps the same amount on every
        identically-seeded run.
        """
        delay = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if rngs is None or self.jitter == 0:
            return delay
        fraction = float(
            rngs.generator(*labels, "backoff", attempt).random()
        )
        return delay * (1.0 - self.jitter * fraction)


@dataclass(frozen=True)
class CellFailure:
    """A grid cell that exhausted its retries.

    ``status`` is ``"error"`` (the cell raised), ``"timeout"`` (it blew
    the per-cell budget) or ``"crashed"`` (its worker process died).
    """

    policy: str
    repetition: int
    attempts: int
    status: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready record for the checkpoint file."""
        return {
            "policy": self.policy,
            "repetition": self.repetition,
            "attempts": self.attempts,
            "status": self.status,
            "message": self.message,
        }


@dataclass
class ExperimentResults:
    """All runs of one experiment, with percentile aggregation.

    ``failed_cells`` lists the (policy, repetition) cells that exhausted
    their retries; their policies simply have fewer runs aggregated.
    """

    config: ExperimentConfig
    runs: Dict[str, List[SimulationResult]] = field(default_factory=dict)
    failed_cells: List[CellFailure] = field(default_factory=list)

    def metric_values(self, policy: str, metric: str) -> List[float]:
        """Raw per-repetition values of a metric for a policy."""
        attribute = METRICS.get(metric, metric)
        return [getattr(r, attribute) for r in self.runs[policy]]

    def summarize(self, metric: str) -> Dict[str, Percentiles]:
        """Median and 1st/99th percentiles per policy (paper's stats)."""
        return {
            policy: summarize(self.metric_values(policy, metric))
            for policy in self.runs
        }

    def ordering(self, metric: str) -> List[str]:
        """Policies sorted by median metric, best (lowest) first."""
        medians = {
            policy: stats.median for policy, stats in self.summarize(metric).items()
        }
        return sorted(medians, key=medians.get)

    def compare(self, metric: str, policy_a: str, policy_b: str):
        """Paired significance test between two policies on a metric.

        Valid because every repetition's workload is identical across
        policies (see :func:`repro.experiments.workload.build_vms`).
        """
        from repro.util.stats import paired_comparison

        return paired_comparison(
            self.metric_values(policy_a, metric),
            self.metric_values(policy_b, metric),
        )


def _maybe_chaos_kill(policy_name: str, repetition: int) -> None:
    """SIGKILL the current process once, if this cell is the chaos target.

    Driven by :data:`CHAOS_KILL_ENV`; the sentinel file is created with
    ``O_CREAT | O_EXCL`` so exactly one attempt dies, whatever the pool
    start method, and the retry of the same cell sails through.
    """
    spec = os.environ.get(CHAOS_KILL_ENV)
    if not spec:
        return
    target, _, sentinel = spec.partition("@")
    if not sentinel or target != f"{policy_name}/{repetition}":
        return
    try:
        fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already died once for this sentinel
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _run_cell(args) -> SimulationResult:
    """Process-pool entry point for one (policy, repetition) cell."""
    config, policy_name, repetition, table_cache_dir, audit, faults = args
    _maybe_chaos_kill(policy_name, repetition)
    return run_single(
        config,
        policy_name,
        repetition,
        table_cache_dir=table_cache_dir,
        audit=audit,
        faults=faults,
    )


def _fail_fast(error: BaseException) -> bool:
    """Errors that indicate a caller bug, not a transient fault.

    Retrying these wastes attempts and, worse, converting them into
    failed cells would hide a misconfigured grid or a genuine constraint
    violation; both propagate to the caller instead.
    """
    from repro.analysis.invariants import AuditError

    return isinstance(error, (ValidationError, AuditError))


def _run_cells_serial(
    config: ExperimentConfig,
    pending: List[Tuple[str, int]],
    table_cache_dir: Optional[str],
    audit: bool,
    faults: Optional[FaultSpec],
    retry: RetryPolicy,
    checkpoint: Optional[ExperimentCheckpoint],
):
    """In-process grid execution with bounded retry per cell."""
    done: Dict[Tuple[str, int], SimulationResult] = {}
    failures: List[CellFailure] = []
    for policy_name, rep in pending:
        args = (config, policy_name, rep, table_cache_dir, audit, faults)
        for attempt in range(1, retry.max_attempts + 1):
            try:
                result = _run_cell(args)
            except Exception as error:
                if _fail_fast(error):
                    raise
                if attempt >= retry.max_attempts:
                    failure = CellFailure(
                        policy=policy_name,
                        repetition=rep,
                        attempts=attempt,
                        status="error",
                        message=f"{type(error).__name__}: {error}",
                    )
                    failures.append(failure)
                    if checkpoint is not None:
                        checkpoint.record_failure(
                            policy_name, rep, failure.as_dict()
                        )
                    break
                time.sleep(
                    retry.backoff_s(
                        attempt,
                        RngFactory(config.seed).spawn("retry"),
                        policy_name,
                        rep,
                    )
                )
            else:
                done[(policy_name, rep)] = result
                if checkpoint is not None:
                    checkpoint.record(policy_name, rep, result)
                break
    return done, failures


def _run_cells_parallel(
    config: ExperimentConfig,
    pending: List[Tuple[str, int]],
    table_cache_dir: Optional[str],
    audit: bool,
    faults: Optional[FaultSpec],
    retry: RetryPolicy,
    checkpoint: Optional[ExperimentCheckpoint],
    workers: int,
):
    """Process-pool grid execution in waves.

    Each wave submits every still-pending cell to a fresh pool and
    collects futures in submission order with the per-cell timeout.  A
    timed-out or crashed cell is requeued (up to ``max_attempts``); the
    wave's pool is then discarded — ``shutdown(wait=False,
    cancel_futures=True)`` — because a SIGKILLed worker breaks the pool
    and a hung worker would block a clean shutdown forever.
    """
    done: Dict[Tuple[str, int], SimulationResult] = {}
    failures: List[CellFailure] = []
    attempts: Dict[Tuple[str, int], int] = {cell: 0 for cell in pending}
    queue = list(pending)
    wave = 0
    while queue:
        wave += 1
        if wave > 1:
            time.sleep(
                retry.backoff_s(
                    wave - 1, RngFactory(config.seed).spawn("retry"), "wave"
                )
            )
        executor = ProcessPoolExecutor(max_workers=workers)
        dirty = False
        try:
            futures = {}
            for cell in queue:
                attempts[cell] += 1
                policy_name, rep = cell
                args = (
                    config, policy_name, rep, table_cache_dir, audit, faults
                )
                futures[cell] = executor.submit(_run_cell, args)
            requeue: List[Tuple[str, int]] = []
            for cell in queue:
                policy_name, rep = cell
                status = message = None
                try:
                    result = futures[cell].result(
                        timeout=retry.cell_timeout_s
                    )
                except FutureTimeoutError:
                    status = "timeout"
                    message = (
                        f"no result within {retry.cell_timeout_s}s; "
                        "worker abandoned"
                    )
                    dirty = True
                except BrokenExecutor as error:
                    status = "crashed"
                    message = (
                        f"worker process died ({type(error).__name__}: "
                        f"{error})"
                    )
                    dirty = True
                except Exception as error:
                    if _fail_fast(error):
                        dirty = True
                        raise
                    status = "error"
                    message = f"{type(error).__name__}: {error}"
                else:
                    done[cell] = result
                    if checkpoint is not None:
                        checkpoint.record(policy_name, rep, result)
                    continue
                if attempts[cell] >= retry.max_attempts:
                    failure = CellFailure(
                        policy=policy_name,
                        repetition=rep,
                        attempts=attempts[cell],
                        status=status,
                        message=message,
                    )
                    failures.append(failure)
                    if checkpoint is not None:
                        checkpoint.record_failure(
                            policy_name, rep, failure.as_dict()
                        )
                else:
                    requeue.append(cell)
            queue = requeue
        finally:
            # A broken/hung pool cannot be drained; abandon it.  A clean
            # wave still tears its pool down so the next wave (if any)
            # starts from known-good workers.
            executor.shutdown(wait=not dirty, cancel_futures=True)
    return done, failures


def run_experiment(
    config: ExperimentConfig,
    workers: Optional[int] = 1,
    table_cache_dir: Optional[str] = None,
    audit: bool = False,
    faults: Optional[FaultSpec] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> ExperimentResults:
    """Run every configured policy over every repetition.

    Args:
        workers: number of worker processes fanning the (policy,
            repetition) grid out via :class:`ProcessPoolExecutor`; 1 (the
            default) runs serially in-process, None uses every CPU.
            Every cell derives its randomness from ``(config.seed,
            policy, repetition)`` label paths, so the parallel results
            are bit-identical to the serial ones regardless of worker
            count or scheduling.
        table_cache_dir: optional on-disk profile-graph cache shared by
            the workers, so each distinct graph is built once rather
            than once per process; a worker missing a table re-solves it
            from the cached graph (see :mod:`repro.experiments.tables`).
        audit: when True, every cell's final allocation state is checked
            against the MIP constraints (1)-(11) inside the worker that
            produced it, so an invariant break fails the run before any
            results are aggregated (see :func:`run_single`).
        faults: optional :class:`~repro.faults.spec.FaultSpec` injected
            into every cell (same schedule per repetition across
            policies; see :func:`run_single`).
        retry: retry/timeout policy for misbehaving cells (defaults to
            :class:`RetryPolicy`'s 3 attempts with 0.1 s backoff).
            Cells that exhaust retries land in
            ``results.failed_cells`` instead of aborting the grid;
            ``ValidationError``/``AuditError`` still propagate.
        checkpoint_path: optional JSON checkpoint file; every finished
            cell is persisted atomically as the grid progresses.
        resume: with ``checkpoint_path``, load previously completed
            cells and run only the rest — bit-identical to an
            uninterrupted run.  Cells that previously *failed* are
            retried.  A checkpoint written for a different config is
            rejected.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if resume and checkpoint_path is None:
        raise ValidationError("resume=True needs a checkpoint_path")
    if retry is None:
        retry = RetryPolicy()
    if faults is not None and not faults.active:
        faults = None

    grid = [
        (policy_name, rep)
        for policy_name in config.policies
        for rep in range(config.repetitions)
    ]
    done: Dict[Tuple[str, int], SimulationResult] = {}
    checkpoint = None
    if checkpoint_path is not None:
        checkpoint = ExperimentCheckpoint.open(
            checkpoint_path, config, resume=resume
        )
        for cell in grid:
            stored = checkpoint.result_for(*cell)
            if stored is not None:
                done[cell] = stored

    pending = [cell for cell in grid if cell not in done]
    failures: List[CellFailure] = []
    if pending:
        # Build the score tables once in the parent before any cell runs:
        # pool children inherit the in-memory cache (and with a disk
        # cache directory even spawn-started workers load the graphs
        # instead of rebuilding them).
        needs_tables = any(
            name.startswith("PageRankVM") for name in config.policies
        )
        if needs_tables and workers > 1 and len(pending) > 1:
            _score_tables(config, table_cache_dir)
        if workers == 1 or len(pending) == 1:
            # Each repetition's workload is drawn once for all its cells.
            with sharing_draws(config, [rep for _, rep in pending]):
                ran, failures = _run_cells_serial(
                    config, pending, table_cache_dir, audit, faults, retry,
                    checkpoint,
                )
        else:
            ran, failures = _run_cells_parallel(
                config, pending, table_cache_dir, audit, faults, retry,
                checkpoint, workers,
            )
        done.update(ran)

    results = ExperimentResults(config=config)
    for policy_name in config.policies:
        results.runs[policy_name] = [
            done[(policy_name, rep)]
            for rep in range(config.repetitions)
            if (policy_name, rep) in done
        ]
    results.failed_cells = sorted(
        failures, key=lambda f: (f.policy, f.repetition)
    )
    return results
