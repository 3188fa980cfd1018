"""Tests for the experiment runner (small-scale end to end)."""

import pytest

from repro.cluster.simulation import SimulationConfig
from repro.experiments.config import ExperimentConfig, WorkloadSpec
from repro.experiments.runner import (
    ExperimentResults,
    make_policy_and_selector,
    run_experiment,
    run_single,
)
from repro.util.validation import ValidationError


def small_config(**kwargs):
    defaults = dict(
        n_vms=30,
        datacenter=(("M3", 20), ("C3", 5)),
        workload=WorkloadSpec(trace="planetlab"),
        policies=("FF", "FFDSum"),
        repetitions=2,
        sim=SimulationConfig(duration_s=1800.0, monitor_interval_s=300.0),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestPolicyFactory:
    @pytest.mark.parametrize(
        "name", ["FF", "FFDSum", "CompVM", "BestFit"]
    )
    def test_baselines_pair_with_mmt(self, name):
        policy, selector = make_policy_and_selector(name, small_config())
        assert policy.name in (name, name.replace("-", ""))
        assert selector.name == "mmt"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            make_policy_and_selector("Oracle", small_config())

    @pytest.mark.slow
    def test_pagerankvm_pairs_with_pagerank_selector(self):
        policy, selector = make_policy_and_selector("PageRankVM", small_config())
        assert policy.name == "PageRankVM"
        assert selector.name == "pagerank"


class TestRunSingle:
    def test_produces_result(self):
        result = run_single(small_config(), "FF", repetition=0)
        assert result.policy_name == "FF"
        assert result.n_vms == 30
        assert result.pms_used_initial >= 1

    def test_deterministic(self):
        a = run_single(small_config(), "FF", 0)
        b = run_single(small_config(), "FF", 0)
        assert a.pms_used_initial == b.pms_used_initial
        assert a.migrations == b.migrations
        assert a.energy_kwh == pytest.approx(b.energy_kwh)

    def test_repetitions_differ(self):
        a = run_single(small_config(), "FF", 0)
        b = run_single(small_config(), "FF", 1)
        differs = (
            a.pms_used_initial != b.pms_used_initial
            or a.migrations != b.migrations
            or a.energy_kwh != b.energy_kwh
        )
        assert differs


class TestRunExperiment:
    def test_full_grid(self):
        results = run_experiment(small_config())
        assert set(results.runs) == {"FF", "FFDSum"}
        assert all(len(runs) == 2 for runs in results.runs.values())

    def test_summaries(self):
        results = run_experiment(small_config())
        summary = results.summarize("pms_used")
        assert set(summary) == {"FF", "FFDSum"}
        for stats in summary.values():
            assert stats.n == 2
            assert stats.p01 <= stats.median <= stats.p99

    def test_metric_aliases(self):
        results = run_experiment(small_config())
        values = results.metric_values("FF", "slo_violations")
        assert len(values) == 2
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_ordering_sorted_by_median(self):
        results = run_experiment(small_config())
        ordering = results.ordering("pms_used")
        medians = [results.summarize("pms_used")[p].median for p in ordering]
        assert medians == sorted(medians)


class TestParallelExecution:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_invalid_worker_count_rejected(self, workers):
        with pytest.raises(ValidationError):
            run_experiment(small_config(), workers=workers)

    def test_parallel_is_bit_identical_to_serial(self):
        config = small_config()
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=4)
        assert set(parallel.runs) == set(serial.runs)
        for policy in serial.runs:
            for metric in (
                "pms_used", "energy_kwh", "migrations", "slo_violations"
            ):
                assert parallel.metric_values(policy, metric) == (
                    serial.metric_values(policy, metric)
                ), f"{policy}/{metric} diverged between workers=4 and workers=1"

    def test_single_cell_grid_runs_in_process(self):
        # A 1-cell grid short-circuits the pool even with workers > 1.
        config = small_config(policies=("FF",), repetitions=1)
        results = run_experiment(config, workers=8)
        assert len(results.runs["FF"]) == 1


class TestAuditHook:
    """The opt-in constraint audit on every (policy, repetition) cell."""

    def test_audited_run_matches_unaudited(self):
        plain = run_single(small_config(), "FF", 0)
        audited = run_single(small_config(), "FF", 0, audit=True)
        assert audited == plain  # auditing must not perturb the run

    def test_audited_experiment_passes(self):
        config = small_config(policies=("FF",), repetitions=1)
        results = run_experiment(config, audit=True)
        assert len(results.runs["FF"]) == 1

    def test_audit_failure_raises_before_merge(self, monkeypatch):
        from repro.analysis.invariants import AuditError
        from repro.cluster.simulation import CloudSimulation

        original = CloudSimulation.run

        def corrupting_run(self, vms):
            result = original(self, vms)
            # Break conservation: a phantom unit in PM 0's usage column.
            self._dc.columns.usage[0, 0] += 1
            self._dc._usage_cache[0] = None
            return result

        monkeypatch.setattr(CloudSimulation, "run", corrupting_run)
        # Without the audit the corruption sails through...
        run_single(small_config(), "FF", 0)
        # ...with it, the worker rejects the cell, naming the constraint.
        with pytest.raises(AuditError) as excinfo:
            run_single(small_config(), "FF", 0, audit=True)
        assert "C2" in excinfo.value.report.constraint_ids()


class TestRetryBackoffJitter:
    """PRV012-clean seeded jitter: keyed RngFactory streams, no escapes."""

    def policy(self, **kwargs):
        from repro.experiments.runner import RetryPolicy

        return RetryPolicy(**kwargs)

    def test_no_factory_means_exact_exponential(self):
        retry = self.policy(backoff_base_s=0.1, backoff_factor=2.0)
        assert retry.backoff_s(1) == pytest.approx(0.1)
        assert retry.backoff_s(2) == pytest.approx(0.2)
        assert retry.backoff_s(3) == pytest.approx(0.4)

    def test_zero_jitter_means_exact_exponential(self):
        from repro.util.rng import RngFactory

        retry = self.policy(jitter=0.0)
        rngs = RngFactory(0).spawn("retry")
        assert retry.backoff_s(2, rngs, "FF", 0) == pytest.approx(0.2)

    def test_jitter_is_deterministic_per_labels_and_attempt(self):
        from repro.util.rng import RngFactory

        retry = self.policy()
        a = retry.backoff_s(2, RngFactory(7).spawn("retry"), "FF", 3)
        b = retry.backoff_s(2, RngFactory(7).spawn("retry"), "FF", 3)
        assert a == b

    def test_different_labels_decorrelate(self):
        from repro.util.rng import RngFactory

        retry = self.policy()
        rngs = RngFactory(7).spawn("retry")
        by_cell = retry.backoff_s(2, rngs, "FF", 0)
        other_cell = retry.backoff_s(2, rngs, "FF", 1)
        other_attempt = retry.backoff_s(3, rngs, "FF", 0)
        assert by_cell != other_cell
        assert other_attempt != by_cell * 2  # not just the scaled base

    def test_jitter_stays_within_documented_band(self):
        from repro.util.rng import RngFactory

        retry = self.policy(jitter=0.25)
        rngs = RngFactory(11).spawn("retry")
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            for rep in range(20):
                delay = retry.backoff_s(attempt, rngs, "cell", rep)
                assert 0.75 * base <= delay <= base

    def test_draw_order_independence(self):
        # The keyed stream makes each (labels, attempt) draw standalone:
        # interleaving other cells' draws cannot shift this cell's delay.
        from repro.util.rng import RngFactory

        retry = self.policy()
        alone = retry.backoff_s(2, RngFactory(3).spawn("retry"), "A", 0)
        rngs = RngFactory(3).spawn("retry")
        retry.backoff_s(1, rngs, "B", 4)
        retry.backoff_s(2, rngs, "C", 1)
        interleaved = retry.backoff_s(2, rngs, "A", 0)
        assert alone == interleaved

    def test_jitter_validation(self):
        with pytest.raises(ValidationError):
            self.policy(jitter=1.5)
        with pytest.raises(ValidationError):
            self.policy(jitter=-0.1)
