"""Exact DAG-sweep kernel: residual contract and version stamping.

The kernel's documented agreement measure with the iterative solver is
a fixed-point residual in ulps (see :mod:`repro.core.kernel_sweep`);
these tests pin that contract across the damping range and both vote
directions, and the :data:`KERNEL_CODE_VERSION` stamp in every
rank-derived cache key.
"""

import numpy as np
import pytest

from repro.core import kernel_sweep
from repro.core.graph import SuccessorStrategy, build_profile_graph
from repro.core.graph_cache import (
    cache_events,
    clear_cache_events,
    graph_cache_key,
    load_or_build_profile_graph,
)
from repro.core.kernel_sweep import (
    KERNEL_CODE_VERSION,
    SWEEP_MAX_ULPS,
    sweep_profile_pagerank,
    sweep_residual_ulps,
    ulp_distance,
)
from repro.core.pagerank import profile_pagerank
from repro.core.score_table import ScoreTable, build_score_table
from repro.experiments.tables import table_cache_key
from repro.util.validation import ValidationError


class TestUlpDistance:
    def test_identical_arrays_are_zero(self):
        values = np.array([0.0, 1.0, -2.5, 1e300])
        assert ulp_distance(values, values.copy()).max() == 0

    def test_signed_zeros_coincide(self):
        assert ulp_distance(np.array([0.0]), np.array([-0.0]))[0] == 0

    def test_nextafter_is_one_ulp(self):
        a = np.array([1.0, -3.5, 1e-300])
        b = np.nextafter(a, np.inf)
        np.testing.assert_array_equal(ulp_distance(a, b), [1, 1, 1])

    def test_distance_spans_the_sign_change(self):
        tiny_pos = np.array([np.nextafter(0.0, 1.0)])
        tiny_neg = np.array([np.nextafter(0.0, -1.0)])
        assert ulp_distance(tiny_pos, tiny_neg)[0] == 2


class TestSweepMatchesIterative:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("damping", [0.05, 0.3, 0.85, 0.99])
    def test_residual_within_documented_bound(
        self, toy_graph, damping, direction
    ):
        result = sweep_profile_pagerank(
            toy_graph, damping=damping, vote_direction=direction
        )
        assert result.converged
        assert abs(float(result.raw.sum()) - 1.0) < 1e-12
        residual = sweep_residual_ulps(result, damping, direction)
        assert residual <= SWEEP_MAX_ULPS

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_top_profile_agrees_with_iterative(self, toy_graph, direction):
        sweep = sweep_profile_pagerank(toy_graph, vote_direction=direction)
        iterative = profile_pagerank(toy_graph, vote_direction=direction)
        assert int(sweep.raw.argmax()) == int(iterative.raw.argmax())
        assert int(sweep.scores.argmax()) == int(iterative.scores.argmax())

    def test_damping_zero_is_exactly_uniform(self, toy_graph):
        result = sweep_profile_pagerank(toy_graph, damping=0.0)
        uniform = np.full(toy_graph.n_nodes, 1.0 / toy_graph.n_nodes)
        np.testing.assert_array_equal(result.raw, uniform)

    def test_damping_one_is_the_iterative_zero_vector(self, toy_graph):
        result = sweep_profile_pagerank(toy_graph, damping=1.0)
        assert not result.raw.any()
        assert not result.scores.any()
        assert result.converged
        # The iterative kernel's own fixed point at d=1 is also zero.
        iterative = profile_pagerank(toy_graph, damping=1.0)
        np.testing.assert_array_equal(result.raw, iterative.raw)

    def test_verify_asserts_the_contract(self, toy_graph):
        sweep_profile_pagerank(toy_graph, damping=0.85, verify=True)

    def test_bad_damping_rejected(self, toy_graph):
        with pytest.raises(ValidationError):
            sweep_profile_pagerank(toy_graph, damping=1.5)


class TestKernelVersionStamping:
    """Satellite: the kernel generation invalidates every derived key."""

    def _bump(self, monkeypatch):
        monkeypatch.setattr(
            kernel_sweep, "KERNEL_CODE_VERSION", KERNEL_CODE_VERSION + 1
        )

    def test_graph_cache_key_changes(
        self, toy_shape, toy_vm_types, monkeypatch
    ):
        before = graph_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED
        )
        self._bump(monkeypatch)
        after = graph_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED
        )
        assert before != after

    def test_experiment_table_cache_key_changes(
        self, toy_shape, toy_vm_types, monkeypatch
    ):
        before = table_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED, 0.85,
            "forward",
        )
        self._bump(monkeypatch)
        after = table_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED, 0.85,
            "forward",
        )
        assert before != after

    def test_bump_forces_graph_rebuild(
        self, toy_shape, toy_vm_types, tmp_path, monkeypatch
    ):
        clear_cache_events()
        load_or_build_profile_graph(
            toy_shape, toy_vm_types, cache_dir=tmp_path
        )
        load_or_build_profile_graph(
            toy_shape, toy_vm_types, cache_dir=tmp_path
        )
        assert cache_events() == {"hits": 1, "misses": 1, "corrupt": 0}
        self._bump(monkeypatch)
        load_or_build_profile_graph(
            toy_shape, toy_vm_types, cache_dir=tmp_path
        )
        assert cache_events()["misses"] == 2
        clear_cache_events()

    def test_sweep_tables_agree_with_iterative_build(
        self, toy_shape, toy_vm_types
    ):
        # The build path runs the sweep kernel; a table built from the
        # iterative kernel must produce snap-identical decisions (same
        # profiles, scores within the documented residual).
        sweep = build_score_table(toy_shape, toy_vm_types)
        graph = build_profile_graph(toy_shape, toy_vm_types)
        iterative = ScoreTable(
            toy_shape,
            dict(zip(graph.profiles, profile_pagerank(graph).scores.tolist())),
        )
        sweep_map = dict(sweep.items())
        iterative_map = dict(iterative.items())
        assert sweep_map.keys() == iterative_map.keys()
        for usage, score in sweep_map.items():
            assert score == pytest.approx(iterative_map[usage], rel=1e-9)
