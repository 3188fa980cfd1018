"""Exact DAG-sweep kernel: residual contract, deltas, version stamping.

The kernel's documented agreement measure with the iterative solver is
a fixed-point residual in ulps (see :mod:`repro.core.kernel_sweep`);
these tests pin that contract across the damping range and both vote
directions, the closed-form theta recovery, the invalidation-cone
delta re-solve against cold sweeps, the incremental graph extension
against cold rebuilds, and the :data:`KERNEL_CODE_VERSION` stamp in
every rank-derived cache key.
"""

import numpy as np
import pytest

from repro.core import graph as graph_module
from repro.core import kernel_sweep
from repro.core.graph import (
    SuccessorStrategy,
    build_profile_graph,
    extend_profile_graph,
)
from repro.core.graph_cache import (
    cache_events,
    clear_cache_events,
    graph_cache_key,
    load_or_build_profile_graph,
)
from repro.core.kernel_sweep import (
    KERNEL_CODE_VERSION,
    SWEEP_MAX_ULPS,
    invalidation_cone,
    recovered_theta,
    resweep_delta,
    sweep_profile_pagerank,
    sweep_residual_ulps,
    ulp_distance,
)
from repro.core.pagerank import profile_pagerank
from repro.core.score_table import ScoreTable, build_score_table
from repro.experiments.tables import table_cache_key
from repro.util.validation import ValidationError


@pytest.fixture(scope="module")
def balanced_base(toy_shape, toy_vm_types):
    """Reachable BALANCED graph of the paper's toy world (9 nodes)."""
    return build_profile_graph(
        toy_shape, toy_vm_types, strategy=SuccessorStrategy.BALANCED
    )


@pytest.fixture(scope="module")
def grown_world(balanced_base, vm1):
    """The base grown by the Section V.A [1] VM, with its delta."""
    grown, delta = extend_profile_graph(balanced_base, (vm1,))
    return balanced_base, grown, delta


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


class TestRecoveredTheta:
    @pytest.mark.parametrize("damping", [0.3, 0.85, 0.99])
    def test_recovered_theta_reproduces_the_solve(self, toy_graph, damping):
        # Re-sweeping a fresh buffer at the recovered theta must land on
        # the solver's own vector: theta fully determines the resolvent.
        result = sweep_profile_pagerank(toy_graph, damping=damping)
        theta = recovered_theta(result, damping)
        assert damping <= theta <= damping / (1.0 - damping)
        schedule = kernel_sweep._sweep_schedule(toy_graph, "forward")
        x = np.ones(toy_graph.n_nodes)
        kernel_sweep._sweep(x, schedule, theta)
        replayed = x / float(x.sum())
        assert int(ulp_distance(replayed, result.raw).max()) <= 4

    def test_undefined_at_damping_one(self, toy_graph):
        result = sweep_profile_pagerank(toy_graph, damping=0.85)
        with pytest.raises(ValidationError):
            recovered_theta(result, 1.0)


class TestInvalidationCone:
    def test_cone_covers_seeds(self, grown_world):
        _, grown, delta = grown_world
        cone = invalidation_cone(grown, delta)
        assert cone[list(delta.new_nodes)].all()
        assert cone[list(delta.changed_sources)].all()

    def test_cone_is_closed_under_transition_edges(self, grown_world):
        _, grown, delta = grown_world
        cone = invalidation_cone(grown, delta)
        for src, successors in enumerate(grown.successors):
            if cone[src]:
                for dst in successors:
                    assert cone[dst]

    def test_reverse_cone_closed_under_reversed_edges(self, grown_world):
        _, grown, delta = grown_world
        cone = invalidation_cone(grown, delta, vote_direction="reverse")
        for src, successors in enumerate(grown.successors):
            for dst in successors:
                if cone[dst]:
                    assert cone[src]


class TestResweepDelta:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("damping", [0.3, 0.85, 0.99])
    def test_matches_cold_sweep(self, grown_world, damping, direction):
        base, grown, delta = grown_world
        old = sweep_profile_pagerank(
            base, damping=damping, vote_direction=direction
        )
        warm = resweep_delta(
            grown, old, delta, damping=damping, vote_direction=direction
        )
        cold = sweep_profile_pagerank(
            grown, damping=damping, vote_direction=direction
        )
        assert int(ulp_distance(warm.raw, cold.raw).max()) <= SWEEP_MAX_ULPS
        residual = sweep_residual_ulps(warm, damping, direction)
        assert residual <= SWEEP_MAX_ULPS

    def test_degenerate_dampings_pin_the_closed_forms(self, grown_world):
        base, grown, delta = grown_world
        old = sweep_profile_pagerank(base, damping=0.85)
        at_zero = resweep_delta(grown, old, delta, damping=0.0)
        np.testing.assert_array_equal(
            at_zero.raw, np.full(grown.n_nodes, 1.0 / grown.n_nodes)
        )
        at_one = resweep_delta(grown, old, delta, damping=1.0)
        assert not at_one.raw.any()

    def test_mismatched_delta_rejected(self, grown_world):
        _, grown, delta = grown_world
        grown_result = sweep_profile_pagerank(grown)
        with pytest.raises(ValidationError):
            resweep_delta(grown, grown_result, delta)


class TestExtendProfileGraph:
    def test_base_ids_preserved_and_new_appended(self, grown_world):
        base, grown, delta = grown_world
        assert delta.base_nodes == base.n_nodes
        assert grown.profiles[: base.n_nodes] == base.profiles
        assert delta.new_nodes == tuple(range(base.n_nodes, grown.n_nodes))

    def test_node_set_matches_cold_rebuild(
        self, grown_world, toy_shape, toy_vm_types, vm1
    ):
        _, grown, _ = grown_world
        cold = build_profile_graph(
            toy_shape,
            toy_vm_types + (vm1,),
            strategy=SuccessorStrategy.BALANCED,
        )
        assert set(grown.profiles) == set(cold.profiles)
        assert grown.n_nodes == cold.n_nodes

    def test_edge_set_matches_cold_rebuild(
        self, grown_world, toy_shape, toy_vm_types, vm1
    ):
        _, grown, _ = grown_world
        cold = build_profile_graph(
            toy_shape,
            toy_vm_types + (vm1,),
            strategy=SuccessorStrategy.BALANCED,
        )

        def edge_profiles(graph):
            return {
                (graph.profiles[src], graph.profiles[dst])
                for src, successors in enumerate(graph.successors)
                for dst in successors
            }

        assert edge_profiles(grown) == edge_profiles(cold)

    def test_changed_sources_really_changed(self, grown_world):
        base, grown, delta = grown_world
        for node in delta.changed_sources:
            assert set(grown.successors[node]) > set(base.successors[node])
        unchanged = set(range(base.n_nodes)) - set(delta.changed_sources)
        for node in unchanged:
            assert grown.successors[node] == base.successors[node]

    def test_vectorized_scan_agrees_with_engine_path(
        self, balanced_base, vm1, monkeypatch
    ):
        fast, fast_delta = extend_profile_graph(balanced_base, (vm1,))
        # Forcing the scan to decline routes pass 1 through the exact
        # successor engine; the grown graphs must be identical.
        monkeypatch.setattr(
            graph_module, "_balanced_extension_scan", lambda g, vm: None
        )
        slow, slow_delta = extend_profile_graph(balanced_base, (vm1,))
        assert fast.profiles == slow.profiles
        assert fast.successors == slow.successors
        assert fast_delta == slow_delta

    def test_flat_profile_memo_is_seeded(self, grown_world):
        base, grown, _ = grown_world
        flat = grown.flat_profiles()
        np.testing.assert_array_equal(
            flat[: base.n_nodes], base.flat_profiles()
        )
        rebuilt = np.array(
            [[u for group in usage for u in group] for usage in grown.profiles]
        )
        np.testing.assert_array_equal(flat, rebuilt)
        np.testing.assert_array_equal(
            grown.total_units_array(), rebuilt.sum(axis=1)
        )

    def test_duplicate_type_rejected(self, balanced_base, vm2):
        with pytest.raises(ValidationError):
            extend_profile_graph(balanced_base, (vm2,))


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
