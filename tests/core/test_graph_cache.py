"""Tests for repro.core.graph_cache: hit, miss and corruption paths."""

import hashlib

import numpy as np
import pytest

from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape

from repro.core.graph import (
    GraphLimitExceeded,
    SuccessorStrategy,
    build_profile_graph,
)
from repro.core.graph_cache import (
    BUILDER_CODE_VERSION,
    cache_events,
    clear_cache_events,
    graph_cache_key,
    graph_cache_path,
    load_graph,
    load_or_build_profile_graph,
    save_graph,
)
from repro.core.profile import MachineShape, ResourceGroup, VMType


def toy_shape() -> MachineShape:
    return MachineShape(
        groups=(
            ResourceGroup(name="cpu", capacities=(4, 4), anti_collocation=True),
            ResourceGroup(name="mem", capacities=(6,), anti_collocation=False),
        )
    )


def toy_vms():
    return (
        VMType(name="a", demands=((1, 1), (2,))),
        VMType(name="b", demands=((2, 0), (1,))),
    )


@pytest.fixture(autouse=True)
def _reset_events():
    clear_cache_events()
    yield
    clear_cache_events()


def assert_graphs_equal(left, right):
    assert left.profiles == right.profiles
    for got, want in zip(
        (left.flat, left.indptr, left.indices),
        (right.flat, right.indptr, right.indices),
    ):
        np.testing.assert_array_equal(got, want)
    assert left.shape == right.shape
    assert left.vm_types == right.vm_types
    assert left.strategy == right.strategy


class TestCacheKey:
    def test_key_is_stable(self):
        key1 = graph_cache_key(
            toy_shape(), toy_vms(), SuccessorStrategy.BALANCED
        )
        key2 = graph_cache_key(
            toy_shape(), toy_vms(), SuccessorStrategy.BALANCED
        )
        assert key1 == key2

    def test_key_depends_on_vm_order(self):
        # VM declaration order drives BFS discovery order and node ids,
        # so reordering the catalog must be a different cache entry.
        vms = toy_vms()
        key_fwd = graph_cache_key(toy_shape(), vms, SuccessorStrategy.BALANCED)
        key_rev = graph_cache_key(
            toy_shape(), tuple(reversed(vms)), SuccessorStrategy.BALANCED
        )
        assert key_fwd != key_rev

    def test_key_depends_on_strategy_and_mode(self):
        base = graph_cache_key(toy_shape(), toy_vms(), SuccessorStrategy.BALANCED)
        assert base != graph_cache_key(
            toy_shape(), toy_vms(), SuccessorStrategy.ALL_PLACEMENTS
        )
        assert base != graph_cache_key(
            toy_shape(), toy_vms(), SuccessorStrategy.BALANCED, mode="full"
        )


class TestRoundTrip:
    def test_save_then_load_is_identical(self, tmp_path):
        graph = build_profile_graph(toy_shape(), toy_vms())
        path = tmp_path / "graph.npz"
        save_graph(graph, path, "reachable")
        loaded = load_graph(path, toy_shape(), toy_vms(),
                            SuccessorStrategy.ALL_PLACEMENTS)
        assert loaded is not None
        assert_graphs_equal(loaded, graph)
        assert cache_events()["hits"] == 1

    def test_loaded_derived_arrays_match(self, tmp_path):
        graph = build_profile_graph(toy_shape(), toy_vms())
        path = tmp_path / "graph.npz"
        save_graph(graph, path, "reachable")
        loaded = load_graph(path, toy_shape(), toy_vms(),
                            SuccessorStrategy.ALL_PLACEMENTS)
        np.testing.assert_array_equal(
            loaded.packed_profiles(), graph.packed_profiles()
        )
        np.testing.assert_array_equal(loaded.indptr, graph.indptr)
        np.testing.assert_array_equal(loaded.indices, graph.indices)

    def test_load_or_build_miss_then_hit(self, tmp_path):
        g1 = load_or_build_profile_graph(
            toy_shape(), toy_vms(), cache_dir=tmp_path
        )
        assert cache_events() == {"hits": 0, "misses": 1, "corrupt": 0}
        g2 = load_or_build_profile_graph(
            toy_shape(), toy_vms(), cache_dir=tmp_path
        )
        assert cache_events()["hits"] == 1
        assert_graphs_equal(g1, g2)

    def test_no_cache_dir_just_builds(self):
        graph = load_or_build_profile_graph(toy_shape(), toy_vms())
        assert graph.n_nodes > 0
        assert cache_events() == {"hits": 0, "misses": 0, "corrupt": 0}

    def test_group_too_wide_for_a_radix_key_round_trips(self, tmp_path):
        # 101**20 overflows an int64 key: the group decodes row by row.
        shape = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(100,) * 20),)
        )
        vms = (VMType(name="whole", demands=((100,),)),)
        graph = build_profile_graph(shape, vms)
        path = tmp_path / "graph.npz"
        save_graph(graph, path, "reachable")
        loaded = load_graph(
            path, shape, vms, SuccessorStrategy.ALL_PLACEMENTS
        )
        assert graph.n_nodes == 21
        assert_graphs_equal(loaded, graph)


@pytest.fixture(scope="module")
def m3_cold_and_reloaded(tmp_path_factory):
    """The M3 BALANCED graph, built cold and reloaded from its archive."""
    shape, strategy = ec2_pm_shape("M3"), SuccessorStrategy.BALANCED
    cold = build_profile_graph(shape, EC2_VM_TYPES, strategy=strategy)
    path = tmp_path_factory.mktemp("m3") / "graph.npz"
    save_graph(cold, path, "reachable")
    return {"cold": cold, "reload": load_graph(path, shape, EC2_VM_TYPES, strategy)}


class TestArrays:
    """A build and a cache reload hand out the same read-only arrays."""

    @pytest.mark.parametrize("source", ["cold", "reload"])
    def test_arrays_are_read_only(self, m3_cold_and_reloaded, source):
        graph = m3_cold_and_reloaded[source]
        for array in (graph.flat, graph.indptr, graph.indices):
            assert array.dtype == np.int64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1

    def test_reload_profiles_are_python_ints(self, m3_cold_and_reloaded):
        cold = m3_cold_and_reloaded["cold"].profiles
        warm = m3_cold_and_reloaded["reload"].profiles
        assert warm == cold
        assert {
            type(unit) for usage in warm for group in usage for unit in group
        } == {int}

    def test_reload_flat_bit_identical(self, m3_cold_and_reloaded):
        cold = m3_cold_and_reloaded["cold"].flat
        warm = m3_cold_and_reloaded["reload"].flat
        assert warm.dtype == cold.dtype and warm.shape == cold.shape
        assert warm.tobytes() == cold.tobytes()


class TestMissAndCorruption:
    def test_missing_file_is_a_miss(self, tmp_path):
        result = load_graph(
            tmp_path / "absent.npz", toy_shape(), toy_vms(),
            SuccessorStrategy.BALANCED,
        )
        assert result is None
        assert cache_events() == {"hits": 0, "misses": 1, "corrupt": 0}

    def test_key_mismatch_is_a_clean_miss(self, tmp_path):
        graph = build_profile_graph(toy_shape(), toy_vms())
        path = tmp_path / "graph.npz"
        save_graph(graph, path, "reachable")
        # Same file, different VM order: a different content key.
        result = load_graph(
            path, toy_shape(), tuple(reversed(toy_vms())),
            SuccessorStrategy.ALL_PLACEMENTS,
        )
        assert result is None
        assert cache_events() == {"hits": 0, "misses": 1, "corrupt": 0}

    def test_truncated_archive_counts_corrupt_and_rebuilds(self, tmp_path):
        graph = build_profile_graph(toy_shape(), toy_vms())
        key = graph_cache_key(
            toy_shape(), toy_vms(), SuccessorStrategy.ALL_PLACEMENTS
        )
        path = graph_cache_path(tmp_path, key)
        save_graph(graph, path, "reachable")
        path.write_bytes(path.read_bytes()[: 40])
        rebuilt = load_or_build_profile_graph(
            toy_shape(), toy_vms(), cache_dir=tmp_path
        )
        assert cache_events() == {"hits": 0, "misses": 1, "corrupt": 1}
        assert_graphs_equal(rebuilt, graph)
        # The rebuild rewrote the entry; the next load is a hit again.
        again = load_or_build_profile_graph(
            toy_shape(), toy_vms(), cache_dir=tmp_path
        )
        assert cache_events()["hits"] == 1
        assert_graphs_equal(again, graph)

    def test_garbage_file_is_corrupt(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        result = load_graph(
            path, toy_shape(), toy_vms(), SuccessorStrategy.ALL_PLACEMENTS
        )
        assert result is None
        assert cache_events()["corrupt"] == 1

    def test_cached_graph_respects_node_limit(self, tmp_path):
        graph = build_profile_graph(toy_shape(), toy_vms())
        path = tmp_path / "graph.npz"
        save_graph(graph, path, "reachable")
        with pytest.raises(GraphLimitExceeded):
            load_graph(
                path, toy_shape(), toy_vms(),
                SuccessorStrategy.ALL_PLACEMENTS,
                node_limit=graph.n_nodes - 1,
            )


def cached_bytes_digest(graph):
    """SHA-256 of what a cache entry stores: profiles, then the CSR."""
    digest = hashlib.sha256()
    packed = graph.packed_profiles()
    digest.update(packed.dtype.str.encode())
    digest.update(np.ascontiguousarray(packed).tobytes())
    for array in (graph.indptr, graph.indices):
        digest.update(array.astype("<i8").tobytes())
    return digest.hexdigest()


class TestPinnedGraphBytes:
    """Node ids fix the score tables' bits, and cached entries outlive
    the process that wrote them: a builder change that renumbers nodes
    must bump BUILDER_CODE_VERSION and re-pin these digests."""

    @pytest.mark.parametrize("pm, digest", [
        ("M3", "72ea1c4032d746cd59cef376d13b381758f94742d1672bb2167a911e9751f4b1"),
        ("C3", "82aff24353801de70170f46e360424fae0db64ad2dfe3d462ac492ac753822ee"),
    ])
    def test_ec2_balanced_graph_bytes(self, pm, digest):
        assert BUILDER_CODE_VERSION == 2
        graph = build_profile_graph(
            ec2_pm_shape(pm), EC2_VM_TYPES, strategy=SuccessorStrategy.BALANCED
        )
        assert cached_bytes_digest(graph) == digest
