"""Tests for score-table caching."""

from unittest.mock import patch

import pytest

from repro.core import graph_cache
from repro.core.graph import SuccessorStrategy
from repro.core.graph_cache import cache_events, clear_cache_events
from repro.experiments.tables import (
    build_counts,
    clear_memory_cache,
    score_tables_for,
    table_cache_key,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_memory_cache()
    yield
    clear_memory_cache()


def _cache_files(directory):
    return sorted(path.name for path in directory.iterdir())


def _graph_files(directory):
    return sorted(path.name for path in directory.glob("profile_graph_*.npz"))


class TestCacheKey:
    def test_stable(self, toy_shape, toy_vm_types):
        a = table_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        b = table_cache_key(
            toy_shape, toy_vm_types, SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"damping": 0.5},
            {"vote_direction": "reverse"},
            {"strategy": SuccessorStrategy.ALL_PLACEMENTS},
            {"scoring": "expected-utilization"},
        ],
    )
    def test_parameters_change_key(self, toy_shape, toy_vm_types, kwargs):
        base = dict(
            strategy=SuccessorStrategy.BALANCED,
            damping=0.85,
            vote_direction="forward",
            scoring="pagerank",
        )
        changed = {**base, **kwargs}
        assert table_cache_key(toy_shape, toy_vm_types, **base) != table_cache_key(
            toy_shape, toy_vm_types, **changed
        )

    def test_vm_order_changes_key(self, toy_shape, vm2, vm4):
        # Declaration order fixes node ids and the sweep's summation
        # order, so the two orders may differ bitwise and must not share
        # a cache entry.
        a = table_cache_key(
            toy_shape, (vm2, vm4), SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        b = table_cache_key(
            toy_shape, (vm4, vm2), SuccessorStrategy.BALANCED, 0.85, "forward"
        )
        assert a != b


class TestScoreTablesFor:
    def test_builds_one_table_per_distinct_shape(self, toy_shape, toy_vm_types):
        tables = score_tables_for([toy_shape, toy_shape], toy_vm_types)
        assert len(tables) == 1
        assert toy_shape in tables

    def test_memory_cache_reuses_instance(self, toy_shape, toy_vm_types):
        first = score_tables_for([toy_shape], toy_vm_types)[toy_shape]
        second = score_tables_for([toy_shape], toy_vm_types)[toy_shape]
        assert first is second

    def test_vm_order_gets_its_own_table(self, toy_shape, vm2, vm4):
        first = score_tables_for([toy_shape], (vm2, vm4))[toy_shape]
        second = score_tables_for([toy_shape], (vm4, vm2))[toy_shape]
        assert second is not first
        assert sorted(build_counts().values()) == [1, 1]

    def test_disk_cache_roundtrip(
        self, toy_shape, toy_vm_types, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
        first = score_tables_for([toy_shape], toy_vm_types)[toy_shape]
        assert _cache_files(tmp_path) == _graph_files(tmp_path)
        assert len(_graph_files(tmp_path)) == 1
        clear_memory_cache()
        second = score_tables_for([toy_shape], toy_vm_types)[toy_shape]
        assert second is not first
        assert list(second.items()) == list(first.items())

    def test_env_var_cache_dir(self, toy_shape, toy_vm_types, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
        score_tables_for([toy_shape], toy_vm_types)
        assert _cache_files(tmp_path) == _graph_files(tmp_path)
        assert len(_graph_files(tmp_path)) == 1


class TestRoadsToTheCache:
    """Every road to a score table keeps its graph under the variable."""

    @pytest.mark.parametrize("road", [
        "sweep_table", "make_policy_and_selector", "make_testbed_policy",
        "build_score_table",
    ])
    def test_road_fills_then_reads_the_cache(
        self, road, toy_shape, toy_vm_types, tmp_path, monkeypatch
    ):
        from repro.core.score_table import build_score_table
        from repro.experiments import figures, runner, sweep
        from repro.experiments.config import ExperimentConfig
        from repro.testbed import experiment as testbed

        build = {
            "sweep_table": sweep.sweep_table,
            "make_policy_and_selector": lambda: runner.make_policy_and_selector(
                "PageRankVM", ExperimentConfig(datacenter=(("C3", 2),))
            ),
            "make_testbed_policy": lambda: figures.make_testbed_policy(
                "PageRankVM", testbed.TestbedConfig()
            ),
            "build_score_table": lambda: build_score_table(
                toy_shape, toy_vm_types
            ),
        }[road]
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
        build()
        assert _cache_files(tmp_path) == _graph_files(tmp_path)
        assert len(_graph_files(tmp_path)) == 1
        clear_memory_cache()
        clear_cache_events()
        build()
        assert cache_events() == {"hits": 1, "misses": 0, "corrupt": 0}


class TestBuildCounts:
    def test_each_table_built_exactly_once(self, toy_shape, toy_vm_types):
        for _ in range(3):
            score_tables_for([toy_shape, toy_shape], toy_vm_types)
        assert list(build_counts().values()) == [1]

    def test_distinct_parameters_build_distinct_tables(
        self, toy_shape, toy_vm_types
    ):
        score_tables_for([toy_shape], toy_vm_types, vote_direction="forward")
        score_tables_for([toy_shape], toy_vm_types, vote_direction="reverse")
        assert sorted(build_counts().values()) == [1, 1]

    def test_disk_load_is_not_a_build(
        self, toy_shape, toy_vm_types, tmp_path, monkeypatch
    ):
        # A warm disk cache re-solves the table but never rebuilds the
        # expensive part, the profile graph.
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
        score_tables_for([toy_shape], toy_vm_types)
        clear_memory_cache()
        clear_cache_events()
        with patch.object(
            graph_cache, "build_profile_graph",
            side_effect=AssertionError("warm cache rebuilt a graph"),
        ):
            score_tables_for([toy_shape], toy_vm_types)
        assert cache_events()["hits"] == 1
        assert cache_events()["misses"] == 0
