"""Tests for the Profile-PageRank score table."""

import pytest

from repro.core.graph import SuccessorStrategy
from repro.core.profile import MachineShape, ResourceGroup
from repro.core.score_table import ScoreTable, build_score_table
from repro.util.validation import ValidationError


class TestLookup:
    def test_known_profile(self, toy_table, toy_shape):
        assert toy_table.score(toy_shape.full_usage()) is not None

    def test_unknown_profile_is_none(self, toy_table):
        assert toy_table.score(((9, 9, 9, 9),)) is None

    def test_profile_object_accepted(self, toy_table, toy_shape):
        from repro.core.profile import Profile

        score = toy_table.score(Profile.full(toy_shape))
        assert score == toy_table.score(toy_shape.full_usage())

    def test_contains(self, toy_table, toy_shape):
        assert toy_shape.full_usage() in toy_table
        assert ((9, 9, 9, 9),) not in toy_table

    def test_len_matches_graph(self, toy_table, toy_graph):
        assert len(toy_table) == toy_graph.n_nodes

    def test_items_iterates_all(self, toy_table):
        assert sum(1 for _ in toy_table.items()) == len(toy_table)


class TestSnapping:
    def test_exact_hit_returns_exact(self, toy_table, toy_shape):
        usage = toy_shape.full_usage()
        assert toy_table.score_or_snap(usage) == toy_table.score(usage)

    def test_snap_returns_nearest_neighbour_score(self, toy_shape, toy_vm_types):
        # Reachable-mode table misses odd-total profiles; snapping must
        # return the score of an L1-nearest known profile.
        table = build_score_table(toy_shape, toy_vm_types, mode="reachable")
        missing = ((1, 0, 0, 0),)
        assert table.score(missing) is None
        snapped = table.score_or_snap(missing)
        known_scores = {score for _, score in table.items()}
        assert snapped in known_scores

    def test_snap_ties_break_pessimistically(self, toy_shape, toy_vm_types):
        table = build_score_table(toy_shape, toy_vm_types, mode="reachable")
        missing = ((1, 0, 0, 0),)
        # Both ((0,0,0,0)) and ((0,0,1,1)) are at L1 distance 1; ties
        # must resolve to the lower score.
        d1_scores = [
            table.score(((0, 0, 0, 0),)),
            table.score(((0, 0, 1, 1),)),
        ]
        assert table.score_or_snap(missing) == min(s for s in d1_scores if s is not None)

    def test_snap_is_cached(self, toy_shape, toy_vm_types):
        table = build_score_table(toy_shape, toy_vm_types, mode="reachable")
        missing = ((1, 0, 0, 0),)
        first = table.score_or_snap(missing)
        assert table.score_or_snap(missing) == first


class TestSnapCacheBound:
    def _reachable_table(self, toy_shape, toy_vm_types):
        return build_score_table(toy_shape, toy_vm_types, mode="reachable")

    def _bound(self, monkeypatch, size):
        monkeypatch.setattr(ScoreTable, "DEFAULT_SNAP_CACHE_SIZE", size)

    def test_cache_never_exceeds_bound(
        self, toy_shape, toy_vm_types, monkeypatch
    ):
        table = self._reachable_table(toy_shape, toy_vm_types)
        self._bound(monkeypatch, 4)
        # Odd-total usages are off the reachable graph, so all of these
        # miss and must be snapped.
        for first in range(5):
            table.score_or_snap(((1, 1, 1, 2 * first),))
        assert len(table._snap_cache) <= 4

    def test_least_recently_used_evicted_first(
        self, toy_shape, toy_vm_types, monkeypatch
    ):
        table = self._reachable_table(toy_shape, toy_vm_types)
        self._bound(monkeypatch, 2)
        a, b, c = ((0, 0, 0, 1),), ((0, 0, 0, 3),), ((0, 0, 1, 2),)
        table.score_or_snap(a)
        table.score_or_snap(b)
        table.score_or_snap(a)  # refresh a: b becomes least recent
        table.score_or_snap(c)  # evicts b
        assert a in table._snap_cache
        assert b not in table._snap_cache
        assert c in table._snap_cache

    def test_eviction_does_not_change_scores(
        self, toy_shape, toy_vm_types, monkeypatch
    ):
        usages = [((0, 0, 0, 1),), ((0, 0, 0, 3),), ((0, 0, 0, 1),)]
        unbounded = self._reachable_table(toy_shape, toy_vm_types)
        expected = [unbounded.score_or_snap(usage) for usage in usages]
        bounded = self._reachable_table(toy_shape, toy_vm_types)
        self._bound(monkeypatch, 1)
        assert [bounded.score_or_snap(usage) for usage in usages] == expected
        assert len(bounded._snap_cache) == 1


class TestBatchSnap:
    def test_matches_single_lookups(self, toy_shape, toy_vm_types):
        table = build_score_table(toy_shape, toy_vm_types, mode="reachable")
        reference = build_score_table(toy_shape, toy_vm_types, mode="reachable")
        usages = [
            ((0, 0, 0, 0),),   # exact hit
            ((1, 0, 0, 0),),   # off-graph
            ((0, 0, 1, 2),),   # off-graph
            ((1, 0, 0, 0),),   # repeated miss in one batch
            toy_shape.full_usage(),
        ]
        batched = table.score_or_snap_many(usages)
        singles = [reference.score_or_snap(u) for u in usages]
        assert batched == singles

    def test_empty_batch(self, toy_table):
        assert toy_table.score_or_snap_many([]) == []

    def test_batch_populates_cache(self, toy_shape, toy_vm_types):
        table = build_score_table(toy_shape, toy_vm_types, mode="reachable")
        missing = ((1, 0, 0, 0),)
        [score] = table.score_or_snap_many([missing])
        assert table._snap_cache[missing] == score


class TestArgmaxSnap:
    """``argmax_score_or_snap``: the first best position, snapping lazily."""

    @staticmethod
    def _table():
        shape = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4)),)
        )
        # (1,0) is a miss at L1 distance 1 from (0,0) and (2,0): it snaps
        # to the lower score, 0.5, which ties the exact score of (0,0).
        # (4,3) is a miss whose only nearest row, (4,4), scores 0.2.
        return ScoreTable(
            shape, {((0, 0),): 0.5, ((2, 0),): 0.7, ((4, 4),): 0.2}
        )

    def test_matches_first_best_of_the_batch(self):
        usages = [((4, 3),), ((1, 0),), ((0, 0),), ((2, 0),), ((1, 0),)]
        scores = self._table().score_or_snap_many(usages)
        assert self._table().argmax_score_or_snap(usages) == scores.index(
            max(scores)
        )

    def test_miss_tying_the_best_exact_score_wins_when_first(self):
        assert self._table().argmax_score_or_snap([((1, 0),), ((0, 0),)]) == 0
        assert self._table().argmax_score_or_snap([((0, 0),), ((1, 0),)]) == 0

    def test_cached_snap_resolves_like_an_exact_hit(self):
        table = self._table()
        assert table.score_or_snap(((1, 0),)) == 0.5
        assert table.argmax_score_or_snap([((4, 4),), ((1, 0),)]) == 1

    def test_losing_miss_is_bounded_not_snapped(self):
        table = self._table()
        assert table.argmax_score_or_snap([((4, 3),), ((2, 0),)]) == 1
        assert ((4, 3),) not in table._snap_cache
        assert table._bound_cache[((4, 3),)] == (1.0, 0.2)
        # A later call reuses the bound; a winning miss is snapped and
        # its bound makes way for the exact score.
        assert table.argmax_score_or_snap([((4, 3),), ((1, 0),)]) == 1
        assert table._snap_cache[((1, 0),)] == 0.5
        assert ((1, 0),) not in table._bound_cache

    def test_bound_cache_never_exceeds_bound(self, monkeypatch):
        monkeypatch.setattr(ScoreTable, "DEFAULT_SNAP_CACHE_SIZE", 2)
        table = self._table()
        # Every miss sits nearest (4,4) alone and loses to (2,0).
        misses = [((4, 3),), ((3, 4),), ((4, 2),), ((3, 3),), ((2, 4),)]
        for first in range(len(misses)):
            losers = misses[first:] + misses[:first]
            assert table.argmax_score_or_snap(losers + [((2, 0),)]) == 5
            assert len(table._bound_cache) <= 2
        assert len(table._snap_cache) == 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            self._table().argmax_score_or_snap([])


class TestPersistence:
    def test_roundtrip(self, toy_table, tmp_path):
        path = tmp_path / "table.json"
        toy_table.save(path)
        loaded = ScoreTable.load(path)
        assert len(loaded) == len(toy_table)
        assert loaded.damping == toy_table.damping
        assert loaded.strategy == toy_table.strategy
        assert loaded.vote_direction == toy_table.vote_direction
        for usage, score in toy_table.items():
            assert loaded.score(usage) == pytest.approx(score)

    def test_shape_roundtrip(self, toy_table, tmp_path):
        path = tmp_path / "table.json"
        toy_table.save(path)
        loaded = ScoreTable.load(path)
        assert loaded.shape == toy_table.shape

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValidationError):
            ScoreTable.load(path)

    def test_metadata_roundtrip_reverse_balanced(
        self, toy_shape, toy_vm_types, tmp_path
    ):
        table = build_score_table(
            toy_shape,
            toy_vm_types,
            strategy=SuccessorStrategy.BALANCED,
            vote_direction="reverse",
            damping=0.7,
        )
        path = tmp_path / "table.json"
        table.save(path)
        loaded = ScoreTable.load(path)
        assert loaded.vote_direction == "reverse"
        assert loaded.strategy is SuccessorStrategy.BALANCED
        assert loaded.damping == pytest.approx(0.7)
        for usage, score in table.items():
            assert loaded.score(usage) == pytest.approx(score)

    def test_save_is_atomic_no_leftover_temp_files(self, toy_table, tmp_path):
        path = tmp_path / "table.json"
        toy_table.save(path)
        toy_table.save(path)  # overwrite must also go through os.replace
        assert [p.name for p in tmp_path.iterdir()] == ["table.json"]
        assert ScoreTable.load(path).score is not None

    def test_failed_save_leaves_no_debris(self, toy_table, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.core.score_table.json.dump", boom)
        with pytest.raises(OSError):
            toy_table.save(tmp_path / "table.json")
        assert list(tmp_path.iterdir()) == []


class TestBuild:
    def test_best_profile_scores_high(self, toy_table, toy_shape):
        # Under the forward default, the best profile is near the top of
        # the ranking (it accumulates votes from everything below it).
        best = toy_table.best_profile()
        assert toy_table.score(best) >= toy_table.score(toy_shape.empty_usage())

    def test_empty_scores_rejected(self, toy_shape):
        with pytest.raises(ValidationError):
            ScoreTable(toy_shape, {})

    def test_unknown_scoring_rejected(self, toy_shape, toy_vm_types):
        with pytest.raises(ValidationError):
            build_score_table(toy_shape, toy_vm_types, scoring="bogus")

    def test_expected_utilization_scoring(self, toy_shape, toy_vm_types):
        table = build_score_table(
            toy_shape, toy_vm_types, mode="full", scoring="expected-utilization"
        )
        # EFU of the full profile is exactly 1.0.
        assert table.score(toy_shape.full_usage()) == pytest.approx(1.0)

    def test_pagerank_efu_scoring_differs_from_default(
        self, toy_shape, toy_vm_types, toy_table
    ):
        table = build_score_table(
            toy_shape, toy_vm_types, mode="full", scoring="pagerank-efu"
        )
        differs = any(
            table.score(usage) != pytest.approx(score)
            for usage, score in toy_table.items()
        )
        assert differs

    def test_top_sorted_best_first(self, toy_table):
        top = toy_table.top(5)
        assert len(top) == 5
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
        assert top[0][0] == toy_table.best_profile()

    def test_top_more_than_available(self, toy_table):
        assert len(toy_table.top(10_000)) == len(toy_table)

    def test_repr_mentions_parameters(self, toy_table):
        text = repr(toy_table)
        assert "profiles=70" in text
        assert "0.85" in text

    def test_balanced_strategy_recorded(self, toy_shape, toy_vm_types):
        table = build_score_table(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.BALANCED
        )
        assert table.strategy is SuccessorStrategy.BALANCED


class TestPrebuiltGraph:
    def test_prebuilt_graph_reused(self, toy_shape, toy_vm_types, toy_graph):
        table = build_score_table(toy_shape, toy_vm_types, graph=toy_graph)
        fresh = build_score_table(toy_shape, toy_vm_types, mode="full")
        assert dict(table.items()) == dict(fresh.items())

    def test_wrong_shape_rejected(self, toy_vm_types, toy_graph):
        from repro.core.profile import MachineShape, ResourceGroup

        other = MachineShape(
            groups=(ResourceGroup(name="cpu", capacities=(4, 4, 4, 4, 4)),)
        )
        with pytest.raises(ValidationError):
            build_score_table(other, toy_vm_types, graph=toy_graph)

    def test_wrong_vm_types_rejected(self, toy_shape, toy_graph):
        # A sweep passing a prebuilt graph with a different catalog must
        # fail loudly instead of silently scoring the wrong type set.
        from repro.core.profile import VMType

        other_vms = (VMType(name="other", demands=((1, 0, 0, 0),)),)
        with pytest.raises(ValidationError):
            build_score_table(toy_shape, other_vms, graph=toy_graph)

    def test_graph_cache_dir_roundtrip(
        self, tmp_path, monkeypatch, toy_shape, toy_vm_types
    ):
        from repro.core.graph_cache import (
            cache_events,
            clear_cache_events,
        )

        plain = build_score_table(toy_shape, toy_vm_types)
        monkeypatch.setenv("REPRO_TABLE_CACHE", str(tmp_path))
        clear_cache_events()
        first = build_score_table(toy_shape, toy_vm_types)
        assert cache_events()["misses"] == 1
        second = build_score_table(toy_shape, toy_vm_types)
        assert cache_events()["hits"] == 1
        assert list(first.items()) == list(plain.items())
        assert list(second.items()) == list(plain.items())
        clear_cache_events()
