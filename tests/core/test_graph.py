"""Tests for profile-graph generation."""

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ec2 import EC2_VM_TYPES, ec2_pm_shape
from repro.core import permutations
from repro.core.graph import (
    GraphLimitExceeded,
    ProfileGraph,
    SuccessorStrategy,
    build_profile_graph,
)
from repro.core.profile import (
    MachineShape,
    Profile,
    ResourceGroup,
    VMType,
    count_all_profiles,
    iter_all_profiles,
)
from repro.util.validation import ValidationError


def successors_of(graph: ProfileGraph, node: int) -> Tuple[int, ...]:
    """Node ``node``'s successor ids: its slice of the CSR."""
    start, stop = graph.indptr[node], graph.indptr[node + 1]
    return tuple(graph.indices[start:stop].tolist())


class TestFullMode:
    def test_toy_node_count(self, toy_graph):
        assert toy_graph.n_nodes == 70

    def test_contains_empty_and_full(self, toy_graph, toy_shape):
        assert toy_graph.contains(toy_shape.empty_usage())
        assert toy_graph.contains(toy_shape.full_usage())

    def test_edges_are_placements(self, toy_graph, toy_shape, toy_vm_types):
        from repro.core.permutations import enumerate_placements

        for node in range(toy_graph.n_nodes):
            usage = toy_graph.profiles[node]
            expected = set()
            for vm in toy_vm_types:
                for placed in enumerate_placements(toy_shape, usage, vm):
                    expected.add(placed.new_usage)
            got = {toy_graph.profiles[s] for s in successors_of(toy_graph, node)}
            assert got == expected

    def test_graph_is_dag(self, toy_graph):
        # Total usage strictly increases along every edge.
        for node in range(toy_graph.n_nodes):
            node_units = sum(sum(g) for g in toy_graph.profiles[node])
            for succ in successors_of(toy_graph, node):
                succ_units = sum(sum(g) for g in toy_graph.profiles[succ])
                assert succ_units > node_units

    def test_best_profile_is_sink(self, toy_graph, toy_shape):
        full_id = toy_graph.node_id(toy_shape.full_usage())
        assert successors_of(toy_graph, full_id) == ()


def edge_pairs(graph: ProfileGraph) -> np.ndarray:
    """Every edge as a ``(source, target)`` row, in CSR order."""
    sources = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    return np.stack((sources, graph.indices), axis=1)


def node_levels(order) -> np.ndarray:
    """The level number of every node, from the level order's cuts."""
    levels = np.empty(len(order.nodes), dtype=np.int64)
    levels[order.nodes] = np.repeat(
        np.arange(len(order.level_cuts) - 1), np.diff(order.level_cuts)
    )
    return levels


def segment_pairs(segments) -> List[Tuple[int, int]]:
    """``(owner, other end)`` for every edge the segments list, in pass
    order."""
    pairs = []
    for owners, edges, offsets in segments.levels():
        others = segments.others[edges]
        bounds = np.append(offsets, len(others))
        for owner, lo, hi in zip(owners.tolist(), bounds[:-1], bounds[1:]):
            assert lo < hi, "an owner without edges"
            pairs.extend((owner, other) for other in others[lo:hi].tolist())
    return pairs


def grouped(pairs) -> Dict[int, List[int]]:
    """Second items of ``pairs`` listed per first item, in pair order."""
    groups: Dict[int, List[int]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


GRAPHS = ["toy_graph", "mixed_graph"]


@pytest.fixture
def mixed_graph(mixed_shape, mixed_vm):
    """A graph over three resource groups where some level below the
    top holds sinks only, so its out-edge pass has a level to skip."""
    graph = build_profile_graph(
        mixed_shape,
        (mixed_vm, VMType(name="half", demands=((1,), (1,), (0,)))),
    )
    order = graph.level_order()
    assert len(order.out.spans) < len(order.level_cuts) - 2
    return graph


class TestLevelOrder:
    @pytest.mark.parametrize("name", GRAPHS)
    def test_every_edge_climbs_a_level(self, name, request):
        graph = request.getfixturevalue(name)
        levels = node_levels(graph.level_order())
        edges = edge_pairs(graph)
        assert np.all(levels[edges[:, 0]] < levels[edges[:, 1]])

    @pytest.mark.parametrize("name", GRAPHS)
    def test_levels_group_nodes_by_total_units(self, name, request):
        graph = request.getfixturevalue(name)
        order = graph.level_order()
        assert sorted(order.nodes.tolist()) == list(range(graph.n_nodes))
        totals = graph.flat.sum(axis=1)[order.nodes]
        for lo, hi in zip(order.level_cuts[:-1], order.level_cuts[1:]):
            assert lo < hi
            assert len(set(totals[lo:hi].tolist())) == 1
            assert np.all(np.diff(order.nodes[lo:hi]) > 0)
        assert np.all(np.diff(totals[order.level_cuts[:-1]]) > 0)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_out_segments_list_every_edge_once(self, name, request):
        graph = request.getfixturevalue(name)
        out = graph.level_order().out
        pairs = segment_pairs(out)
        assert sorted(pairs) == sorted(map(tuple, edge_pairs(graph).tolist()))
        assert len(set(pairs)) == graph.n_edges
        # Top level first; a segment keeps its CSR order.
        totals = graph.flat.sum(axis=1)
        assert np.all(np.diff(totals[[owner for owner, _ in pairs]]) <= 0)
        for owner, successors in grouped(pairs).items():
            assert tuple(successors) == successors_of(graph, owner)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_in_segments_list_every_edge_once(self, name, request):
        graph = request.getfixturevalue(name)
        order = graph.level_order()
        pairs = segment_pairs(order.into)  # (target, source)
        assert sorted((src, dst) for dst, src in pairs) == sorted(
            map(tuple, edge_pairs(graph).tolist())
        )
        assert len(set(pairs)) == graph.n_edges
        # Bottom level first; a target's sources ascend, and the CSC
        # arrays list them in the same order.
        totals = graph.flat.sum(axis=1)
        assert np.all(np.diff(totals[[dst for dst, _ in pairs]]) >= 0)
        sources = grouped(pairs)
        for target in range(graph.n_nodes):
            lo, hi = order.in_indptr[target], order.in_indptr[target + 1]
            got = sources.get(target, [])
            assert got == sorted(got) == order.in_indices[lo:hi].tolist()

    def test_built_once(self, toy_graph):
        assert toy_graph.level_order() is toy_graph.level_order()

    def test_edgeless_graph(self, toy_shape):
        big = VMType(name="big", demands=((5,),))
        graph = build_profile_graph(toy_shape, (big,), mode="reachable")
        order = graph.level_order()
        assert graph.n_edges == 0 and order.nodes.tolist() == [0]
        assert list(order.out.levels()) == list(order.into.levels()) == []


class TestReachableMode:
    def test_subset_of_full(self, toy_shape, toy_vm_types, toy_graph):
        reachable = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        assert reachable.n_nodes < toy_graph.n_nodes
        for usage in reachable.profiles:
            assert toy_graph.contains(usage)

    def test_reachable_profiles_have_even_totals(self, toy_shape, toy_vm_types):
        # Both toy VMs add an even number of units, so every reachable
        # profile has even total usage.
        graph = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        for usage in graph.profiles:
            assert sum(sum(g) for g in usage) % 2 == 0

    def test_root_is_empty_profile(self, toy_shape, toy_vm_types):
        graph = build_profile_graph(toy_shape, toy_vm_types, mode="reachable")
        assert graph.profiles[0] == toy_shape.empty_usage()


class TestBalancedStrategy:
    def test_at_most_one_edge_per_vm_type(self, toy_shape, toy_vm_types):
        graph = build_profile_graph(
            toy_shape,
            toy_vm_types,
            strategy=SuccessorStrategy.BALANCED,
            mode="reachable",
        )
        assert np.diff(graph.indptr).max() <= len(toy_vm_types)

    def test_balanced_subgraph_of_all_placements(self, toy_shape, toy_vm_types):
        balanced = build_profile_graph(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.BALANCED
        )
        full = build_profile_graph(
            toy_shape, toy_vm_types, strategy=SuccessorStrategy.ALL_PLACEMENTS
        )
        assert balanced.n_nodes <= full.n_nodes
        for usage in balanced.profiles:
            assert full.contains(usage)


class TestNodeLimit:
    @pytest.mark.parametrize(
        "mode, node_limit", [("full", 10), ("reachable", 3)],
        ids=["full", "reachable"],
    )
    def test_limit_enforced(self, toy_shape, toy_vm_types, mode, node_limit):
        with pytest.raises(GraphLimitExceeded):
            build_profile_graph(
                toy_shape, toy_vm_types, mode=mode, node_limit=node_limit
            )


class TestValidation:
    def test_empty_vm_set_rejected(self, toy_shape):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [], mode="full")

    def test_zero_demand_vm_rejected(self, toy_shape):
        ghost = VMType(name="ghost", demands=((0, 0, 0, 0),))
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [ghost])

    def test_group_mismatch_rejected(self, toy_shape, mixed_vm):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, [mixed_vm])

    def test_unknown_mode_rejected(self, toy_shape, toy_vm_types):
        with pytest.raises(ValidationError):
            build_profile_graph(toy_shape, toy_vm_types, mode="bogus")


class TestGraphQueries:
    def test_n_edges(self, toy_graph):
        assert toy_graph.n_edges == int(np.diff(toy_graph.indptr).sum())
        assert toy_graph.n_edges == len(toy_graph.indices)

    def test_node_id_roundtrip(self, toy_graph):
        for node in range(0, toy_graph.n_nodes, 7):
            assert toy_graph.node_id(toy_graph.profiles[node]) == node

    def test_node_id_missing_returns_none(self, toy_graph):
        assert toy_graph.node_id(((9, 9, 9, 9),)) is None

    def test_sinks_cannot_host_any_vm(self, toy_graph, toy_shape, toy_vm_types):
        from repro.core.permutations import can_place

        sinks = np.flatnonzero(np.diff(toy_graph.indptr) == 0)
        assert sinks.size
        for sink in sinks:
            usage = toy_graph.profiles[sink]
            assert not any(
                can_place(toy_shape, usage, vm) for vm in toy_vm_types
            )

    def test_utilizations_in_unit_interval(self, toy_graph):
        utils = toy_graph.utilization_array()
        assert np.all((0.0 <= utils) & (utils <= 1.0))

    def test_profile_accessor(self, toy_graph, toy_shape):
        profile = Profile(toy_graph.profiles[0])
        assert profile.usage == toy_graph.profiles[0]
        assert profile.usage == toy_shape.empty_usage()

    def test_packed_profiles_match_flat(self, toy_graph):
        packed = toy_graph.packed_profiles()
        assert packed.dtype.kind == "u"
        np.testing.assert_array_equal(
            packed.astype(np.int64), toy_graph.flat
        )

    def test_node_index_is_built_on_first_lookup(self, toy_shape, toy_vm_types):
        graph = build_profile_graph(toy_shape, toy_vm_types, mode="full")
        assert "node_index" not in graph._derived
        assert graph.node_id(graph.profiles[5]) == 5
        assert "node_index" in graph._derived

    def test_cold_score_table_never_builds_the_node_index(self, monkeypatch):
        from repro.core import graph_cache
        from repro.core.score_table import build_score_table

        built = []

        def recording_build(*args, **kwargs):
            built.append(build_profile_graph(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(graph_cache, "build_profile_graph", recording_build)
        build_score_table(
            ec2_pm_shape("M3"), EC2_VM_TYPES,
            strategy=SuccessorStrategy.BALANCED,
        )
        assert len(built) == 1 and built[0].n_nodes > 100_000
        assert "node_index" not in built[0]._derived

    def test_csr_matches_successors(self, toy_graph):
        indptr = toy_graph.indptr
        assert indptr.shape == (toy_graph.n_nodes + 1,)
        assert int(indptr[0]) == 0
        assert int(indptr[-1]) == toy_graph.n_edges
        for node in range(toy_graph.n_nodes):
            succ = successors_of(toy_graph, node)
            assert list(succ) == sorted(set(succ))
            assert len(succ) == indptr[node + 1] - indptr[node]


# ----------------------------------------------------------------------
# Node-order oracle: the per-node FIFO builder, frozen.
#
# The production builder expands a whole BFS level per VM type.  This is
# the builder it replaced, with the same logic: one node at a time, one
# VM type at a time, group options combined by itertools.product (last
# group fastest), successors deduplicated on first occurrence.  Node ids
# fix the score tables' summation order, so the level build must number
# every node exactly as this does.
# ----------------------------------------------------------------------


class OracleLimit(Exception):
    """The oracle's node_limit breach (distinct from the production type)."""


class _OracleEngine:
    def __init__(self, shape, vm_types, strategy):
        self.strategy = strategy
        self.groups = tuple(shape.groups)
        self.memos = tuple(permutations.group_memo(g) for g in self.groups)
        self.lives = tuple(
            tuple(permutations.live_chunks(c) for c in vm.demands)
            for vm in vm_types
        )
        self.gids: List[Dict[Tuple[int, ...], int]] = [{} for _ in self.groups]
        self.gusages: List[List[Tuple[int, ...]]] = [[] for _ in self.groups]
        self.balanced: List[List[Dict[int, Optional[int]]]] = [
            [{} for _ in self.groups] for _ in vm_types
        ]
        self.options: List[List[Dict[int, Tuple[int, ...]]]] = [
            [{} for _ in self.groups] for _ in vm_types
        ]

    def gid(self, g, usage):
        ids = self.gids[g]
        if usage not in ids:
            ids[usage] = len(self.gusages[g])
            self.gusages[g].append(usage)
        return ids[usage]

    def combo_of(self, usage):
        return tuple(self.gid(g, u) for g, u in enumerate(usage))

    def usage_of(self, combo):
        return tuple(self.gusages[g][gid] for g, gid in enumerate(combo))

    def successor_combos(self, combo):
        seen: Dict[Tuple[int, ...], None] = {}
        for vi, lives in enumerate(self.lives):
            per_group = []
            for g, gid in enumerate(combo):
                usage = self.gusages[g][gid]
                if self.strategy is SuccessorStrategy.BALANCED:
                    cache = self.balanced[vi][g]
                    if gid not in cache:
                        placed = self.memos[g].balanced(
                            self.groups[g], usage, lives[g]
                        )
                        cache[gid] = (
                            None if placed is None
                            else self.gid(g, placed.new_usage)
                        )
                    opts = () if cache[gid] is None else (cache[gid],)
                else:
                    cache = self.options[vi][g]
                    if gid not in cache:
                        cache[gid] = tuple(
                            self.gid(g, p.new_usage)
                            for p in self.memos[g].enumerated(
                                self.groups[g], usage, lives[g]
                            )
                        )
                    opts = cache[gid]
                if not opts:
                    break
                per_group.append(opts)
            else:
                for succ in itertools.product(*per_group):
                    seen.setdefault(succ)
        return list(seen)


def oracle_graph(shape, vm_types, strategy, mode="reachable", node_limit=10**6):
    """The per-node FIFO builder's graph (raises :class:`OracleLimit`)."""
    vm_types = tuple(vm_types)
    engine = _OracleEngine(shape, vm_types, strategy)
    if mode == "full":
        profiles = [p.usage for p in iter_all_profiles(shape)]
        if len(profiles) > node_limit:
            raise OracleLimit(len(profiles))
        combos = [engine.combo_of(u) for u in profiles]
        ids = {c: i for i, c in enumerate(combos)}
        successors = [
            tuple(sorted(ids[s] for s in engine.successor_combos(c)))
            for c in combos
        ]
    else:
        combos = [engine.combo_of(shape.empty_usage())]
        ids = {combos[0]: 0}
        successors = []
        node = 0
        while node < len(combos):
            succ_ids = []
            for succ in engine.successor_combos(combos[node]):
                if succ not in ids:
                    if len(combos) >= node_limit:
                        raise OracleLimit(node_limit)
                    ids[succ] = len(combos)
                    combos.append(succ)
                succ_ids.append(ids[succ])
            successors.append(tuple(sorted(succ_ids)))
            node += 1
        profiles = [engine.usage_of(c) for c in combos]
    return ProfileGraph(
        shape, vm_types, strategy, profiles,
        np.array(
            [[u for group in usage for u in group] for usage in profiles],
            dtype=np.int64,
        ),
        np.concatenate(([0], np.cumsum([len(s) for s in successors]))),
        np.array([d for succ in successors for d in succ], dtype=np.int64),
    )


@st.composite
def small_worlds(draw):
    """1-3 groups (anti-collocation or scalar, mixed unit capacities)."""
    groups = []
    for g in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            caps = draw(st.lists(
                st.integers(min_value=2, max_value=5), min_size=1, max_size=3
            ))
            groups.append(ResourceGroup(f"g{g}", tuple(sorted(caps))))
        else:
            cap = draw(st.integers(min_value=2, max_value=8))
            groups.append(ResourceGroup(f"g{g}", (cap,), anti_collocation=False))
    shape = MachineShape(groups=tuple(groups))
    vm_types = []
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        demands = tuple(
            tuple(draw(st.lists(
                st.integers(min_value=0, max_value=2),
                min_size=1, max_size=group.n_units if group.anti_collocation else 1,
            )))
            for group in groups
        )
        vm = VMType(name=f"t{t}", demands=demands)
        if vm.total_units() > 0:
            vm_types.append(vm)
    if not vm_types:
        vm_types.append(VMType(
            name="unit", demands=((1,),) + tuple((0,) for _ in groups[1:])
        ))
    return shape, tuple(vm_types)


def assert_same_graph(got: ProfileGraph, want: ProfileGraph):
    assert got.profiles == want.profiles
    for left, right in zip(
        (got.flat, got.indptr, got.indices),
        (want.flat, want.indptr, want.indices),
    ):
        np.testing.assert_array_equal(left, right)
        assert left.dtype == right.dtype


STRATEGIES = st.sampled_from(list(SuccessorStrategy))


class TestLevelBuildMatchesOracle:
    """The level-synchronous build numbers nodes as the FIFO BFS does."""

    @given(small_worlds(), STRATEGIES, st.sampled_from(["reachable", "full"]))
    @settings(max_examples=150, deadline=None)
    def test_graph_identical(self, world, strategy, mode):
        shape, vm_types = world
        limit = 3000
        try:
            want = oracle_graph(shape, vm_types, strategy, mode, limit)
        except OracleLimit:
            with pytest.raises(GraphLimitExceeded):
                build_profile_graph(shape, vm_types, strategy, mode, limit)
            return
        got = build_profile_graph(shape, vm_types, strategy, mode, limit)
        assert_same_graph(got, want)

    @given(small_worlds(), STRATEGIES, st.sampled_from(["reachable", "full"]))
    @settings(max_examples=60, deadline=None)
    def test_node_limit_boundary(self, world, strategy, mode):
        shape, vm_types = world
        n_nodes = oracle_graph(shape, vm_types, strategy, mode).n_nodes
        for limit in (n_nodes - 1, n_nodes):
            try:
                oracle_graph(shape, vm_types, strategy, mode, limit)
            except OracleLimit:
                with pytest.raises(GraphLimitExceeded):
                    build_profile_graph(shape, vm_types, strategy, mode, limit)
            else:
                graph = build_profile_graph(
                    shape, vm_types, strategy, mode, limit
                )
                assert graph.n_nodes == n_nodes
        # n_nodes itself always passes; one less raises unless only the
        # root exists (the root is never counted against the limit).
        assert build_profile_graph(
            shape, vm_types, strategy, mode, n_nodes
        ).n_nodes == n_nodes

    @pytest.mark.parametrize("strategy", list(SuccessorStrategy))
    @pytest.mark.parametrize("mode", ["reachable", "full"])
    def test_two_groups_with_several_options(self, strategy, mode):
        # From ((0, 1), (0, 1)) one VM has two options per group, so four
        # new successors: their ids fix the last group as the fastest.
        shape = MachineShape(groups=(
            ResourceGroup("cpu", (2, 2)), ResourceGroup("disk", (2, 2, 3)),
        ))
        vm_types = (VMType("a", ((1,), (1,))), VMType("b", ((1, 1), (2,))))
        want = oracle_graph(shape, vm_types, strategy, mode)
        got = build_profile_graph(shape, vm_types, strategy, mode)
        assert_same_graph(got, want)

    def test_lattice_wider_than_int64_keys(self):
        # 16 eight-unit groups: the canonical lattice has far more than
        # 2**63 points, so node keys compare whole gid rows instead of a
        # packed int64.
        groups = tuple(
            ResourceGroup(f"g{g}", (5,) * 8) for g in range(16)
        )
        shape = MachineShape(groups=groups)
        assert count_all_profiles(shape) > np.iinfo(np.int64).max
        def vm(name, **chunks):
            return VMType(name, tuple(
                chunks.get(f"g{g}", (0,)) for g in range(16)
            ))

        vm_types = (
            vm("a", g0=(5, 5, 5, 5)),
            vm("b", g15=(5,) * 8),
            vm("c", g0=(5,), g7=(5, 5), g15=(5,)),
        )
        for strategy in SuccessorStrategy:
            want = oracle_graph(shape, vm_types, strategy, node_limit=5000)
            got = build_profile_graph(shape, vm_types, strategy, node_limit=5000)
            assert_same_graph(got, want)


#: Several equal-capacity runs in both anti-collocation groups, so the
#: run-wise canonical sort of the batched packing shapes the node ids.
MIXED_RUNS = MachineShape(groups=(
    ResourceGroup("cpu", (3, 3, 5, 5, 6)),
    ResourceGroup("mem", (16,), anti_collocation=False),
    ResourceGroup("disk", (4, 6, 6)),
))
MIXED_RUNS_VMS = (
    VMType("small", ((1,), (1,), (1,))),
    VMType("wide", ((1, 1, 1), (2,), (2, 2))),
    VMType("big", ((3, 2), (3,), (5,))),
)


class TestBalancedBuild:
    """BALANCED packs each table's frontier rows in one array pass."""

    @pytest.mark.parametrize("shape, vm_types", [
        (ec2_pm_shape("M3"), EC2_VM_TYPES),
        (MIXED_RUNS, MIXED_RUNS_VMS),
    ], ids=["M3", "mixed-runs"])
    def test_frozen_per_node_builder_agrees(self, shape, vm_types):
        strategy = SuccessorStrategy.BALANCED
        got = build_profile_graph(shape, vm_types, strategy)
        assert got.n_nodes > 100
        assert_same_graph(got, oracle_graph(shape, vm_types, strategy))

    def test_cold_build_leaves_the_balanced_memo_empty(self):
        permutations.clear_group_memos()
        strategy = SuccessorStrategy.BALANCED
        build_profile_graph(MIXED_RUNS, MIXED_RUNS_VMS, strategy)
        memos = list(permutations._GROUP_MEMOS.values())
        assert len(memos) == len(MIXED_RUNS.groups)
        assert [len(m._balanced) for m in memos] == [0, 0, 0]
        # The probe sees a build that does fill the memo: the oracle's.
        oracle_graph(MIXED_RUNS, MIXED_RUNS_VMS, strategy)
        assert all(len(m._balanced) for m in memos)
