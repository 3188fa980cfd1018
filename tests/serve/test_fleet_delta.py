"""FleetDeltaPlane: live VM-type registration and zero-downtime swaps.

The delta plane's contract is that the *served decisions* are
indistinguishable from a cold rebuild: an equal-content hot swap leaves
the rolling decision digest bit-identical, and a registration produces
the same placements a service cold-built with the grown catalog makes.
"""

import math

import pytest

from repro.core.placement import PageRankVMPolicy
from repro.core.profile import VMType
from repro.core.score_table import build_score_table
from repro.core.soa import SoADatacenter
from repro.serve.fleet import (
    FleetDeltaPlane,
    build_toy_service,
    toy_shape,
    toy_vm_types,
)
from repro.serve.service import PlacementService, ServeRequest
from repro.util.validation import ValidationError


def _mixed_stream(names, n_requests=24, start_id=0):
    return [
        ServeRequest(
            op="place",
            request_id=start_id + i,
            vm_type=names[i % len(names)],
            utilization=0.1 + 0.05 * (i % 7),
        )
        for i in range(n_requests)
    ]


def _vm3():
    return VMType(name="vm3", demands=((1, 1, 1),))


class TestSwapCurrent:
    def test_equal_content_swap_keeps_the_digest(self):
        swapped = build_toy_service(n_pms=6)
        control = build_toy_service(n_pms=6)
        try:
            plane = FleetDeltaPlane(swapped)
            stream = _mixed_stream(["vm2", "vm4"])
            swapped.serve_batch(stream[:12])
            plane.swap_current()
            swapped.serve_batch(stream[12:])
            control.serve_batch(stream)
            assert swapped.decision_digest == control.decision_digest
        finally:
            swapped.close()
            control.close()

    def test_swap_replaces_the_policy_tables(self):
        service = build_toy_service(n_pms=4)
        try:
            plane = FleetDeltaPlane(service)
            before = dict(service.policy.tables)
            plane.swap_current()
            after = dict(service.policy.tables)
            assert before.keys() == after.keys()
            for shape in before:
                assert after[shape] is not before[shape]
        finally:
            service.close()


class TestRegister:
    def test_register_grows_catalog_and_tables(self):
        service = build_toy_service(n_pms=4)
        try:
            plane = FleetDeltaPlane(service)
            shape = toy_shape()
            base = plane.graph_for(shape)
            base_edges = sum(len(s) for s in base.successors)
            report = plane.register(_vm3())
            grown = plane.graph_for(shape)
            # The toy catalog (vm1 included) already reaches the whole
            # lattice, so vm3 adds edges — a pure changed-sources delta.
            assert grown.n_nodes == base.n_nodes
            assert sum(len(s) for s in grown.successors) > base_edges
            assert "vm3" in service.vm_type_names
            assert len(plane.master_table(shape)) == grown.n_nodes
            shape_report = report["shapes"][repr(shape)]
            assert shape_report["n_nodes"] == grown.n_nodes
            assert shape_report["new_nodes"] == 0
            assert shape_report["changed_sources"] > 0
            assert plane.last_report is report
            # The new type is immediately placeable.
            [response] = service.serve_batch(
                [ServeRequest(op="place", request_id=99, vm_type="vm3")]
            )
            assert response.outcome == "placed"
        finally:
            service.close()

    def test_master_scores_match_cold_rebuild(self):
        service = build_toy_service(n_pms=4)
        try:
            plane = FleetDeltaPlane(service)
            shape = toy_shape()
            plane.register(_vm3())
            cold = build_score_table(shape, toy_vm_types() + (_vm3(),))
            master = dict(plane.master_table(shape).items())
            expected = dict(cold.items())
            assert master.keys() == expected.keys()
            for usage, score in master.items():
                assert math.isclose(score, expected[usage], rel_tol=1e-9)
        finally:
            service.close()

    def test_decisions_match_a_cold_built_service(self):
        catalog = toy_vm_types() + (_vm3(),)
        delta_service = build_toy_service(n_pms=6)
        cold_service = None
        try:
            plane = FleetDeltaPlane(delta_service)
            plane.register(_vm3())
            cold_table = build_score_table(toy_shape(), catalog)
            cold_service = build_toy_service(n_pms=6)
            cold_service.hot_swap(
                {toy_shape(): cold_table}, vm_types=catalog
            )
            stream = _mixed_stream(["vm2", "vm3", "vm4"], n_requests=30)
            delta_service.serve_batch(stream)
            cold_service.serve_batch(stream)
            assert (
                delta_service.decision_digest
                == cold_service.decision_digest
            )
        finally:
            delta_service.close()
            if cold_service is not None:
                cold_service.close()

    def test_grown_master_snaps_like_a_cold_table(self):
        # The paper's toy catalog {vm2, vm4} reaches only even-total
        # profiles; registering vm1 appends the odd-total rows.  Each
        # over-capacity usage below is strictly nearer to an appended
        # row than to any original one.  The master's snap tree is
        # built before the delta, so a stale tree would miss them.
        shape = toy_shape()
        catalog = tuple(t for t in toy_vm_types() if t.name != "vm1")
        vm1 = next(t for t in toy_vm_types() if t.name == "vm1")
        service = PlacementService(
            SoADatacenter([(i, shape, "toy.4x4") for i in range(4)]),
            PageRankVMPolicy({shape: build_score_table(shape, catalog)}),
            catalog,
        )
        off_graph = [
            ((0, 0, 0, 5),), ((0, 1, 2, 5),), ((1, 1, 3, 5),),
            ((0, 3, 5, 5),), ((1, 5, 5, 5),),
        ]
        try:
            plane = FleetDeltaPlane(service)
            master = plane.master_table(shape)
            before = master.score_or_snap_many(off_graph)
            report = plane.register(vm1)
            assert report["shapes"][repr(shape)]["new_nodes"] > 0
            cold = build_score_table(shape, catalog + (vm1,))
            expected = [cold.score_or_snap(u) for u in off_graph]
            assert not any(
                math.isclose(a, b, rel_tol=1e-9)
                for a, b in zip(before, expected)
            )
            served = service.policy.tables[shape]
            # The swap published a tree built over the grown matrix, so
            # no request builds one.
            assert served._snap_tree is not None
            assert served._snap_tree is master._snap_tree
            for table in (master, served):
                snapped = table.score_or_snap_many(off_graph)
                assert all(
                    math.isclose(a, b, rel_tol=1e-9)
                    for a, b in zip(snapped, expected)
                )
        finally:
            service.close()

    def test_duplicate_registration_rejected(self):
        service = build_toy_service(n_pms=4)
        try:
            plane = FleetDeltaPlane(service)
            with pytest.raises(ValidationError):
                plane.register(VMType(name="vm2", demands=((1, 1),)))
        finally:
            service.close()

    def test_register_swaps_through_a_scoring_pool(self):
        service = build_toy_service(
            n_pms=6, scoring_workers=2, scoring_min_batch=1
        )
        control = build_toy_service(n_pms=6)
        try:
            plane = FleetDeltaPlane(service)
            plane.register(_vm3())
            control_plane = FleetDeltaPlane(control)
            control_plane.register(_vm3())
            stream = _mixed_stream(["vm2", "vm3", "vm4"], n_requests=30)
            service.serve_batch(stream)
            control.serve_batch(stream)
            assert service.decision_digest == control.decision_digest
        finally:
            service.close()
            control.close()

    def test_policy_without_tables_rejected(self):
        import types

        tableless = types.SimpleNamespace(
            policy=types.SimpleNamespace(tables={}), vm_type_catalog=()
        )
        with pytest.raises(ValidationError):
            FleetDeltaPlane(tableless)
