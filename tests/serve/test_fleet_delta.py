"""Live VM-type registration and zero-downtime swaps via ``swap_catalog``.

The contract is that a served table depends only on its shape and
catalog: a swap to the current catalog leaves the rolling decision
digest bit-identical, and registering a type gives exactly the tables
and decisions of a service built fresh with the grown catalog.
"""

import pytest

from repro.core.placement import PageRankVMPolicy
from repro.core.profile import VMType
from repro.core.score_table import build_score_table
from repro.core.soa import SoADatacenter
from repro.serve.fleet import (
    build_toy_service,
    swap_catalog,
    toy_shape,
    toy_vm_types,
)
from repro.serve.service import PlacementService, ServeRequest
from repro.util.rng import RngFactory
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


def _register(service, vm_type):
    swap_catalog(service, tuple(service.vm_type_catalog) + (vm_type,))


class TestSwapCurrent:
    """Swapping in the current catalog changes nothing served."""

    def test_equal_content_swap_keeps_the_digest(self):
        swapped = build_toy_service(n_pms=6)
        control = build_toy_service(n_pms=6)
        try:
            stream = _mixed_stream(["vm2", "vm4"])
            swapped.serve_batch(stream[:12])
            swap_catalog(swapped, swapped.vm_type_catalog)
            swapped.serve_batch(stream[12:])
            control.serve_batch(stream)
            assert swapped.decision_digest == control.decision_digest
        finally:
            swapped.close()
            control.close()

    def test_swap_replaces_the_policy_tables(self):
        service = build_toy_service(n_pms=4)
        try:
            before = dict(service.policy.tables)
            swap_catalog(service, service.vm_type_catalog)
            after = dict(service.policy.tables)
            assert before.keys() == after.keys()
            for shape in before:
                assert after[shape] is not before[shape]
                assert list(after[shape].items()) == list(
                    before[shape].items()
                )
        finally:
            service.close()

    def test_swapped_table_answers_without_rebuilding_its_dict(self):
        service = build_toy_service(n_pms=4)
        try:
            shape = toy_shape()
            swap_catalog(service, service.vm_type_catalog)
            served = service.policy.tables[shape]
            # The snap tree is built before the swap, so no request
            # builds an index.
            tree = served._snap_tree
            assert tree is not None
            cold = build_score_table(shape, toy_vm_types())
            for usage, score in cold.items():
                assert served.score(usage) == score
            assert served.score_or_snap(((5, 5, 5, 5),)) == (
                cold.score_or_snap(((5, 5, 5, 5),))
            )
            assert served._snap_tree is tree
        finally:
            service.close()


class TestRegister:
    def test_register_grows_catalog_and_tables(self):
        service = build_toy_service(n_pms=4)
        try:
            shape = toy_shape()
            base_len = len(service.policy.tables[shape])
            _register(service, _vm3())
            assert "vm3" in service.vm_type_names
            assert [vm.name for vm in service.vm_type_catalog] == [
                "vm1", "vm2", "vm4", "vm3",
            ]
            # The toy catalog (vm1 included) already reaches the whole
            # reachable lattice, so vm3 adds edges but no profiles.
            assert len(service.policy.tables[shape]) == base_len
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
            shape = toy_shape()
            _register(service, _vm3())
            cold = build_score_table(shape, toy_vm_types() + (_vm3(),))
            # Bit for bit, in row order.
            assert list(service.policy.tables[shape].items()) == list(
                cold.items()
            )
        finally:
            service.close()

    def test_registration_equals_a_fresh_service(self):
        # The registration contract: after registering vm3 every table
        # equals a cold build of the grown catalog bit for bit, in row
        # order, and a fixed stream that places vm3 gives the digest of
        # a service built fresh with that catalog.
        shape = toy_shape()
        grown = toy_vm_types() + (_vm3(),)
        registered = build_toy_service(n_pms=6)
        fresh = PlacementService(
            SoADatacenter([(i, shape, "toy.4x4") for i in range(6)]),
            PageRankVMPolicy(
                {shape: build_score_table(shape, grown)},
                rng=RngFactory(0).generator("serve-policy"),
            ),
            grown,
            seed=0,
        )
        try:
            _register(registered, _vm3())
            for served_shape, table in registered.policy.tables.items():
                cold = build_score_table(served_shape, grown)
                assert list(table.items()) == list(cold.items())
            assert tuple(registered.vm_type_catalog) == grown
            stream = _mixed_stream(["vm1", "vm3", "vm2", "vm4"], 40)
            registered.serve_batch(stream)
            fresh.serve_batch(stream)
            assert registered.decision_digest == fresh.decision_digest
        finally:
            registered.close()
            fresh.close()

    def test_decisions_match_a_cold_built_service(self):
        catalog = toy_vm_types() + (_vm3(),)
        delta_service = build_toy_service(n_pms=6)
        cold_service = None
        try:
            _register(delta_service, _vm3())
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
        # profiles; registering vm1 adds the odd-total rows.  Each
        # over-capacity usage below is strictly nearer to an added row
        # than to any original one, so a stale snap tree would miss it.
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
            before = service.policy.tables[shape].score_or_snap_many(
                off_graph
            )
            _register(service, vm1)
            cold = build_score_table(shape, catalog + (vm1,))
            expected = [cold.score_or_snap(u) for u in off_graph]
            assert not any(a == b for a, b in zip(before, expected))
            served = service.policy.tables[shape]
            assert served._snap_tree is not None
            assert served.score_or_snap_many(off_graph) == expected
        finally:
            service.close()

    def test_duplicate_registration_rejected(self):
        service = build_toy_service(n_pms=4)
        try:
            tables = dict(service.policy.tables)
            with pytest.raises(ValidationError):
                _register(service, VMType(name="vm2", demands=((1, 1),)))
            assert dict(service.policy.tables) == tables
            assert "vm2" in service.vm_type_names
        finally:
            service.close()

    def test_registered_services_keep_equal_digests(self):
        service = build_toy_service(n_pms=6)
        control = build_toy_service(n_pms=6)
        try:
            _register(service, _vm3())
            _register(control, _vm3())
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
            swap_catalog(tableless, toy_vm_types())
