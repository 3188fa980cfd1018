"""Tests for the lockstep shadow executor and its divergence bisector.

The mutation self-test is the load-bearing part: it injects seeded
divergences (a flipped tie-break, a skipped index-maintenance update, a
reordered float fold) into otherwise-identical twin legs and asserts
the bisector lands on the *exact* first diverging event — checked
against a brute-force linear scan of the two streams — in O(log n)
digest probes.
"""

import math

import pytest

from repro.analysis.sanitize import (
    DEFAULT_MAX_ULPS,
    SanitizeScenario,
    TWIN_NAMES,
    TwinLeg,
    capture,
    find_divergence,
    run_lockstep,
    run_twin,
    tracepoint,
)
from repro.util.trace import TraceRecorder


@pytest.fixture(scope="module")
def m3_table():
    from repro.experiments.sweep import sweep_table

    return sweep_table()


def make_recorder(events):
    recorder = TraceRecorder()
    for kind, payload in events:
        recorder.record(kind, payload)
    return recorder


def linear_first_divergence(a, b):
    """Brute-force ground truth: first differing digested event index."""
    pairs = zip(a.digest_seqs, b.digest_seqs)
    for index, (seq_a, seq_b) in enumerate(pairs):
        event_a, event_b = a.events[seq_a], b.events[seq_b]
        if (event_a.kind, event_a.payload) != (event_b.kind, event_b.payload):
            return index
    if len(a.digest_seqs) != len(b.digest_seqs):
        return min(len(a.digest_seqs), len(b.digest_seqs))
    return None


class TestBisection:
    def test_identical_streams_report_no_divergence(self):
        events = [("place", {"pm": i}) for i in range(100)]
        divergence, stats = find_divergence(
            make_recorder(events), make_recorder(events)
        )
        assert divergence is None
        assert stats["digest_probes"] == 1  # one endpoint comparison

    @pytest.mark.parametrize("flip_at", [0, 1, 637, 999])
    def test_bisection_lands_on_the_exact_event(self, flip_at):
        n = 1000
        events_a = [("place", {"pm": i, "vm": i}) for i in range(n)]
        events_b = list(events_a)
        events_b[flip_at] = ("place", {"pm": -5, "vm": flip_at})
        a, b = make_recorder(events_a), make_recorder(events_b)
        divergence, stats = find_divergence(a, b)
        assert divergence is not None
        assert divergence.stream == "decision"
        assert divergence.index == flip_at == linear_first_divergence(a, b)
        assert divergence.event_a.value("pm") == flip_at
        assert divergence.event_b.value("pm") == -5
        # O(log n) probes, not a linear payload walk.
        assert stats["digest_probes"] <= math.ceil(math.log2(n)) + 2

    def test_length_mismatch_diverges_at_the_common_end(self):
        events = [("place", {"pm": i}) for i in range(10)]
        a = make_recorder(events)
        b = make_recorder(events + [("place", {"pm": 10})])
        divergence, _ = find_divergence(a, b)
        assert divergence is not None
        assert divergence.index == 10
        assert divergence.event_a is None
        assert divergence.event_b.value("pm") == 10

    def test_op_prefix_reproduces_up_to_the_divergence(self):
        events_a = [
            ("tick", {"time": 0.0}),
            ("rng", {"path": "a", "seed": 1}),
            ("overload", {"pm": 0, "util": 0.9}),
            ("place", {"pm": 1}),
        ]
        events_b = list(events_a)
        events_b[3] = ("place", {"pm": 2})
        divergence, _ = find_divergence(
            make_recorder(events_a), make_recorder(events_b)
        )
        # overload is a decision event but not an op; the prefix keeps
        # only the kinds that reproduce state (tick/place/rng/...).
        assert len(divergence.op_prefix) == 3
        assert divergence.op_prefix[-1].endswith("pm=1")

    def test_float_divergence_respects_ulp_tolerance(self):
        base = [("tick", {"time": 0.0}), ("energy", {"joules": 0.6})]
        other = [
            ("tick", {"time": 0.0}),
            ("energy", {"joules": 0.1 + 0.2 + 0.3}),  # 1 ulp off 0.6
        ]
        a, b = make_recorder(base), make_recorder(other)
        strict, stats = find_divergence(a, b, max_ulps=0)
        assert strict is not None and strict.stream == "float"
        assert stats["max_ulp"] == 1
        relaxed, _ = find_divergence(
            make_recorder(base), make_recorder(other), max_ulps=1
        )
        assert relaxed is None

    def test_earliest_divergence_wins_across_streams(self):
        # Float breach at seq 1, decision flip at seq 2: report the float.
        events_a = [
            ("tick", {"time": 0.0}),
            ("energy", {"joules": 1.0}),
            ("place", {"pm": 1}),
        ]
        events_b = [
            ("tick", {"time": 0.0}),
            ("energy", {"joules": 2.0}),
            ("place", {"pm": 7}),
        ]
        divergence, _ = find_divergence(
            make_recorder(events_a), make_recorder(events_b), max_ulps=0
        )
        assert divergence.stream == "float"


class TestRunLockstep:
    def test_clean_twin_pair_reports_ok(self):
        def runner():
            for i in range(5):
                tracepoint("place", vm=i, pm=i % 2)
            tracepoint("energy", joules=12.5)
            return "done"

        report = run_lockstep(
            "unit", TwinLeg("a", runner), TwinLeg("b", runner)
        )
        assert report.ok
        assert report.n_events == (6, 6)
        assert all(
            digest_a == digest_b
            for digest_a, digest_b in report.component_digests.values()
        )
        assert "OK" in report.render()
        assert '"ok": true' in report.to_json()

    def test_diverged_pair_renders_both_payloads(self):
        def runner_a():
            tracepoint("place", vm=0, pm=1)

        def runner_b():
            tracepoint("place", vm=0, pm=2)

        report = run_lockstep(
            "unit", TwinLeg("a", runner_a), TwinLeg("b", runner_b)
        )
        assert not report.ok
        rendered = report.render()
        assert "DIVERGED" in rendered
        assert "pm=1" in rendered and "pm=2" in rendered

    def test_leg_exceptions_deactivate_tracing(self):
        from repro.analysis.sanitize import run_leg
        from repro.util.trace import TRACE

        def broken():
            raise RuntimeError("leg died")

        with pytest.raises(RuntimeError, match="leg died"):
            run_leg(TwinLeg("x", broken))
        assert TRACE.active is False


class TestMutationSelfTest:
    """Injected divergences must be bisected to their exact event."""

    def _scenario_pair(self, m3_table, mutate_policy):
        """Twin soa-substrate legs, leg B running a mutated policy."""
        from repro.baselines import MinimumMigrationTimeSelector
        from repro.cluster.ec2 import build_ec2_soa_datacenter
        from repro.cluster.simulation import (
            CloudSimulation,
            SimulationConfig,
        )
        from repro.core.placement import PageRankVMPolicy
        from repro.experiments.sweep import sweep_workload

        def make_runner(mutated):
            def runner():
                vms = sweep_workload(80, seed=3)
                datacenter = build_ec2_soa_datacenter({"M3": 32})
                policy = PageRankVMPolicy({m3_table.shape: m3_table})
                if mutated:
                    policy = mutate_policy(policy)
                simulation = CloudSimulation(
                    datacenter,
                    policy,
                    MinimumMigrationTimeSelector(),
                    SimulationConfig(
                        duration_s=3600.0, monitor_interval_s=300.0
                    ),
                )
                return simulation.run(vms)

            return runner

        return (
            TwinLeg("baseline", make_runner(False)),
            TwinLeg("mutated", make_runner(True)),
        )

    def test_flipped_tie_break_is_bisected_exactly(self, m3_table):
        flip_at = 11

        def mutate(policy):
            calls = {"n": 0}
            original = policy.select

            def select(vm, machines):
                decision = original(vm, machines)
                calls["n"] += 1
                if calls["n"] == flip_at and decision is not None and (
                    hasattr(machines, "excluding")
                ):
                    flipped = original(
                        vm, machines.excluding(decision.pm_id)
                    )
                    if flipped is not None:
                        return flipped
                return decision

            policy.select = select
            return policy

        from repro.analysis.sanitize import run_leg

        leg_a, leg_b = self._scenario_pair(m3_table, mutate)
        trace_a, trace_b = run_leg(leg_a), run_leg(leg_b)
        divergence, stats = find_divergence(
            trace_a.recorder, trace_b.recorder, max_ulps=1024
        )
        assert divergence is not None
        assert divergence.stream == "decision"
        # The bisector must land on the exact event the brute-force
        # linear scan finds: the flipped call emits an extra rank event
        # on the reduced view, so the streams shear right there.
        assert divergence.index == linear_first_divergence(
            trace_a.recorder, trace_b.recorder
        )
        assert "rank" in (
            divergence.event_a.kind, divergence.event_b.kind
        )
        assert divergence.event_a.payload != divergence.event_b.payload
        n_digested = len(trace_a.recorder.digest_seqs)
        assert stats["digest_probes"] <= math.ceil(
            math.log2(max(2, n_digested))
        ) + 2
        assert divergence.op_prefix  # the reproducing recipe is attached

    def test_skipped_maintenance_update_is_bisected_exactly(self, m3_table):
        """Leg B skips one class-table maintenance update (the bug class
        PRV011 exists for): the stale representative flips the next
        ranking winner, and the bisector lands on that rank event."""
        from repro.cluster.ec2 import build_ec2_soa_datacenter
        from repro.core.placement import PageRankVMPolicy
        from repro.experiments.sweep import sweep_workload

        def make_runner(mutated):
            def runner():
                datacenter = build_ec2_soa_datacenter({"M3": 8})
                policy = PageRankVMPolicy({m3_table.shape: m3_table})
                vms = sweep_workload(8, seed=3)
                # Three identically-typed VMs: two to build a shared
                # usage class with two member machines, one to rank it.
                vm_a, vm_b, vm_c = [
                    vm for vm in vms
                    if vm.vm_type.name == vms[0].vm_type.name
                ][:3]
                view = datacenter.indexed_machines()
                first = policy.select(vm_a.vm_type, view)
                datacenter.apply(vm_a, first)
                second = policy.select_excluding(
                    vm_b.vm_type, datacenter.indexed_machines(),
                    first.pm_id,
                )
                datacenter.apply(vm_b, second)
                if mutated:
                    # The injected bug: drop the shared class's
                    # representative from its member list — what a
                    # skipped refresh() leaves behind.
                    table = datacenter.usage_index.table
                    class_id = max(
                        range(table.n_classes),
                        key=lambda c: len(table.members[c]),
                    )
                    table.remove(class_id, table.members[class_id][0])
                # The next selection of the same type ranks the shared
                # class through its (now stale) representative.
                final = policy.select(
                    vm_c.vm_type, datacenter.indexed_machines()
                )
                tracepoint(
                    "place",
                    vm=vm_c.vm_id,
                    pm=-1 if final is None else final.pm_id,
                )
                return final

            return runner

        report = run_lockstep(
            "mutation",
            TwinLeg("maintained", make_runner(False)),
            TwinLeg("skipped", make_runner(True)),
        )
        assert not report.ok
        divergence = report.divergence
        assert divergence.stream == "decision"
        assert divergence.event_a.kind == "rank"
        # Exactly the first selection after the skipped update: every
        # prior event (setup selections) matched.
        assert divergence.event_a.value("pm") != (
            divergence.event_b.value("pm")
        )

    def test_reordered_fold_is_bisected_to_the_first_breach(self):
        watts = [0.1, 0.2, 0.3]
        flip_tick = 4

        def make_runner(reorder):
            def runner():
                total = 0.0
                for tick in range(8):
                    tracepoint("tick", time=300.0 * tick)
                    ordered = (
                        list(reversed(watts))
                        if reorder and tick >= flip_tick
                        else watts
                    )
                    step = 0.0
                    for w in ordered:
                        step += w
                    total += step
                    tracepoint("energy", joules=total)
                return total

            return runner

        from repro.analysis.sanitize import run_leg, ulp_diff

        trace_a = run_leg(TwinLeg("forward", make_runner(False)))
        trace_b = run_leg(TwinLeg("reversed", make_runner(True)))
        divergence, _ = find_divergence(
            trace_a.recorder, trace_b.recorder, max_ulps=0
        )
        assert divergence is not None
        assert divergence.stream == "float"
        # Ground truth by linear scan: the first paired float sample
        # whose running totals actually differ (reordering a step can be
        # absorbed by the running total's rounding, so this is >= the
        # first reordered tick).
        truth = next(
            i for i, (sa, sb) in enumerate(zip(
                trace_a.recorder.float_seqs, trace_b.recorder.float_seqs
            ))
            if ulp_diff(
                float.fromhex(trace_a.recorder.events[sa].value("joules")),
                float.fromhex(trace_b.recorder.events[sb].value("joules")),
            ) > 0
        )
        assert divergence.index == truth >= flip_tick
        assert divergence.window == truth + 1
        assert "ulps" in divergence.detail
        # The same reorder passes under the documented soa tolerance.
        relaxed = run_lockstep(
            "mutation",
            TwinLeg("forward", make_runner(False)),
            TwinLeg("reversed", make_runner(True)),
            max_ulps=DEFAULT_MAX_ULPS["soa"],
        )
        assert relaxed.ok
        assert relaxed.max_ulp_seen > 0


class TestRunTwin:
    def test_unknown_twin_rejected(self):
        with pytest.raises(ValueError, match="unknown twin"):
            run_twin("warp")

    def test_twin_names_cover_the_documented_pairs(self):
        assert TWIN_NAMES == ("soa", "kernel")
        assert set(DEFAULT_MAX_ULPS) == set(TWIN_NAMES)

    @pytest.mark.parametrize(
        "twin, duration_s",
        [
            pytest.param("soa", 1800.0, id="soa"),
            # The soa twin also carries the tick check (columnar tick vs
            # the seed scan's machine-by-machine tick): twelve hours of
            # monitoring windows let the energy/SLO summation-order
            # drift accumulate against the documented ULP bound.
            pytest.param("soa", 43_200.0, id="tick"),
            pytest.param("kernel", 1800.0, id="kernel"),
        ],
    )
    def test_small_scenario_has_zero_divergences(
        self, twin, duration_s, m3_table
    ):
        report = run_twin(
            twin,
            SanitizeScenario(n_pms=16, duration_s=duration_s),
            table=m3_table,
        )
        assert report.ok, report.render()
        assert report.n_events[0] == report.n_events[1] > 0
        assert report.max_ulp_seen <= DEFAULT_MAX_ULPS[twin]
