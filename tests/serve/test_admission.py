"""Admission queue tests: coalescing determinism and 429 backpressure.

The tentpole invariant: a burst coalesced into batches produces a
decision stream bit-identical to the same requests arriving one at a
time — proven by comparing rolling decision digests.
"""

import pytest

from repro.serve import (
    ASGITestClient,
    ManualClock,
    build_app,
    build_toy_service,
)
from repro.util.rng import RngFactory
from repro.util.validation import ValidationError


def request_mix(n, seed=0):
    """A deterministic body mix over the toy catalog."""
    rng = RngFactory(seed).generator("admission-test", "mix")
    names = ("vm1", "vm2", "vm4")
    return [
        {
            "vm_type": names[int(rng.integers(len(names)))],
            "utilization": float(rng.uniform(0.05, 0.4)),
        }
        for _ in range(n)
    ]


class TestCoalescingDeterminism:
    def test_burst_digest_equals_sequential_digest(self):
        bodies = request_mix(40)

        sequential = build_toy_service(n_pms=16, seed=1, clock=ManualClock())
        seq_client = ASGITestClient(build_app(sequential))
        seq_responses = [seq_client.post("/place", body) for body in bodies]

        batched = build_toy_service(n_pms=16, seed=1, clock=ManualClock())
        burst_client = ASGITestClient(build_app(batched, batch_max=16))
        burst_responses = burst_client.post_burst("/place", bodies)

        assert sequential.decision_digest == batched.decision_digest
        assert [r.json()["pm_id"] for r in seq_responses] == [
            r.json()["pm_id"] for r in burst_responses
        ]
        # The burst actually coalesced: far fewer serve_batch calls.
        assert batched.counters.batches < sequential.counters.batches
        assert batched.counters.batches <= -(-len(bodies) // 16) + 1
        # Coalescing scores nothing extra: every decision resolves the
        # same candidates in the same order as sequential arrival.
        seq_cache = sequential.policy.cache_info()
        burst_cache = batched.policy.cache_info()
        assert (burst_cache.hits, burst_cache.misses, burst_cache.currsize) == (
            seq_cache.hits, seq_cache.misses, seq_cache.currsize
        )

    def test_batch_max_bounds_batch_size(self):
        service = build_toy_service(n_pms=16, clock=ManualClock())
        client = ASGITestClient(build_app(service, batch_max=4))
        responses = client.post_burst("/place", request_mix(12))
        assert all(r.status == 200 for r in responses)
        assert service.counters.batches >= 3  # 12 tickets, <=4 per batch


class TestBackpressure:
    def test_queue_full_sheds_429_with_retry_after(self):
        service = build_toy_service(n_pms=8, clock=ManualClock())
        client = ASGITestClient(build_app(service, max_depth=1))
        responses = client.post_burst("/place", request_mix(8))
        statuses = sorted(r.status for r in responses)
        assert statuses.count(429) == 7  # depth 1: one admitted, rest shed
        assert statuses.count(200) == 1
        shed = [r for r in responses if r.status == 429]
        assert all(r.headers.get("retry-after") == "1" for r in shed)
        assert all(
            r.json()["outcome"] == "shed" and "queue full" in r.json()["detail"]
            for r in shed
        )
        assert service.counters.shed_queue_full == 7
        assert service.counters.admitted == 1

    def test_queue_recovers_after_shedding(self):
        service = build_toy_service(n_pms=8, clock=ManualClock())
        client = ASGITestClient(build_app(service, max_depth=1))
        client.post_burst("/place", request_mix(4))
        follow_up = client.post("/place", {"vm_type": "vm2"})
        assert follow_up.status == 200

    def test_depth_validation(self):
        from repro.serve import AdmissionQueue

        service = build_toy_service(n_pms=2, clock=ManualClock())
        with pytest.raises(ValidationError):
            AdmissionQueue(service, max_depth=0)
        with pytest.raises(ValidationError):
            AdmissionQueue(service, batch_max=0)

    def test_dispatcher_survives_repeated_event_loops(self):
        # get/post spin one asyncio.run each; the dispatcher must
        # re-spawn on the fresh loop every time.
        service = build_toy_service(n_pms=8, clock=ManualClock())
        client = ASGITestClient(build_app(service))
        for _ in range(3):
            assert client.post("/place", {"vm_type": "vm1"}).status == 200
        assert service.counters.placed == 3
