"""ASGI layer tests: routing, status codes, headers, lifespan."""

import asyncio

import pytest

from repro.serve import (
    ASGITestClient,
    ManualClock,
    build_app,
    build_toy_service,
)


@pytest.fixture()
def app():
    service = build_toy_service(n_pms=8, clock=ManualClock())
    return build_app(service)


@pytest.fixture()
def client(app):
    return ASGITestClient(app)


class TestRouting:
    def test_healthz(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json() == {"status": "ok"}

    def test_readyz_when_idle(self, client):
        response = client.get("/readyz")
        assert response.status == 200
        body = response.json()
        assert body["ready"] is True
        assert body["breaker"] == "closed"
        assert body["queue_depth"] == 0

    def test_unknown_route_404(self, client):
        assert client.get("/nope").status == 404

    def test_wrong_method_405(self, client):
        assert client.post("/healthz").status == 405
        assert client.get("/place").status == 405

    def test_content_type_json(self, client):
        response = client.get("/healthz")
        assert response.headers["content-type"] == "application/json"

    def test_non_http_scope_raises(self, app):
        async def drive():
            await app({"type": "websocket"}, None, None)

        with pytest.raises(RuntimeError):
            asyncio.run(drive())


class TestPlacementRoutes:
    def test_place_roundtrip(self, client, app):
        response = client.post(
            "/place", {"vm_type": "vm2", "utilization": 0.5}
        )
        assert response.status == 200
        body = response.json()
        assert body["outcome"] == "placed"
        assert body["degraded"] is False
        assert app.service.datacenter.locate(body["vm_id"]) == body["pm_id"]

    def test_migrate_roundtrip(self, client):
        placed = client.post("/place", {"vm_type": "vm2"}).json()
        response = client.post("/migrate", {"vm_id": placed["vm_id"]})
        assert response.status == 200
        assert response.json()["pm_id"] != placed["pm_id"]

    def test_unknown_vm_type_400(self, client):
        response = client.post("/place", {"vm_type": "m5.gigantic"})
        assert response.status == 400
        assert response.json()["outcome"] == "rejected"

    def test_migrate_unknown_vm_404(self, client):
        assert client.post("/migrate", {"vm_id": 12345}).status == 404

    def test_malformed_body_400(self, client, app):
        response = client.post("/place", [1, 2, 3])  # not a JSON object
        assert response.status == 400
        assert "malformed" in response.json()["detail"]
        assert app.service.counters.rejected_invalid == 1

    def test_non_integer_vm_id_400(self, client):
        response = client.post("/place", {"vm_type": "vm2", "vm_id": "seven"})
        assert response.status == 400

    def test_empty_body_defaults(self, client):
        # An empty body parses as {}; vm_type None -> 400 rejected.
        response = client.post("/place")
        assert response.status == 400


class TestClusterState:
    def test_counters_flow_through(self, client):
        client.post("/place", {"vm_type": "vm2"})
        client.post("/place", {"vm_type": "zzz"})
        state = client.get("/cluster/state").json()
        assert state["counters"]["placed"] == 1
        assert state["counters"]["rejected_invalid"] == 1
        # Both requests were well-formed JSON, so both were admitted;
        # the unknown type was rejected by the service, not the parser.
        assert state["counters"]["admitted"] == 2
        assert state["policy"]
        assert state["n_vms"] == 1
        assert len(state["decision_digest"]) == 64
        assert set(state) == {
            "policy", "n_machines", "pms_used", "n_vms", "counters",
            "breaker", "tripped", "policy_degraded", "policy_degraded_reason",
            "decision_digest", "decisions", "pending_displaced", "ledger",
        }


class TestLifespan:
    def test_startup_shutdown_protocol(self, app):
        received = []

        async def drive():
            messages = iter(
                [
                    {"type": "lifespan.startup"},
                    {"type": "lifespan.shutdown"},
                ]
            )

            async def receive():
                return next(messages)

            async def send(message):
                received.append(message["type"])

            await app({"type": "lifespan"}, receive, send)

        asyncio.run(drive())
        assert received == [
            "lifespan.startup.complete",
            "lifespan.shutdown.complete",
        ]
