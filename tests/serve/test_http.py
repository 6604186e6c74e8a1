"""HTTP ingress: route semantics, error mapping, health plane, and a
real-socket load-generator run.

Most tests drive the WSGI app in process through
:class:`~tests.serve.conftest.WsgiClient` (no sockets, no flakes);
:class:`TestRealSocket` and :class:`TestKeepAlive` boot an actual
:class:`~repro.serve.HttpIngress` on an ephemeral port and replays load
over the wire — the zero-lost / zero-misrouted acceptance criterion in
its HTTP form.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.serve import (CellRouter, ClassificationService, HttpIngress,
                         LoadGenerator, create_app)

from .conftest import WsgiClient
from .faults import SlowModel, kill_trainer


@pytest.fixture()
def http_service(pipeline_result, constant_model):
    """A started single-cell service behind the in-process client."""

    width = pipeline_result.registry.features_count
    service = ClassificationService(
        constant_model(2, width), pipeline_result.registry,
        trainer=False, max_wait_us=200).start()
    yield service, pipeline_result.tasks
    service.close()


@pytest.fixture()
def client(http_service):
    service, _tasks = http_service
    return WsgiClient(create_app(service))


def wire_task(task) -> dict:
    return task.to_dict()


class TestClassify:
    def test_classify_round_trip(self, client, http_service):
        _service, tasks = http_service
        response = client.post("/classify",
                               json={"task": wire_task(tasks[0])})
        assert response.status_code == 200
        body = response.get_json()
        assert body["group"] == 2
        assert body["model_version"] == 1
        assert body["cell"] == "default"
        assert body["latency_us"] > 0

    def test_explicit_default_cell_accepted(self, client, http_service):
        _service, tasks = http_service
        response = client.post("/classify", json={
            "task": wire_task(tasks[0]), "cell": "default"})
        assert response.status_code == 200

    def test_unknown_cell_is_404(self, client, http_service):
        _service, tasks = http_service
        response = client.post("/classify", json={
            "task": wire_task(tasks[0]), "cell": "nope"})
        assert response.status_code == 404
        assert "nope" in response.get_json()["error"]

    def test_malformed_bodies_are_400(self, client):
        assert client.post("/classify", data=b"not json"
                           ).status_code == 400
        assert client.post("/classify", json=[1, 2]).status_code == 400
        assert client.post("/classify", json={}).status_code == 400
        assert client.post("/classify", json={
            "task": {"specs": [{"attribute": "A", "bogus": 1}]}
        }).status_code == 400
        assert client.post("/classify", json={
            "task": {"specs": []}, "cell": 7}).status_code == 400

    def test_observe_round_trip(self, http_service, serve_setup):
        # Needs a trainer: build a dedicated service for this one.
        from repro.sim import RetrainPolicy

        model, result = serve_setup
        service = ClassificationService(
            model, result.registry, trainer=True,
            policy=RetrainPolicy(growth_threshold=10**6,
                                 min_observations=10**6),
            rng=np.random.default_rng(0)).start()
        try:
            test_client = WsgiClient(create_app(service))
            response = test_client.post("/observe", json={
                "task": wire_task(result.tasks[0]), "group": 1})
            assert response.status_code == 204
            assert service.trainer.observations_total == 1
            assert test_client.post("/observe", json={
                "task": wire_task(result.tasks[0]), "group": "x"
            }).status_code == 400
        finally:
            service.close()

    def test_audit_replays_exact_version(self, client, http_service):
        _service, tasks = http_service
        task = wire_task(tasks[0])
        served = client.post("/classify", json={"task": task}).get_json()
        audited = client.post("/audit", json={
            "task": task, "version": served["model_version"]})
        assert audited.status_code == 200
        assert audited.get_json()["group"] == served["group"]
        gone = client.post("/audit", json={"task": task, "version": 999})
        assert gone.status_code == 410

    def test_cells_listing(self, client):
        assert client.get("/cells").get_json() == {"cells": ["default"]}


class TestOverloadMapping:
    def test_shed_maps_to_429_with_retry_after(self, pipeline_result,
                                               constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            SlowModel(constant_model(0, width), 0.05),
            pipeline_result.registry, trainer=False, max_batch=8,
            max_wait_us=100, max_queue=4).start()
        try:
            from repro.errors import OverloadedError

            test_client = WsgiClient(create_app(service))
            task = wire_task(pipeline_result.tasks[0])
            # Fill the 4-slot queue in process (the HTTP endpoint blocks
            # per request, so a sequential client can't overflow it)...
            for _ in range(40):
                try:
                    service.submit(pipeline_result.tasks[0])
                except OverloadedError:
                    break
            else:
                pytest.fail("40 submits never overflowed 4 slots")
            # ...then the wire arrival is refused at the gate.
            response = test_client.post("/classify", json={"task": task})
            assert response.status_code == 429
            body = response.get_json()
            assert body["reason"] == "rejected"
            assert body["retry_after_s"] > 0
            header = int(response.headers["Retry-After"])
            assert header >= 1  # RFC delta-seconds, rounded up
        finally:
            service.close()


class TestHealthz:
    def test_healthy_service(self, client):
        response = client.get("/healthz")
        assert response.status_code == 200
        body = response.get_json()
        assert body["status"] == "ok"
        checks = {c["check"] for c in body["checks"]}
        assert "published" in checks

    def test_dead_trainer_flips_503(self, serve_setup):
        from repro.sim import RetrainPolicy

        model, result = serve_setup
        service = ClassificationService(
            model, result.registry, trainer=True,
            policy=RetrainPolicy(growth_threshold=10**6,
                                 min_observations=10**6),
            rng=np.random.default_rng(0)).start()
        try:
            test_client = WsgiClient(create_app(service))
            assert test_client.get("/healthz").status_code == 200
            kill_trainer(service.trainer)
            response = test_client.get("/healthz")
            assert response.status_code == 503
            body = response.get_json()
            assert body["status"] == "unhealthy"
            failed = [c for c in body["checks"] if not c["ok"]]
            assert [c["check"] for c in failed] == ["trainer_alive"]
        finally:
            service.close()

    def test_staleness_budget_flips_503(self, http_service):
        service, _tasks = http_service
        fresh = WsgiClient(create_app(service, staleness_budget_s=3600.0))
        assert fresh.get("/healthz").status_code == 200
        stale = WsgiClient(create_app(service, staleness_budget_s=1e-9))
        time.sleep(0.01)
        response = stale.get("/healthz")
        assert response.status_code == 503
        failed = [c for c in response.get_json()["checks"] if not c["ok"]]
        assert [c["check"] for c in failed] == ["staleness"]
        assert failed[0]["staleness_s"] > failed[0]["budget_s"]

    def test_queue_saturation_check_present(self, pipeline_result,
                                            constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(0, width), pipeline_result.registry,
            trainer=False, max_queue=16).start()
        try:
            body = WsgiClient(create_app(service)).get(
                "/healthz").get_json()
            saturation = [c for c in body["checks"]
                          if c["check"] == "queue_saturation"]
            assert saturation and saturation[0]["ok"]
            assert saturation[0]["max_queue"] == 16
        finally:
            service.close()


class TestTelemetryEndpoints:
    def test_metrics_exposition(self, client, http_service):
        _service, tasks = http_service
        client.post("/classify", json={"task": wire_task(tasks[0])})
        response = client.get("/metrics")
        assert response.status_code == 200
        assert response.content_type.startswith("text/plain")
        text = response.get_data(as_text=True)
        assert 'repro_serve_completed_total{cell="default"} 1' in text
        assert ('repro_serve_stage_duration_us_count'
                '{cell="default",stage="total"} 1') in text
        assert 'repro_serve_events_total{cell="default"}' in text
        assert 'repro_serve_has_published{cell="default"} 1' in text

    def test_stats_json(self, client, http_service):
        _service, tasks = http_service
        client.post("/classify", json={"task": wire_task(tasks[0])})
        body = client.get("/stats").get_json()
        cell = body["cells"]["default"]
        assert cell["stats"]["completed"] == 1
        assert cell["telemetry"]["stages"]["total"]["count"] == 1
        assert cell["telemetry"]["events"][0]["kind"] == "publish"
        assert cell["admission"] is None


class TestRouterApp:
    @pytest.fixture()
    def router_client(self, pipeline_result, constant_model):
        registry = pipeline_result.registry
        width = registry.features_count
        router = CellRouter(max_wait_us=200)
        router.add_cell("cell-a", constant_model(0, width), registry)
        router.add_cell("cell-b", constant_model(1, width), registry)
        router.start()
        yield WsgiClient(create_app(router)), pipeline_result.tasks
        router.close()

    def test_explicit_cell_routes(self, router_client):
        test_client, tasks = router_client
        for cell, group in (("cell-a", 0), ("cell-b", 1)):
            body = test_client.post("/classify", json={
                "task": wire_task(tasks[0]), "cell": cell}).get_json()
            assert (body["cell"], body["group"]) == (cell, group)

    def test_ambiguous_cell_is_404(self, router_client):
        test_client, tasks = router_client
        response = test_client.post("/classify",
                                    json={"task": wire_task(tasks[0])})
        assert response.status_code == 404
        assert "explicit" in response.get_json()["error"]

    def test_per_cell_metrics_and_cells(self, router_client):
        test_client, tasks = router_client
        test_client.post("/classify", json={
            "task": wire_task(tasks[0]), "cell": "cell-b"})
        assert test_client.get("/cells").get_json() == {
            "cells": ["cell-a", "cell-b"]}
        text = test_client.get("/metrics").get_data(as_text=True)
        assert 'repro_serve_completed_total{cell="cell-a"} 0' in text
        assert 'repro_serve_completed_total{cell="cell-b"} 1' in text


class TestRealSocket:
    """HttpIngress on an ephemeral port + the HTTP load generator."""

    def test_single_cell_wire_run_loses_nothing(self, pipeline_result,
                                                constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(1, width), pipeline_result.registry,
            trainer=False, max_wait_us=200).start()
        try:
            with HttpIngress(service, port=0) as ingress:
                report = LoadGenerator(
                    tasks=pipeline_result.tasks,
                    labels=pipeline_result.labels,
                    url=ingress.url, rate=400.0, duration_s=0.5,
                    http_connections=2,
                    rng=np.random.default_rng(5)).run()
            assert report.n_requests > 0
            assert report.n_dropped == 0
            assert report.n_completed == report.n_requests
            assert report.latency.count == report.n_completed
        finally:
            service.close()

    def test_multi_cell_wire_run_zero_misroutes(self, pipeline_result,
                                                constant_model):
        registry = pipeline_result.registry
        width = registry.features_count
        router = CellRouter(max_wait_us=200)
        router.add_cell("cell-a", constant_model(0, width), registry)
        router.add_cell("cell-b", constant_model(1, width), registry)
        corpora = {
            "cell-a": (pipeline_result.tasks, None),
            "cell-b": (pipeline_result.tasks, None),
        }
        with router:
            with HttpIngress(router, port=0) as ingress:
                report = LoadGenerator(
                    corpora=corpora, url=ingress.url, rate=400.0,
                    duration_s=0.5, http_connections=2,
                    rng=np.random.default_rng(6)).run()
        assert report.n_dropped == 0
        assert report.n_completed == report.n_requests > 0
        assert set(report.per_cell) == {"cell-a", "cell-b"}
        assert report.n_audited > 0
        assert report.n_misrouted == 0

    def test_healthz_and_metrics_over_the_wire(self, pipeline_result,
                                               constant_model):
        import urllib.request

        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(0, width), pipeline_result.registry,
            trainer=False).start()
        try:
            with HttpIngress(service, port=0,
                             staleness_budget_s=3600.0) as ingress:
                with urllib.request.urlopen(
                        f"{ingress.url}/healthz") as response:
                    assert response.status == 200
                with urllib.request.urlopen(
                        f"{ingress.url}/metrics") as response:
                    text = response.read().decode()
                assert "repro_serve_requests_total" in text
        finally:
            service.close()

    def test_ingress_lifecycle(self, pipeline_result, constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(0, width), pipeline_result.registry,
            trainer=False).start()
        try:
            ingress = HttpIngress(service, port=0)
            ingress.start()
            with pytest.raises(RuntimeError, match="already started"):
                ingress.start()
            ingress.stop()
            ingress.stop()  # idempotent
        finally:
            service.close()


class TestKeepAlive:
    """The stdlib HTTP/1.1 server behind :class:`HttpIngress`."""

    @pytest.fixture()
    def ingress(self, http_service):
        service, _tasks = http_service
        with HttpIngress(service, port=0) as ingress:
            yield ingress

    def test_two_requests_share_one_connection(self, ingress):
        import http.client

        conn = http.client.HTTPConnection(ingress.host, ingress.port,
                                          timeout=5)
        try:
            conn.request("GET", "/cells")
            first = conn.getresponse()
            assert first.status == 200
            assert first.getheader("Connection") is None
            first.read()
            sock = conn.sock
            conn.request("POST", "/nope", body=b"{}")
            second = conn.getresponse()
            assert second.status == 404
            assert second.getheader("Connection") is None
            assert "error" in json.loads(second.read())
            assert conn.sock is sock, "the client had to reconnect"
        finally:
            conn.close()

    def test_invalid_content_length_is_400_and_closes(self, ingress):
        import socket

        with socket.create_connection((ingress.host, ingress.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /classify HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: abc\r\n\r\n{}")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    def test_stop_does_not_wait_for_idle_connection(self, http_service):
        import http.client

        service, _tasks = http_service
        ingress = HttpIngress(service, port=0).start()
        conn = http.client.HTTPConnection(ingress.host, ingress.port,
                                          timeout=5)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            started = time.monotonic()
            ingress.stop()
            assert time.monotonic() - started < 2.0
        finally:
            conn.close()
