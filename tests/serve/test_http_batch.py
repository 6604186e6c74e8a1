"""Batched ``/classify``, timeout/504 contract, the WSGI fast path, and
the multi-listener ingress.

The batched wire format's contract, pinned: per-task results in task
order, per-item 400 entries for unparsable tasks alongside served ones,
whole-body 429 when admission sheds the batch as a unit, batched
predictions bit-identical to single-task submissions, ``timeout_s``
validation (a client typo is a 400, not a 500), and the 504
cancel-or-account rule (a timed-out request never lingers in the queue
unaccounted).  :class:`TestMultiListener` boots an
``n_listeners=2`` SO_REUSEPORT ingress and replays batched load over
real sockets — zero lost, zero misrouted.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.errors import OverloadedError
from repro.serve import (CellConfig, ClassificationService, HttpIngress,
                         LoadGenerator, create_app)

from .conftest import WsgiClient
from .faults import SlowModel


@pytest.fixture()
def http_service(pipeline_result, constant_model):
    """A started single-cell service behind the in-process client."""

    width = pipeline_result.registry.features_count
    service = ClassificationService(
        constant_model(2, width), pipeline_result.registry,
        CellConfig(max_wait_us=200), trainer=False).start()
    yield service, pipeline_result.tasks
    service.close()


@pytest.fixture()
def client(http_service):
    service, _tasks = http_service
    return WsgiClient(create_app(service))


def wire_task(task) -> dict:
    return task.to_dict()


class TestBatchedClassify:
    def test_batched_round_trip_in_order(self, client, http_service):
        _service, tasks = http_service
        response = client.post("/classify", json={
            "tasks": [wire_task(t) for t in tasks[:5]]})
        assert response.status_code == 200
        results = response.get_json()["results"]
        assert len(results) == 5
        for entry in results:
            assert "error" not in entry
            assert entry["group"] == 2
            assert entry["model_version"] == 1
            assert entry["cell"] == "default"
            assert entry["latency_us"] > 0

    def test_batched_matches_single_bit_identical(self, serve_setup):
        """Real trained model: every batched prediction must equal the
        single-task submission of the same task, index by index — the
        ordering guarantee and the no-mixup guarantee at once."""

        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        CellConfig(max_wait_us=200),
                                        trainer=False).start()
        try:
            test_client = WsgiClient(create_app(service))
            sample = result.tasks[:32]
            singles = []
            for task in sample:
                body = test_client.post("/classify", json={
                    "task": wire_task(task)}).get_json()
                singles.append(body["group"])
            batched = test_client.post("/classify", json={
                "tasks": [wire_task(t) for t in sample]}).get_json()
            groups = [entry["group"] for entry in batched["results"]]
            assert groups == singles
        finally:
            service.close()

    def test_mixed_valid_invalid_entries(self, client, http_service):
        _service, tasks = http_service
        bad = {"specs": [{"attribute": "A", "bogus": 1}]}
        response = client.post("/classify", json={
            "tasks": [wire_task(tasks[0]), bad, wire_task(tasks[1])]})
        assert response.status_code == 200
        results = response.get_json()["results"]
        assert len(results) == 3
        assert results[0]["group"] == 2
        assert results[2]["group"] == 2
        assert results[1]["status"] == 400
        assert "invalid task" in results[1]["error"]

    def test_empty_and_malformed_lists_are_400(self, client, http_service):
        _service, tasks = http_service
        assert client.post("/classify",
                           json={"tasks": []}).status_code == 400
        assert client.post("/classify",
                           json={"tasks": "nope"}).status_code == 400
        # Both shapes at once is ambiguous — refuse the body.
        assert client.post("/classify", json={
            "task": wire_task(tasks[0]),
            "tasks": [wire_task(tasks[0])]}).status_code == 400

    def test_shed_batch_is_whole_body_429(self, pipeline_result,
                                          constant_model):
        """Admission prices a batch as a unit: a shed body is one 429,
        never a partial admit."""

        width = pipeline_result.registry.features_count
        service = ClassificationService(
            SlowModel(constant_model(0, width), 0.05),
            pipeline_result.registry,
            CellConfig(max_batch=8, max_wait_us=100, max_queue=4),
            trainer=False).start()
        try:
            test_client = WsgiClient(create_app(service))
            for _ in range(40):
                try:
                    service.submit(pipeline_result.tasks[0])
                except OverloadedError:
                    break
            else:
                pytest.fail("40 submits never overflowed 4 slots")
            response = test_client.post("/classify", json={
                "tasks": [wire_task(t)
                          for t in pipeline_result.tasks[:3]]})
            assert response.status_code == 429
            body = response.get_json()
            assert body["reason"] == "rejected"
            assert body["retry_after_s"] > 0
            assert int(response.headers["Retry-After"]) >= 1
        finally:
            service.close()


class TestTimeoutValidation:
    @pytest.mark.parametrize("timeout", ["abc", -1, 0, True, None,
                                         float("inf"), 1e9])
    def test_bad_timeout_is_400(self, client, http_service, timeout):
        _service, tasks = http_service
        for body in ({"task": wire_task(tasks[0]), "timeout_s": timeout},
                     {"tasks": [wire_task(tasks[0])],
                      "timeout_s": timeout}):
            response = client.post("/classify", json=body)
            assert response.status_code == 400
            assert "timeout_s" in response.get_json()["error"]

    def test_valid_timeout_classifies(self, client, http_service):
        _service, tasks = http_service
        response = client.post("/classify", json={
            "task": wire_task(tasks[0]), "timeout_s": 2.5})
        assert response.status_code == 200


class Test504CancelOrAccount:
    def test_timed_out_queued_request_is_cancelled(self, pipeline_result,
                                                   constant_model):
        """A 504 while the request still queues must withdraw it — the
        cancelled counter moves and the queue drains to empty, leaving
        no zombie for a worker to classify for nobody."""

        width = pipeline_result.registry.features_count
        slow = SlowModel(constant_model(0, width), 0.4)
        service = ClassificationService(
            slow, pipeline_result.registry,
            CellConfig(max_batch=1, max_wait_us=100), trainer=False).start()
        try:
            test_client = WsgiClient(create_app(service))
            # Occupy the single worker for ~0.4s...
            blocker = service.submit(pipeline_result.tasks[0])
            time.sleep(0.02)
            # ...so the wire arrival sits queued past its tiny budget.
            response = test_client.post("/classify", json={
                "task": wire_task(pipeline_result.tasks[0]),
                "timeout_s": 0.05})
            assert response.status_code == 504
            body = response.get_json()
            assert body["state"] == "cancelled"
            assert blocker.wait(5.0)
            assert service.stats().cancelled == 1
            assert service.batcher.pending == 0
        finally:
            service.close()

    def test_timed_out_in_flight_request_is_accounted(self,
                                                      pipeline_result,
                                                      constant_model):
        width = pipeline_result.registry.features_count
        slow = SlowModel(constant_model(0, width), 0.4)
        service = ClassificationService(
            slow, pipeline_result.registry,
            CellConfig(max_batch=1, max_wait_us=100), trainer=False).start()
        try:
            test_client = WsgiClient(create_app(service))
            # The worker is idle, so the request is taken within the
            # 100µs window — by timeout time it is mid-predict.
            response = test_client.post("/classify", json={
                "task": wire_task(pipeline_result.tasks[0]),
                "timeout_s": 0.1})
            assert response.status_code == 504
            assert response.get_json()["state"] == "in-flight"
            assert service.stats().cancelled == 0
        finally:
            service.close()


class TestAuditClassify:
    def test_matches_wire_audit_and_raises_on_evicted(self, client,
                                                      http_service):
        service, tasks = http_service
        served = client.post("/classify", json={
            "task": wire_task(tasks[0])}).get_json()
        expected = service.audit_classify(tasks[0],
                                          served["model_version"])
        audited = client.post("/audit", json={
            "task": wire_task(tasks[0]),
            "version": served["model_version"]}).get_json()
        assert expected == audited["group"] == served["group"]
        with pytest.raises(KeyError):
            service.audit_classify(tasks[0], 999)
        assert client.post("/audit", json={
            "task": wire_task(tasks[0]),
            "version": 999}).status_code == 410


class TestFastPathApp:
    """The WSGI dispatch table, driven as a plain WSGI callable."""

    def test_classify_served_from_table(self, client, http_service):
        _service, tasks = http_service
        response = client.post("/classify",
                               json={"task": wire_task(tasks[0])})
        assert response.status_code == 200
        assert response.headers["Content-Type"] == "application/json"
        assert int(response.headers["Content-Length"]) == len(
            response.data)
        payload = response.get_json()
        assert payload["group"] == 2
        assert payload["model_version"] == 1

    def test_batched_body_on_fast_path(self, client, http_service):
        _service, tasks = http_service
        response = client.post("/classify", json={
            "tasks": [wire_task(t) for t in tasks[:3]]})
        assert response.status_code == 200
        results = response.get_json()["results"]
        assert [entry["group"] for entry in results] == [2, 2, 2]

    def test_malformed_json_is_400(self, client):
        for raw in (b"not json", b"[1, 2]", b""):
            response = client.post("/classify", data=raw)
            assert response.status_code == 400
            assert "error" in response.get_json()

    def test_other_routes_and_wrong_method(self, client):
        response = client.get("/cells")
        assert response.status_code == 200
        assert response.get_json() == {"cells": ["default"]}
        # A known path under another method is 405, naming the allowed
        # one.
        response = client.get("/classify")
        assert response.status_code == 405
        assert response.headers["Allow"] == "POST"
        assert "error" in response.get_json()

    def test_unknown_path_is_json_404(self, client):
        for method in ("GET", "POST"):
            response = client.open(method, "/nope")
            assert response.status_code == 404
            assert response.headers["Content-Type"] == "application/json"
            assert "/nope" in response.get_json()["error"]

    def test_missing_or_invalid_content_length_is_400(self, client,
                                                      http_service):
        _service, tasks = http_service
        body = json.dumps({"task": wire_task(tasks[0])}).encode()
        for length in ("", "abc", "-1"):
            response = client.post("/classify", data=body,
                                   environ={"CONTENT_LENGTH": length})
            assert response.status_code == 400
            assert "Content-Length" in response.get_json()["error"]


class TestMultiListener:
    """n_listeners=2 over SO_REUSEPORT: real sockets, batched load."""

    def test_rejects_bad_listener_count(self, http_service):
        service, _tasks = http_service
        with pytest.raises(ValueError, match="n_listeners"):
            HttpIngress(service, port=0, n_listeners=0)

    def test_batched_wire_run_loses_nothing(self, pipeline_result,
                                            constant_model):
        width = pipeline_result.registry.features_count
        service = ClassificationService(
            constant_model(1, width), pipeline_result.registry,
            CellConfig(max_wait_us=200), trainer=False).start()
        try:
            with HttpIngress(service, port=0,
                             n_listeners=2) as ingress:
                assert len(ingress._servers) == 2
                report = LoadGenerator(
                    tasks=pipeline_result.tasks,
                    labels=pipeline_result.labels,
                    url=ingress.url, rate=800.0, duration_s=0.5,
                    http_connections=4, http_batch=8,
                    rng=np.random.default_rng(7)).run()
            assert report.n_requests > 0
            assert report.n_dropped == 0
            assert report.n_completed == report.n_requests
            assert report.latency.count == report.n_completed
            assert report.n_audited > 0
            assert report.n_misrouted == 0
        finally:
            service.close()

    def test_listeners_restartable_and_port_shared(self, http_service):
        import urllib.request

        service, _tasks = http_service
        ingress = HttpIngress(service, port=0, n_listeners=2)
        with ingress:
            port = ingress.port
            assert port > 0
            with urllib.request.urlopen(
                    f"{ingress.url}/healthz") as response:
                assert response.status == 200
        # stop() released both SO_REUSEPORT sockets; a fresh ingress can
        # bind the port space again.
        with HttpIngress(service, port=0, n_listeners=2) as again:
            assert again.port > 0
