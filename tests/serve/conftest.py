"""Serving-layer fixtures: a deployed model over the shared small cell."""

from __future__ import annotations

import io
from json import dumps, loads

import numpy as np
import pytest

from repro.analysis.concur import default_tracker, lock_debug_enabled
from repro.core import BENCH_CONFIG, GrowingModel
from repro.datasets import DatasetData


@pytest.fixture(scope="session", autouse=True)
def lock_order_report():
    """With ``REPRO_LOCK_DEBUG=1`` (the CI slow job), print the
    process-wide lock report after the serve suites and hard-fail on
    any observed lock-order inversion — the runtime half of the
    concurrency lint."""

    yield
    if not lock_debug_enabled():
        return
    tracker = default_tracker()
    print("\n" + tracker.report())
    assert not tracker.inversions, "\n".join(tracker.inversions)


class ConstantModel:
    """Duck-typed classifier that always predicts ``value`` (unit tests)."""

    def __init__(self, value: int, features_count: int):
        self.value = value
        self.features_count = features_count

    def predict(self, X):
        assert X.shape[1] == self.features_count, "align() was skipped"
        return np.full(X.shape[0], self.value, dtype=np.int64)

    def clone(self) -> "ConstantModel":
        return ConstantModel(self.value, self.features_count)


class PlanlessModel:
    """A model served without an inference plan: the eager oracle.

    Delegates ``predict`` and ``features_count`` to the wrapped model
    and has no ``compile``, so every publication of it carries
    ``plan=None`` and batches take the eager ``align`` + ``predict``
    path that the compiled fast path is checked against.
    """

    def __init__(self, model):
        self.model = model

    @property
    def features_count(self):
        return self.model.features_count

    def predict(self, X):
        return self.model.predict(X)


class WsgiResponse:
    """One reply from :class:`WsgiClient`."""

    def __init__(self, status: str, headers, data: bytes):
        self.status_code = int(status.split()[0])
        self.headers = dict(headers)
        self.data = data

    @property
    def content_type(self) -> str | None:
        return self.headers.get("Content-Type")

    def get_data(self, as_text: bool = False):
        return self.data.decode() if as_text else self.data

    def get_json(self):
        return loads(self.data)


class WsgiClient:
    """Drives a WSGI app in process: no socket, no server thread.

    ``json=`` encodes a body; ``data=`` sends raw bytes; ``environ=``
    overrides keys (e.g. drops ``CONTENT_LENGTH``).
    """

    def __init__(self, app):
        self.app = app

    def open(self, method: str, path: str, *, json=None, data: bytes = b"",
             environ: dict | None = None) -> WsgiResponse:
        body = data if json is None else dumps(json).encode()
        env = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
            **(environ or {}),
        }
        captured = {}

        def start_response(status, headers, exc_info=None):
            captured["status"], captured["headers"] = status, headers

        data = b"".join(self.app(env, start_response))
        return WsgiResponse(captured["status"], captured["headers"], data)

    def get(self, path: str, **kwargs) -> WsgiResponse:
        return self.open("GET", path, **kwargs)

    def post(self, path: str, **kwargs) -> WsgiResponse:
        return self.open("POST", path, **kwargs)


@pytest.fixture()
def constant_model():
    return ConstantModel


@pytest.fixture()
def planless():
    return PlanlessModel


@pytest.fixture(scope="session")
def serve_setup(pipeline_result):
    """(initial model, pipeline result): the model is trained on the
    *first* viable growth window only, so the registry holds vocabulary
    the deployed model has never seen — the hot-swap scenario."""

    steps = [s for s in pipeline_result.steps
             if s.n_samples >= 8 and len(np.unique(s.y)) >= 2]
    assert steps, "small cell produced no trainable growth window"
    model = GrowingModel(BENCH_CONFIG, rng=np.random.default_rng(1))
    model.fit_step(DatasetData(steps[0].X, steps[0].y,
                               batch_size=BENCH_CONFIG.batch_size,
                               rng=np.random.default_rng(0)))
    return model, pipeline_result
