"""Spans around calls into each layer's public functions.

:func:`install` wraps a fixed set of public methods of the ``repro``
package (class-level, for the life of the process) so every call
records one span: id, name, start, end, parent span, request id (where
the caller sent one), thread name and the number of tasks the call
handled.  Spans stay in memory and are written out once, at the end of
a run.

Nothing here is imported unless a run asks for tracing, so an
untraced run executes the program exactly as shipped.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

#: Span fields, in the order each span tuple stores them.
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "rid", "thread",
          "n")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        #: Spans are recorded only while ``active`` (the measured
        #: phases); set-up calls pass straight through.
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Input-repeat measure, taken at the encode boundary: a task
        # repeats when its shape was encoded before at the same
        # registry width.
        self._encode_keys: set = set()
        self._keys_lock = threading.Lock()
        self.encode_tasks = 0
        self.encode_repeats = 0

    def traced(self, name: str, fn, size=None):
        """``fn`` wrapped so each call records one span."""

        local = self._local
        ids = self._ids
        spans = self.spans
        tracer = self

        def call(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              getattr(local, "rid", None),
                              threading.current_thread().name,
                              1 if size is None else size(args)))

        return call

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        setattr(owner, attr, self.traced(name, getattr(owner, attr), size))

    def set_request_id(self, rid) -> None:
        self._local.rid = rid

    def note_encode(self, tasks, width: int) -> None:
        with self._keys_lock:
            for task in tasks:
                key = (task, width)
                if key in self._encode_keys:
                    self.encode_repeats += 1
                else:
                    self._encode_keys.add(key)
            self.encode_tasks += len(tasks)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans,
                       "encode_tasks": self.encode_tasks,
                       "encode_repeats": self.encode_repeats, **extra}, fh)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public layer boundaries the per-layer metrics read."""

    from repro.constraints.compaction import CompactedTask
    from repro.core.growing import GrowingModel
    from repro.core.inference_plan import InferencePlan
    from repro.datasets.co_vv import COVVEncoder
    from repro.datasets.registry import FeatureRegistry
    from repro.serve.handle import ModelHandle
    from repro.serve.http import HttpIngress
    from repro.serve.persistence import CheckpointStore
    from repro.serve.service import ClassificationService
    from repro.serve.trainer import BackgroundTrainer

    # A classmethod is re-bound so the span wraps the bound call.
    CompactedTask.from_dict = classmethod(tracer.traced(
        "compaction.from_dict",
        lambda cls, payload, _f=CompactedTask.from_dict.__func__:
        _f(cls, payload)))
    tracer.wrap(ClassificationService, "submit", "service.submit")
    tracer.wrap(ClassificationService, "submit_many", "service.submit",
                size=lambda a: len(a[1]))
    tracer.wrap(InferencePlan, "predict", "inference_plan.predict",
                size=lambda a: a[1].shape[0])
    tracer.wrap(FeatureRegistry, "observe_task", "registry.observe_task")
    tracer.wrap(BackgroundTrainer, "train_once", "trainer.train_once")
    tracer.wrap(GrowingModel, "fit_step", "growing.fit_step")
    tracer.wrap(ModelHandle, "publish", "handle.publish")
    tracer.wrap(CheckpointStore, "save", "persistence.save")

    # The repeat count is taken outside the span, so it does not add to
    # the encoder's measured time.
    encode = tracer.traced("co_vv.encode_rows", COVVEncoder.encode_rows,
                           size=lambda a: len(a[1]))

    def encode_rows(self, tasks):
        if tracer.active:
            tracer.note_encode(tasks, self.registry.features_count)
        return encode(self, tasks)

    COVVEncoder.encode_rows = encode_rows

    init = HttpIngress.__init__

    def ingress_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        app = tracer.traced("http.request", self.wsgi_app)

        def wsgi_app(environ, start_response):
            tracer.set_request_id(environ.get("HTTP_X_REQUEST_ID"))
            try:
                return app(environ, start_response)
            finally:
                tracer.set_request_id(None)

        self.wsgi_app = wsgi_app

    HttpIngress.__init__ = ingress_init
    return tracer


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load(path) -> tuple[list[dict], dict]:
    with open(path) as fh:
        payload = json.load(fh)
    fields = payload.pop("fields")
    spans = [dict(zip(fields, span)) for span in payload.pop("spans")]
    return spans, payload


def as_dicts(tracer: Tracer) -> list[dict]:
    return [dict(zip(FIELDS, span)) for span in tracer.spans]


def self_times_us(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""

    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"]:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    return {span["id"]: (span["end_ns"] - span["start_ns"]
                         - child_ns.get(span["id"], 0)) / 1e3
            for span in spans}


def by_name(spans: list[dict]) -> dict[str, list[dict]]:
    groups: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        groups[span["name"]].append(span)
    return groups


def _batcher_encodes(spans: list[dict]) -> list[dict]:
    return [s for s in spans if s["name"] == "co_vv.encode_rows"
            and s["thread"].startswith("repro-serve-batcher")]


def queue_waits_us(spans: list[dict]) -> np.ndarray:
    """Submit → batch-start wait of each ``service.submit`` call.

    A single batcher worker serves batches one after another in queue
    order, so a submitted task waits for the first batcher-thread
    encode that starts after its submit call began.
    """

    starts = np.sort(np.asarray(
        [s["start_ns"] for s in _batcher_encodes(spans)], dtype=np.int64))
    enqueued = np.asarray([s["start_ns"] for s in spans
                           if s["name"] == "service.submit"],
                          dtype=np.int64)
    if starts.size == 0 or enqueued.size == 0:
        return np.empty(0)
    idx = np.searchsorted(starts, enqueued, side="left")
    valid = idx < starts.size
    return (starts[idx[valid]] - enqueued[valid]) / 1e3


def batch_sizes(spans: list[dict]) -> list[int]:
    return [s["n"] for s in _batcher_encodes(spans)]
