"""Load generator: arrival schedules, reports, and the throughput floor."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import (CellConfig, CellRouter, ClassificationService,
                         LoadGenerator, arrival_offsets)


class TestSchedules:
    def test_poisson_mean_rate(self, rng):
        offsets = arrival_offsets(2000, 5.0, rng)
        assert np.all(np.diff(offsets) >= 0)
        assert offsets[-1] < 5.0
        assert len(offsets) == pytest.approx(10_000, rel=0.15)

    def test_bursty_respects_duty_cycle(self, rng):
        period, factor = 0.25, 4.0
        offsets = arrival_offsets(2000, 5.0, rng, pattern="bursty",
                                  burst_factor=factor, period_s=period)
        assert len(offsets) == pytest.approx(10_000, rel=0.15)
        phase = offsets % period
        assert np.all(phase <= period / factor + 1e-9)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            arrival_offsets(0, 1.0, rng)
        with pytest.raises(ValueError):
            arrival_offsets(100, -1.0, rng)
        with pytest.raises(ValueError):
            arrival_offsets(100, 1.0, rng, pattern="steady")
        with pytest.raises(ValueError):
            arrival_offsets(100, 1.0, rng, pattern="bursty",
                            burst_factor=0.5)


class TestDurationCoverage:
    """Regression: the old fixed `1.5×` gap draw could fall short of the
    duration on an unlucky seed, silently ending the arrival stream
    early (under-offering load).  The stream must now reach the end of
    the window for every seed."""

    @pytest.mark.parametrize("rate,duration_s", [(5.0, 2.0), (40.0, 1.0),
                                                 (200.0, 3.0)])
    def test_poisson_covers_full_duration(self, rate, duration_s):
        counts = []
        for seed in range(40):
            offsets = arrival_offsets(rate, duration_s,
                                      np.random.default_rng(seed))
            assert offsets[-1] < duration_s
            # The final kept arrival sits within a few mean gaps of the
            # window's end (P[gap > 14/rate] = e^-14 per draw).
            assert offsets[-1] > duration_s - 14.0 / rate
            assert np.all(np.diff(offsets) >= 0)
            counts.append(len(offsets))
        # Offered load matches the nominal rate on average.
        expected = rate * duration_s
        assert np.mean(counts) == pytest.approx(expected, rel=0.1)

    def test_bursty_covers_full_duration(self):
        rate, duration_s, period = 200.0, 3.0, 0.25
        counts = []
        for seed in range(40):
            offsets = arrival_offsets(rate, duration_s,
                                      np.random.default_rng(seed),
                                      pattern="bursty", period_s=period)
            assert offsets[-1] < duration_s
            # Arrivals keep landing into the last few periods.
            assert offsets[-1] > duration_s - 2 * period
            counts.append(len(offsets))
        assert np.mean(counts) == pytest.approx(rate * duration_s,
                                                rel=0.1)


class TestGeneratorValidation:
    def test_bad_corpus(self, serve_setup):
        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        trainer=False)
        with pytest.raises(ValueError):
            LoadGenerator(service, [])
        with pytest.raises(ValueError):
            LoadGenerator(service, result.tasks,
                          labels=result.labels[:3])
        with pytest.raises(ValueError):
            LoadGenerator(service, result.tasks, observe_every=2)

    def test_bad_multicell_wiring(self, pipeline_result, constant_model):
        registry = pipeline_result.registry
        width = registry.features_count
        tasks = pipeline_result.tasks
        service = ClassificationService(constant_model(0, width), registry,
                                        trainer=False)
        router = CellRouter()
        router.add_cell("a", constant_model(0, width), registry)
        # corpora needs a router; a router needs corpora.
        with pytest.raises(ValueError, match="CellRouter"):
            LoadGenerator(service, corpora={"a": (tasks, None)})
        with pytest.raises(ValueError, match="corpora"):
            LoadGenerator(router, tasks)
        # Unknown cell, empty corpus, label mismatch, missing labels.
        with pytest.raises(ValueError, match="not registered"):
            LoadGenerator(router, corpora={"zz": (tasks, None)})
        with pytest.raises(ValueError, match="empty"):
            LoadGenerator(router, corpora={"a": ([], None)})
        with pytest.raises(ValueError, match="lengths differ"):
            LoadGenerator(router, corpora={
                "a": (tasks, np.zeros(len(tasks) + 1, np.int64))})
        with pytest.raises(ValueError, match="labels"):
            LoadGenerator(router, corpora={"a": (tasks, None)},
                          observe_every=2)
        with pytest.raises(ValueError, match="not both"):
            LoadGenerator(router, tasks, corpora={"a": (tasks, None)})


class TestRun:
    def test_report_shape_and_json(self, serve_setup):
        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        CellConfig(max_wait_us=200),
                                        trainer=False)
        with service:
            report = LoadGenerator(
                service, result.tasks, result.labels, rate=800,
                duration_s=0.5, pattern="bursty",
                rng=np.random.default_rng(7)).run()
        assert report.n_requests > 0
        assert report.n_completed == report.n_requests
        assert report.n_dropped == 0
        assert report.latency.count == report.n_completed
        assert report.latency.p50_us <= report.latency.p95_us \
            <= report.latency.p99_us <= report.latency.max_us
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_dropped"] == 0
        assert "p99_us" in payload["latency_us"]
        assert "bursty" in str(report)

    def test_multicell_run_zero_drops_zero_misroutes(self, pipeline_result,
                                                     constant_model):
        """ISSUE acceptance: an interleaved multi-cell run with a
        mid-stream per-cell hot-swap drops nothing and the audit finds
        zero cross-cell misroutes."""

        registry = pipeline_result.registry
        width = registry.features_count
        tasks = pipeline_result.tasks
        labels = np.zeros(len(tasks), dtype=np.int64)
        router = CellRouter(CellConfig(max_wait_us=200, n_workers=2))
        router.add_cell("east", constant_model(0, width), registry)
        router.add_cell("west", constant_model(1, width), registry)
        with router:
            report = LoadGenerator(
                router, corpora={"east": (tasks, labels),
                                 "west": (tasks, labels)},
                rate=2000, duration_s=0.8, swap_midstream=True,
                rng=np.random.default_rng(21)).run()
        assert report.n_dropped == 0
        assert report.n_misrouted == 0
        assert report.n_audited > 0
        # One forced hot-swap per cell, and both versions served.
        assert report.swaps == 2
        assert set(report.versions_served) == {1, 2}
        assert set(report.per_cell) == {"east", "west"}
        assert sum(report.per_cell.values()) == report.n_completed
        # Arrivals interleave evenly across cells.
        assert report.per_cell["east"] == pytest.approx(
            report.per_cell["west"], abs=1)
        payload = report.to_dict()
        assert payload["per_cell"] == report.per_cell
        assert payload["n_misrouted"] == 0
        assert "misrouted" in str(report)

    def test_multicell_observe_path(self, pipeline_result, constant_model):
        """observe_every in multi-cell mode feeds each cell's trainer."""

        from repro.sim import RetrainPolicy

        registry = pipeline_result.registry
        width = registry.features_count
        tasks = pipeline_result.tasks
        labels = np.asarray([i % 3 for i in range(len(tasks))], np.int64)
        router = CellRouter(CellConfig(max_wait_us=200))
        policy = RetrainPolicy(growth_threshold=10 ** 6,
                               min_observations=10 ** 6)
        router.add_cell("east", constant_model(0, width), registry,
                        trainer=True, policy=policy)
        router.add_cell("west", constant_model(1, width), registry,
                        trainer=True, policy=policy)
        with router:
            report = LoadGenerator(
                router, corpora={"east": (tasks, labels),
                                 "west": (tasks, labels)},
                rate=1000, duration_s=0.4, observe_every=2,
                rng=np.random.default_rng(22)).run()
        assert report.n_dropped == 0
        stats = router.stats()
        assert stats.observations > 0
        assert stats.cells["east"].observations > 0
        assert stats.cells["west"].observations > 0

    def test_sustains_5000_classifications_per_second(self, serve_setup):
        """ISSUE acceptance: ≥5,000/s on the small synthetic cell, p99
        reported, nothing dropped."""

        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        CellConfig(max_batch=64,
                                                   max_wait_us=500),
                                        trainer=False)
        with service:
            report = LoadGenerator(
                service, result.tasks, rate=9000, duration_s=1.5,
                rng=np.random.default_rng(11)).run()
        assert report.n_dropped == 0
        assert report.throughput_rps >= 5000, str(report)
        assert report.latency.p99_us > 0


class TestHttpClientRetry:
    """The wire client's stale-socket resilience: retry exactly once,
    and only for errors that mean the keep-alive socket went stale."""

    class _ScriptedConn:
        """HTTPConnection double: each request() follows a shared script
        of exceptions; a non-exception entry returns a 200."""

        def __init__(self, script, log):
            self.script = script
            self.log = log
            self.closed = False

        def request(self, method, path, body=None, headers=None):
            self.log.append("request")
            step = self.script.pop(0)
            if isinstance(step, Exception):
                raise step

        def getresponse(self):
            class _Resp:
                status = 200

                @staticmethod
                def read():
                    return b"{}"
            return _Resp()

        def close(self):
            self.closed = True

    def _client(self, monkeypatch, script):
        from repro.serve import loadgen

        log = []
        monkeypatch.setattr(
            loadgen, "HTTPConnection",
            lambda host, port, timeout=None:
                self._ScriptedConn(script, log))
        return loadgen._HttpClient("127.0.0.1", 1), log

    def test_connection_reset_retried_once(self, monkeypatch):
        client, log = self._client(
            monkeypatch, [ConnectionResetError("peer reset"), None])
        status, data = client.request("POST", "/classify", body=b"{}")
        assert status == 200
        assert log == ["request", "request"]

    def test_broken_pipe_retried_once(self, monkeypatch):
        client, log = self._client(
            monkeypatch, [BrokenPipeError("gone"), None])
        assert client.request("GET", "/healthz")[0] == 200
        assert log == ["request", "request"]

    def test_remote_disconnected_retried_once(self, monkeypatch):
        from http.client import RemoteDisconnected

        client, log = self._client(
            monkeypatch, [RemoteDisconnected("server reaped idle"), None])
        assert client.request("GET", "/metrics")[0] == 200
        assert log == ["request", "request"]

    def test_second_stale_failure_surfaces(self, monkeypatch):
        client, log = self._client(
            monkeypatch, [ConnectionResetError("a"),
                          ConnectionResetError("b")])
        with pytest.raises(ConnectionResetError, match="b"):
            client.request("POST", "/classify", body=b"{}")
        assert log == ["request", "request"]  # exactly one retry

    def test_non_stale_errors_are_never_resent(self, monkeypatch):
        import socket

        for error in (socket.timeout("slow server"),
                      ValueError("protocol violation")):
            client, log = self._client(monkeypatch, [error, None])
            with pytest.raises(type(error)):
                client.request("POST", "/classify", body=b"{}")
            assert log == ["request"], (
                f"{type(error).__name__} must not be resent")
