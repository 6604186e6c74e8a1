"""Crash-recovery drills: kill a serving stack (no graceful flush),
restart over the same state dir, and serve warm at the restored version
with zero misroutes and trainer warm-start continuity."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.datasets import COVVEncoder
from repro.serve import (CellCheckpoint, CellConfig, CellRouter,
                         CheckpointStore, CircuitBreaker,
                         ClassificationService)
from repro.errors import CircuitOpenError

from .test_supervise import ZeroJitter


def _wait_for_checkpoints(store: CheckpointStore, n: int = 1,
                          timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while len(store.checkpoint_paths()) < n and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(store.checkpoint_paths()) >= n, "checkpoint never landed"


class TestWarmRestart:
    def test_restart_serves_at_restored_version(self, serve_setup, tmp_path):
        model, result = serve_setup
        state_dir = tmp_path / "cell"
        first = ClassificationService(model, result.registry,
                                      trainer=False,
                                      state_dir=str(state_dir))
        with first:
            for task in result.tasks[:30]:
                first.classify(task, timeout=5)
            first.publish(model)  # v2
            first.publish(model)  # v3
        served_version = first.model_version
        assert served_version == 3
        assert first.stats().checkpoints >= 1  # close() flushed

        # "Restart": a fresh process would re-run pipeline setup and get
        # a cold registry + cold model; the checkpoint must supersede
        # both.
        fresh_registry = result.registry.__class__()
        second = ClassificationService(model, fresh_registry,
                                       trainer=False,
                                       state_dir=str(state_dir))
        assert second.restored_version == served_version
        assert second.model_version == served_version
        assert (fresh_registry.features_count
                == result.registry.features_count)
        with second:
            # Serving immediately, before any publish/retrain, at the
            # restored version — and routing exactly as the restored
            # snapshot predicts (zero misroutes).
            encoder = COVVEncoder(fresh_registry)
            snapshot = second.handle.snapshot()
            assert snapshot.version == served_version
            for task in result.tasks[:40]:
                request = second.classify(task, timeout=5)
                assert request.version == served_version
                row = encoder.encode_row_dense(task).reshape(1, -1)
                expected = int(snapshot.predict(snapshot.align(row))[0])
                assert request.group == expected, "misroute after restore"
            # Version numbering continues monotonically.
            second.publish(model)
            assert second.model_version == served_version + 1
            assert second.stats().restored_version == served_version

    def test_close_lands_the_final_checkpoint_last(self, serve_setup,
                                                   tmp_path):
        """A background save of an older version still in flight when
        close() runs must not land after close()'s final checkpoint."""

        model, result = serve_setup
        service = ClassificationService(model, result.registry,
                                        trainer=False,
                                        state_dir=str(tmp_path))
        store = service.store
        save, entered, gate = store.save, threading.Event(), threading.Event()

        def held_background_save(checkpoint):
            if (threading.current_thread().name
                    == "repro-serve-checkpointer" and not gate.is_set()):
                entered.set()
                gate.wait(10)
            return save(checkpoint)

        store.save = held_background_save
        service.start()  # the cold-start checkpoint of v1 is held
        try:
            assert entered.wait(5), "background writer never saved"
            service.publish(model)  # v2
            closer = threading.Thread(target=service.close)
            closer.start()
            time.sleep(0.1)
        finally:
            gate.set()
        closer.join(10)
        assert not closer.is_alive()
        assert CheckpointStore(tmp_path).load_latest().version == 2

    def test_recovery_without_graceful_flush(self, serve_setup, tmp_path):
        """A kill -9 never calls close(): recovery must work from the
        async checkpoints alone, while the dying process still holds
        the directory."""

        model, result = serve_setup
        state_dir = tmp_path / "cell"
        first = ClassificationService(model, result.registry,
                                      trainer=False,
                                      state_dir=str(state_dir))
        try:
            first.start()
            first.publish(model)  # v2 → async checkpoint
            _wait_for_checkpoints(first.store, 1)
            # The "restart" happens with zero cooperation from `first`.
            second = ClassificationService(model,
                                           result.registry.__class__(),
                                           trainer=False,
                                           state_dir=str(state_dir))
            assert second.restored_version == 2
            with second:
                request = second.classify(result.tasks[0], timeout=5)
                assert request.version == 2
        finally:
            first.close()

    def test_torn_and_corrupt_files_fall_back(self, serve_setup, tmp_path):
        """Kill -9 mid-checkpoint leaves a torn tmp and possibly a
        corrupt newest file; recovery quarantines and falls back."""

        model, result = serve_setup
        state_dir = tmp_path / "cell"
        first = ClassificationService(model, result.registry,
                                      trainer=False,
                                      state_dir=str(state_dir))
        with first:
            first.publish(model)  # v2
        good = max(first.store.checkpoint_paths())
        # Fake the interrupted writer: a half-written tmp plus a newer
        # final file whose payload was cut mid-write.
        (state_dir / ".ckpt-00000099-v9.ckpt.999.tmp").write_bytes(b"half")
        torn = state_dir / "ckpt-00000098-v9.ckpt"
        torn.write_bytes(good.read_bytes()[:128])

        second = ClassificationService(model, result.registry.__class__(),
                                       trainer=False,
                                       state_dir=str(state_dir))
        assert second.restored_version == 2  # fell back past the torn v9
        assert (state_dir / "quarantine" / torn.name).exists()
        assert second.stats().checkpoint_failures >= 1
        with second:
            assert second.classify(result.tasks[0], timeout=5).done

    def test_trainer_warm_state_round_trips(self, serve_setup, tmp_path):
        """The restored trainer resumes the checkpointed Adam moments
        and drift reference instead of starting cold."""

        model, result = serve_setup
        state_dir = tmp_path / "cell"
        opt_state = {
            "steps": [7],
            "m_w": [np.full((3, 2), 0.5, dtype=np.float32)],
            "v_w": [np.full((3, 2), 0.25, dtype=np.float32)],
            "m_b": [np.zeros(3, dtype=np.float32)],
            "v_b": [np.ones(3, dtype=np.float32)],
        }
        reference = {0: 12, 1: 30, 5: 2}
        CheckpointStore(state_dir).save(CellCheckpoint(
            version=4,
            features_count=model.features_count,
            model_bytes=model.state_bytes(),
            registry_features=result.registry.snapshot(),
            optimizer_state=opt_state,
            ref_label_counts=reference))

        service = ClassificationService(model, result.registry.__class__(),
                                        trainer=True,
                                        state_dir=str(state_dir))
        assert service.restored_version == 4
        restored_opt, restored_ref = service.trainer.checkpoint_state()
        assert restored_ref == reference
        assert restored_opt is not None
        assert restored_opt["steps"] == [7]
        np.testing.assert_array_equal(restored_opt["m_w"][0],
                                      opt_state["m_w"][0])
        service.close()


class TestRouterRecovery:
    def test_per_cell_state_dirs_and_isolation(self, serve_setup, tmp_path):
        model, result = serve_setup
        root = tmp_path / "state"
        router = CellRouter(state_dir=str(root))
        router.add_cell("cell-a", model, result.registry)
        registry_b = result.registry.__class__()
        registry_b.restore(result.registry.snapshot())
        router.add_cell("cell-b", model, registry_b)
        with router:
            router.publish("cell-a", model)  # cell-a at v2, cell-b at v1
            for task in result.tasks[:10]:
                router.classify("cell-a", task, timeout=5)
        assert (root / "cell-a").is_dir() and (root / "cell-b").is_dir()

        # Restart: each cell restores its own version from its own dir.
        restarted = CellRouter(state_dir=str(root))
        restarted.add_cell("cell-a", model, result.registry.__class__())
        restarted.add_cell("cell-b", model, result.registry.__class__())
        with restarted:
            assert restarted.model_version("cell-a") == 2
            assert restarted.model_version("cell-b") == 1
            stats = restarted.stats()
            assert stats.cells["cell-a"].restored_version == 2
            assert stats.cells["cell-b"].restored_version == 1
            assert stats.restored_version == 2

    def test_unsafe_cell_ids_get_distinct_dirs(self, serve_setup, tmp_path):
        model, result = serve_setup
        root = tmp_path / "state"
        router = CellRouter(state_dir=str(root))
        router.add_cell("a/b", model, result.registry)
        router.add_cell("a:b", model, result.registry.__class__())
        with router:
            pass
        cell_dirs = sorted(p.name for p in root.iterdir())
        assert len(cell_dirs) == 2  # no collision, nothing nested

    def test_tripped_cell_fails_fast_neighbours_serve(self, serve_setup):
        model, result = serve_setup
        router = CellRouter(CellConfig(supervise=True))
        router.add_cell("sick", model, result.registry)
        router.add_cell("healthy", model, result.registry.__class__())
        with router:
            breaker = router.service("sick").breaker
            assert breaker is not None and breaker.name == "sick"
            breaker.trip("failure_rate")
            with pytest.raises(CircuitOpenError) as exc_info:
                router.submit("sick", result.tasks[0])
            assert exc_info.value.cell == "sick"
            request = router.classify("healthy", result.tasks[0], timeout=5)
            assert request.done and request.error is None
            stats = router.stats()
            assert stats.cells["sick"].breaker_state == 2
            assert stats.cells["healthy"].breaker_state == 0
            assert stats.breaker_state == 2  # worst-cell aggregate

    def test_breaker_gates_and_recovers_on_probe(self, serve_setup):
        model, result = serve_setup
        breaker = CircuitBreaker(name="default", min_samples=2,
                                 backoff_s=0.05, rng=ZeroJitter())
        service = ClassificationService(model, result.registry,
                                        trainer=False, breaker=breaker)
        with service:
            breaker.trip("forced")
            with pytest.raises(CircuitOpenError):
                service.submit(result.tasks[0])
            assert breaker.rejected_total >= 1
            time.sleep(0.08)
            # Backoff expired: the next submission is the probe, it
            # succeeds, and the breaker closes.
            request = service.classify(result.tasks[0], timeout=5)
            assert request.done
            assert breaker.state == "closed"
            stats = service.stats()
            assert stats.breaker_trips == 1
            assert stats.breaker_rejected >= 1
