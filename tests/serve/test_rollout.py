"""Staged rollout: shadow gate, canary split, auto-rollback, drift.

The rollback drill the control plane exists for: a candidate that is
healthy through the shadow gate but regresses under live traffic must
be demoted within one evaluation window, with the incumbent never
displaced, every request accounted for exactly once, and the episode
visible in the event log and the Prometheus exposition.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import (CandidateRoute, ClassificationService, ModelHandle,
                         ReplayRing, RolloutController, RolloutPolicy,
                         Telemetry, render_prometheus)
from repro.sim import RetrainPolicy

from .conftest import WsgiClient
from .faults import RegressingModel, assert_exactly_once


def _drive(service, tasks, until, max_rounds=20):
    """Serve the corpus repeatedly until ``until()`` or the round cap."""

    submitted = 0
    for _ in range(max_rounds):
        for task in tasks:
            request = service.submit(task)
            submitted += 1
            assert request.wait(10.0), "classification timed out"
        if until():
            return submitted
    raise AssertionError("rollout never reached a decision")


class TestRolloutPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RolloutPolicy(canary_fraction=1.5)
        with pytest.raises(ValueError):
            RolloutPolicy(canary_fraction=-0.1)
        with pytest.raises(ValueError):
            RolloutPolicy(canary_window=0)
        with pytest.raises(ValueError):
            RolloutPolicy(rollback_on=("accuracy", "latency"))
        # Shadow-only mode (canary_fraction=0) is a valid policy.
        assert RolloutPolicy(canary_fraction=0.0).canary_fraction == 0.0

    def test_parse_rollback_on(self):
        assert RolloutPolicy.parse_rollback_on(
            "accuracy, agreement") == ("accuracy", "agreement")
        with pytest.raises(ValueError):
            RolloutPolicy.parse_rollback_on("")
        with pytest.raises(ValueError):
            RolloutPolicy.parse_rollback_on("accuracy,latency")


class TestReplayRing:
    def test_bounded_with_running_totals(self, pipeline_result):
        ring = ReplayRing(capacity=4)
        ring.extend(pipeline_result.tasks[:10])
        assert len(ring) == 4
        assert ring.sample() == pipeline_result.tasks[6:10]
        assert ring.appended_total == 10

    def test_labeled_subset(self, pipeline_result):
        ring = ReplayRing(capacity=8)
        for task, label in zip(pipeline_result.tasks[:5],
                               pipeline_result.labels[:5]):
            ring.observe(task, int(label))
        tasks, labels = ring.labeled()
        assert tasks == pipeline_result.tasks[:5]
        assert labels.dtype == np.int64
        assert ring.labeled_total == 5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReplayRing(capacity=0)


class TestCandidateRoute:
    def test_split_is_deterministic_per_task(self, serve_setup):
        model, result = serve_setup
        snapshot = ModelHandle(model).snapshot()
        route = CandidateRoute(snapshot, 0.25)
        first = [route.takes(task) for task in result.tasks]
        assert first == [route.takes(task) for task in result.tasks]

    def test_boundary_fractions(self, serve_setup):
        model, result = serve_setup
        snapshot = ModelHandle(model).snapshot()
        all_of_it = CandidateRoute(snapshot, 1.0)
        none_of_it = CandidateRoute(snapshot, 0.0)
        assert all(all_of_it.takes(task) for task in result.tasks)
        assert not any(none_of_it.takes(task) for task in result.tasks)

    def test_fraction_converges_over_the_corpus(self, serve_setup):
        model, result = serve_setup
        route = CandidateRoute(ModelHandle(model).snapshot(), 0.5)
        share = np.mean([route.takes(task) for task in result.tasks])
        assert 0.3 < share < 0.7


class TestHandleStaging:
    def test_stage_keeps_incumbent_serving(self, constant_model):
        handle = ModelHandle(constant_model(0, 8))
        staged = handle.stage(constant_model(1, 8), 0.5)
        assert staged.version == 2
        assert handle.version == 1  # incumbent untouched
        assert handle.candidate_version == 2
        # The candidate is auditable while (and after) it serves.
        assert handle.snapshot_for(2) is staged

    def test_promote_swaps_atomically(self, constant_model):
        handle = ModelHandle(constant_model(0, 8))
        staged = handle.stage(constant_model(1, 8), 0.5)
        promoted = handle.promote()
        assert promoted is staged
        assert handle.version == 2
        assert handle.candidate_route() is None
        with pytest.raises(RuntimeError):
            handle.promote()

    def test_demote_restores_and_retains(self, constant_model):
        handle = ModelHandle(constant_model(0, 8))
        staged = handle.stage(constant_model(1, 8), 0.5)
        assert handle.demote() is staged
        assert handle.demote() is None
        assert handle.version == 1
        # Demotion never forgets the candidate: audits still resolve it.
        assert handle.snapshot_for(2) is staged

    def test_direct_publish_supersedes_canary(self, constant_model):
        handle = ModelHandle(constant_model(0, 8))
        handle.stage(constant_model(1, 8), 0.5)
        handle.publish(constant_model(2, 8))
        assert handle.candidate_route() is None
        assert handle.version == 3

    def test_stage_fraction_validation(self, constant_model):
        handle = ModelHandle(constant_model(0, 8))
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                handle.stage(constant_model(1, 8), fraction)


def _controller(model, result, policy, telemetry=None):
    from repro.analysis.concur.runtime import new_lock

    handle = ModelHandle()
    handle.publish(model, clone=True)
    return RolloutController(handle, result.registry,
                             registry_lock=new_lock("test.registry_lock"),
                             policy=policy, telemetry=telemetry)


class TestShadowGate:
    def test_cold_ring_skips_the_gate(self, serve_setup):
        model, result = serve_setup
        controller = _controller(model, result,
                                 RolloutPolicy(canary_fraction=0.0,
                                               min_shadow=64))
        outcome = controller.offer(model.clone())
        assert outcome.stage == "published"
        assert outcome.verdict.skipped
        assert controller.handle.version == 2

    def test_regressing_candidate_is_rejected_off_path(self, serve_setup):
        model, result = serve_setup
        telemetry = Telemetry(n_shards=1)
        controller = _controller(
            model, result,
            RolloutPolicy(canary_fraction=0.25, min_shadow=32,
                          min_labeled=8),
            telemetry=telemetry)
        controller.ring.extend(result.tasks[:200])
        for task, label in zip(result.tasks[:50], result.labels[:50]):
            controller.ring.observe(task, int(label))
        bad = RegressingModel(model.clone())
        bad.trip()  # already regressing: the shadow gate must catch it
        outcome = controller.offer(bad)
        assert outcome.stage == "shadow_rejected"
        assert not outcome.accepted
        assert "agreement" in outcome.verdict.reasons
        assert controller.handle.version == 1  # incumbent untouched
        assert controller.handle.candidate_route() is None
        assert controller.counters()["rollouts_shadow_rejected"] == 1
        rejected = [e for e in telemetry.events.tail()
                    if e.kind == "shadow_rejected"]
        assert rejected and "agreement" in rejected[0].fields["reasons"]

    def test_healthy_candidate_passes_and_stages(self, serve_setup):
        model, result = serve_setup
        controller = _controller(
            model, result,
            RolloutPolicy(canary_fraction=0.25, min_shadow=32,
                          min_labeled=8))
        controller.ring.extend(result.tasks[:200])
        for task, label in zip(result.tasks[:50], result.labels[:50]):
            controller.ring.observe(task, int(label))
        outcome = controller.offer(model.clone())
        assert outcome.stage == "canary"
        assert outcome.verdict.details["agreement"] == 1.0
        assert controller.handle.candidate_version == outcome.snapshot.version
        # A second candidate cannot jump the queue mid-canary.
        second = controller.offer(model.clone())
        assert second.stage == "canary_in_progress"
        assert not second.accepted

    def test_improved_candidate_overrides_agreement(
            self, constant_model, serve_setup):
        """A retrain that genuinely improved must disagree with the
        incumbent it outgrew; with labels proving accuracy holds, the
        agreement proxy records an override instead of rejecting."""

        from repro.datasets.co_vv import COVVEncoder

        _model, result = serve_setup
        width = COVVEncoder(result.registry).encode_rows(
            result.tasks[:1]).shape[1]
        incumbent = constant_model(0, width)  # always wrong below
        controller = _controller(
            incumbent, result,
            RolloutPolicy(canary_fraction=0.25, min_shadow=32,
                          min_labeled=8))
        controller.ring.extend(result.tasks[:200])
        for task in result.tasks[:50]:
            controller.ring.observe(task, 1)
        outcome = controller.offer(constant_model(1, width))
        assert outcome.stage == "canary", outcome.verdict
        assert outcome.verdict.ok and not outcome.verdict.reasons
        details = outcome.verdict.details
        assert details["agreement"] == 0.0  # total disagreement...
        assert details["accuracy_candidate"] == 1.0  # ...because better
        assert details["accuracy_incumbent"] == 0.0
        assert details["labeled_override"] == "agreement"
        # Without labels the proxy binds again and the gate rejects.
        bare = _controller(
            constant_model(0, width), result,
            RolloutPolicy(canary_fraction=0.25, min_shadow=32,
                          min_labeled=8))
        bare.ring.extend(result.tasks[:200])
        rejected = bare.offer(constant_model(1, width))
        assert rejected.stage == "shadow_rejected"
        assert rejected.verdict.reasons == ("agreement",)


@pytest.fixture()
def rollout_service(serve_setup):
    model, result = serve_setup
    policy = RolloutPolicy(canary_fraction=0.5, shadow_window=256,
                           min_shadow=16, canary_window=32,
                           promote_after=1, min_labeled=8)
    service = ClassificationService(model, result.registry, trainer=False,
                                    rollout=policy, n_workers=2,
                                    max_batch=16, max_wait_us=200).start()
    yield service, model, result
    service.close()


class TestCanaryLifecycle:
    def _warm_up(self, service, result):
        for task in result.tasks[:64]:
            assert service.submit(task).wait(10.0)
        for task, label in zip(result.tasks[:32], result.labels[:32]):
            service.rollout.ring.observe(task, int(label))

    def test_healthy_candidate_promotes(self, rollout_service):
        service, model, result = rollout_service
        self._warm_up(service, result)
        outcome = service.rollout.offer(model.clone())
        assert outcome.stage == "canary"
        staged_version = outcome.snapshot.version
        _drive(service, result.tasks,
               lambda: not service.rollout.canary_active())
        counters = service.rollout.counters()
        assert counters["rollouts_promoted"] == 1
        assert counters["rollouts_rolled_back"] == 0
        assert service.handle.version == staged_version
        assert service.batcher.canary_served_total > 0
        promotes = [e for e in service.telemetry.events.tail()
                    if e.kind == "promote"]
        assert promotes and promotes[0].fields["version"] == staged_version

    def test_rollback_drill(self, rollout_service):
        """The bad-publish fire drill: regression demoted within one
        window, incumbent keeps serving, zero lost or misrouted."""

        service, model, result = rollout_service
        self._warm_up(service, result)
        incumbent_version = service.handle.version
        bad = RegressingModel(model.clone())
        outcome = service.rollout.offer(bad)
        assert outcome.stage == "canary", outcome.verdict
        bad_version = outcome.snapshot.version
        bad.trip()  # regress only under live traffic
        submitted = 64 + _drive(service, result.tasks,
                                lambda: not service.rollout.canary_active())

        counters = service.rollout.counters()
        assert counters["rollouts_rolled_back"] == 1
        assert counters["rollouts_promoted"] == 0
        # The incumbent was never displaced and keeps serving.
        assert service.handle.version == incumbent_version
        assert service.handle.candidate_route() is None
        rollbacks = [e for e in service.telemetry.events.tail()
                     if e.kind == "rollback"]
        assert len(rollbacks) == 1
        assert rollbacks[0].fields["version"] == bad_version
        assert "agreement" in rollbacks[0].fields["reasons"]
        # Canary-served requests reported the candidate's real version,
        # and that version stays auditable after the demotion.
        served = dict(service.batcher.versions_served)
        assert served.get(bad_version, 0) > 0
        assert service.handle.snapshot_for(bad_version) is outcome.snapshot
        # Demotion is bounded: one evaluation window, not a long bleed.
        window = service.rollout.policy.canary_window
        batch = service.batcher.max_batch
        assert served[bad_version] < 2 * (window + 2 * batch)
        # Every submission ended in exactly one counter; none failed.
        assert_exactly_once(service.batcher, submitted)
        assert service.batcher.counters()["failed"] == 0

    def test_swap_storm_keeps_versions_monotone(self, rollout_service):
        """Alternating healthy and regressing candidates: versions stay
        strictly monotone, every episode resolves, nothing is lost."""

        service, model, result = rollout_service
        self._warm_up(service, result)
        submitted = 64
        staged_versions = []
        for round_no in range(4):
            regressing = round_no % 2 == 1
            candidate = (RegressingModel(model.clone()) if regressing
                         else model.clone())
            outcome = service.rollout.offer(candidate)
            assert outcome.stage == "canary", outcome.verdict
            staged_versions.append(outcome.snapshot.version)
            if regressing:
                candidate.trip()
            submitted += _drive(service, result.tasks,
                                lambda: not service.rollout.canary_active())
        assert staged_versions == sorted(set(staged_versions))
        counters = service.rollout.counters()
        assert counters["rollouts_staged"] == 4
        assert counters["rollouts_promoted"] == 2
        assert counters["rollouts_rolled_back"] == 2
        assert_exactly_once(service.batcher, submitted)

    def test_canary_fraction_converges(self, serve_setup):
        model, result = serve_setup
        # A window far larger than the corpus: the canary stays open for
        # the whole pass, so the live split can be measured end to end.
        policy = RolloutPolicy(canary_fraction=0.5, shadow_window=256,
                               min_shadow=16, canary_window=10**6)
        service = ClassificationService(model, result.registry,
                                        trainer=False, rollout=policy,
                                        n_workers=2, max_batch=16,
                                        max_wait_us=200).start()
        try:
            self._warm_up(service, result)
            outcome = service.rollout.offer(model.clone())
            assert outcome.stage == "canary"
            for task in result.tasks:
                assert service.submit(task).wait(10.0)
            served = dict(service.batcher.versions_served)
            canary = served.get(outcome.snapshot.version, 0)
            share = canary / len(result.tasks)
            # Hash split at fraction 0.5, binomial over the corpus.
            assert 0.3 < share < 0.7
        finally:
            service.close()

    def test_window_promotes_improved_candidate_on_labels(
            self, constant_model, serve_setup):
        """The canary window applies the same labelled override as the
        shadow gate: a fully-disagreeing window promotes when labels
        prove the candidate improved (the disagreement IS the fix)."""

        from repro.datasets.co_vv import COVVEncoder

        _model, result = serve_setup
        width = COVVEncoder(result.registry).encode_rows(
            result.tasks[:1]).shape[1]
        telemetry = Telemetry(n_shards=1)
        controller = _controller(
            constant_model(0, width), result,
            RolloutPolicy(canary_fraction=0.5, min_shadow=32,
                          canary_window=64, promote_after=1,
                          min_labeled=8),
            telemetry=telemetry)
        controller.ring.extend(result.tasks[:200])
        for task in result.tasks[:50]:
            controller.ring.observe(task, 1)
        outcome = controller.offer(constant_model(1, width))
        assert outcome.stage == "canary", outcome.verdict
        version = outcome.snapshot.version
        # One full window of live canary rows, all disagreeing.
        controller.note_canary(version, n=64, agree=0,
                               cand_conf=0.0, inc_conf=0.0, conf_n=0)
        assert controller.handle.version == version  # promoted
        assert controller.counters()["rollouts_promoted"] == 1
        promotes = [e for e in telemetry.events.tail()
                    if e.kind == "promote"]
        assert promotes and (promotes[0].fields["labeled_override"]
                             == "agreement")
        assert promotes[0].fields["agreement"] == 0.0


class TestTrainerResilience:
    def test_crashing_retrain_does_not_kill_the_thread(self, serve_setup,
                                                       monkeypatch):
        from repro.serve import BackgroundTrainer

        model, result = serve_setup
        handle = ModelHandle()
        handle.publish(model, clone=True)
        telemetry = Telemetry(n_shards=1)
        trainer = BackgroundTrainer(
            handle, result.registry,
            policy=RetrainPolicy(growth_threshold=4, min_observations=50),
            poll_interval_s=0.01, retry_backoff_s=0.01,
            telemetry=telemetry, rng=np.random.default_rng(11))
        monkeypatch.setattr(trainer, "_shadow_model",
                            lambda: (_ for _ in ()).throw(
                                RuntimeError("injected retrain crash")))
        trainer.start()
        try:
            for task, label in zip(result.tasks, result.labels):
                trainer.observe(task, int(label))
            deadline = time.monotonic() + 30.0
            while (trainer.consecutive_failures < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            alive_while_failing = trainer.alive
            trainer.stop(timeout=10)
        assert alive_while_failing, "crashing retrain killed the trainer"
        assert trainer.consecutive_failures >= 2
        assert trainer.failed_updates >= 2
        assert handle.version == 1  # incumbent never displaced
        failures = [e for e in telemetry.events.tail()
                    if e.kind == "retrain_failed"]
        assert failures
        assert failures[0].fields["error"] == "RuntimeError"
        assert failures[0].fields["backoff_s"] > 0

    def test_backoff_grows_exponentially(self, serve_setup):
        from repro.serve import BackgroundTrainer

        model, result = serve_setup
        handle = ModelHandle()
        handle.publish(model, clone=True)
        trainer = BackgroundTrainer(handle, result.registry,
                                    retry_backoff_s=1.0, max_backoff_s=8.0,
                                    rng=np.random.default_rng(0))
        delays = []
        for _ in range(6):
            trainer._note_crashed(RuntimeError("injected"))
            delays.append(trainer._not_before - time.monotonic())
        # Base doubles 1, 2, 4, 8 then the cap binds; jitter stretches
        # each by up to 1.5x but never below the un-jittered base.
        assert 0.9 <= delays[0] <= 1.6
        assert delays[1] >= 1.9
        assert delays[2] >= 3.9
        assert delays[3] >= 7.9
        assert max(delays) <= 12.1
        assert trainer.consecutive_failures == 6

    def test_wedged_trainer_flips_healthz_503(self, serve_setup):
        from repro.serve import create_app

        model, result = serve_setup
        service = ClassificationService(
            model, result.registry, trainer=True,
            policy=RetrainPolicy(growth_threshold=10**6,
                                 min_observations=10**6),
            rng=np.random.default_rng(0)).start()
        try:
            client = WsgiClient(create_app(service))
            assert client.get("/healthz").status_code == 200
            # Wedge the trainer: alive, but past the crash threshold.
            with service.trainer._lock:
                service.trainer._consecutive_failures = \
                    service.trainer.max_consecutive_failures
            response = client.get("/healthz")
            assert response.status_code == 503
            failed = [c for c in response.get_json()["checks"]
                      if not c["ok"]]
            assert [c["check"] for c in failed] == ["trainer_failures"]
            assert failed[0]["threshold"] == \
                service.trainer.max_consecutive_failures
        finally:
            service.close()


class TestDriftTrigger:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetrainPolicy(drift_threshold=0.0)
        with pytest.raises(ValueError):
            RetrainPolicy(drift_threshold=1.5)
        assert RetrainPolicy(drift_threshold=0.3).drift_threshold == 0.3

    def test_due_on_drift_without_growth(self):
        policy = RetrainPolicy(growth_threshold=10**6, min_observations=10,
                               drift_threshold=0.2)
        assert not policy.due(100, 50, 50, drift=0.1)
        assert policy.due(100, 50, 50, drift=0.3)
        # The observation floor still gates a drift trigger.
        assert not policy.due(5, 50, 50, drift=0.9)

    def test_trainer_measures_label_shift(self, serve_setup):
        from repro.serve import BackgroundTrainer

        model, result = serve_setup
        handle = ModelHandle()
        handle.publish(model, clone=True)
        trainer = BackgroundTrainer(
            handle, result.registry,
            policy=RetrainPolicy(growth_threshold=10**6, min_observations=8,
                                 drift_threshold=0.25),
            max_buffer=len(result.tasks),
            rng=np.random.default_rng(21))
        assert trainer.drift() == 0.0  # no reference before first retrain
        for task, label in zip(result.tasks, result.labels):
            trainer.observe(task, int(label))
        assert trainer.train_once() is not None
        baseline = trainer.drift()
        assert baseline < 0.25  # same window as the reference: no drift
        assert not trainer.due()
        # A label-mix shift (every new arrival lands in one group) slides
        # the window away from the reference until the trigger arms.
        minority = int(np.argmin(np.bincount(result.labels)))
        for task in result.tasks:
            trainer.observe(task, minority)
        assert trainer.drift() > baseline
        assert trainer.drift() > 0.25
        assert trainer.due()


class TestWarmStart:
    def test_second_retrain_resumes_adam(self, serve_setup):
        from repro.serve import BackgroundTrainer

        model, result = serve_setup
        handle = ModelHandle()
        handle.publish(model, clone=True)
        trainer = BackgroundTrainer(handle, result.registry,
                                    rng=np.random.default_rng(31))
        for task, label in zip(result.tasks, result.labels):
            trainer.observe(task, int(label))
        first = trainer.train_once()
        assert first is not None
        assert not first.warm_started  # no prior optimizer state
        second = trainer.train_once()
        assert second is not None
        assert second.warm_started
        assert second.accuracy > 0.9
        assert second.version > first.version

    def test_warm_start_off_stays_cold(self, serve_setup):
        from repro.serve import BackgroundTrainer

        model, result = serve_setup
        handle = ModelHandle()
        handle.publish(model, clone=True)
        trainer = BackgroundTrainer(handle, result.registry,
                                    warm_start=False,
                                    rng=np.random.default_rng(31))
        for task, label in zip(result.tasks, result.labels):
            trainer.observe(task, int(label))
        assert not trainer.train_once().warm_started
        assert not trainer.train_once().warm_started

    def test_optimizer_state_round_trip(self, serve_setup):
        model, _result = serve_setup
        state = model.last_optimizer_state
        assert state is not None
        assert {"steps", "m_w", "v_w", "m_b", "v_b"} <= set(state)
        assert all(steps > 0 for steps in state["steps"])  # per layer


@pytest.mark.slow
class TestCanarySoak:
    def test_one_rollback_one_promotion_in_metrics(self, serve_setup):
        """The CI drill: inject one regressing and one healthy candidate
        under sustained traffic; exactly one rollback and one promotion
        must land, and both must be visible in the exposition."""

        model, result = serve_setup
        policy = RolloutPolicy(canary_fraction=0.5, shadow_window=256,
                               min_shadow=16, canary_window=32,
                               min_labeled=8)
        service = ClassificationService(model, result.registry,
                                        trainer=False, rollout=policy,
                                        n_workers=2, max_batch=16,
                                        max_wait_us=200).start()
        try:
            for task in result.tasks[:64]:
                assert service.submit(task).wait(10.0)
            for task, label in zip(result.tasks[:32], result.labels[:32]):
                service.rollout.ring.observe(task, int(label))

            bad = RegressingModel(model.clone())
            assert service.rollout.offer(bad).stage == "canary"
            bad.trip()
            _drive(service, result.tasks,
                   lambda: not service.rollout.canary_active())
            good = service.rollout.offer(model.clone())
            assert good.stage == "canary"
            _drive(service, result.tasks,
                   lambda: not service.rollout.canary_active())

            assert service.handle.version == good.snapshot.version
            text = render_prometheus(
                {"default": service.stats().to_dict()},
                events={"default": service.telemetry.events})
            assert ('repro_serve_rollouts_rolled_back_total'
                    '{cell="default"} 1') in text
            assert ('repro_serve_rollouts_promoted_total'
                    '{cell="default"} 1') in text
            assert ('repro_serve_rollouts_staged_total'
                    '{cell="default"} 2') in text
        finally:
            service.close()
