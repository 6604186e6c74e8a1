"""FeatureRegistry tests: append-only growth and the journal."""

from __future__ import annotations

import pytest

from repro.constraints import Constraint, ConstraintOperator, compact
from repro.datasets import FeatureRegistry


class TestObservation:
    def test_attribute_gets_none_column(self):
        reg = FeatureRegistry()
        assert reg.observe_attribute("AM") is True
        assert reg.features_count == 1
        assert reg.feature(0).label == "AM:(none)"

    def test_value_observation_adds_two_columns_first_time(self):
        reg = FeatureRegistry()
        assert reg.observe_value("AM", "5") is True
        assert reg.feature_labels() == ["AM:(none)", "AM:5"]

    def test_duplicates_ignored(self):
        reg = FeatureRegistry()
        reg.observe_value("AM", "5")
        assert reg.observe_value("AM", "5") is False
        assert reg.features_count == 2

    def test_append_only_ordering(self):
        reg = FeatureRegistry()
        reg.observe_value("AM", "5")
        reg.observe_value("zone", "a")
        reg.observe_value("AM", "7")
        assert reg.feature_labels() == [
            "AM:(none)", "AM:5", "zone:(none)", "zone:a", "AM:7"]
        assert reg.columns_of("AM") == [0, 1, 4]
        assert reg.values_of("AM") == [None, "5", "7"]

    def test_column_lookup(self):
        reg = FeatureRegistry()
        reg.observe_value("AM", 5)
        assert reg.column("AM") == 0
        assert reg.column("AM", "5") == 1
        assert reg.column("AM", "9") is None

    def test_observe_spec_registers_operands(self):
        reg = FeatureRegistry()
        task = compact([
            Constraint("AM", ConstraintOperator.GREATER_THAN, "3"),
            Constraint("AM", ConstraintOperator.LESS_THAN, "8")])
        added = reg.observe_task(task)
        # (none) + lo(4) + hi(7)
        assert added == 3
        assert ("AM", "4") in reg and ("AM", "7") in reg

    def test_observe_spec_equal_and_not_in(self):
        reg = FeatureRegistry()
        task = compact([
            Constraint("zone", ConstraintOperator.NOT_EQUAL, "a"),
            Constraint("zone", ConstraintOperator.NOT_EQUAL, "b")])
        reg.observe_task(task)
        labels = set(reg.feature_labels())
        assert {"zone:(none)", "zone:a", "zone:b"} <= labels

    def test_attributes_listing(self):
        reg = FeatureRegistry()
        reg.observe_value("b", "1")
        reg.observe_value("a", "1")
        assert reg.attributes() == ("b", "a")


class TestJournal:
    def test_steps_record_growth(self):
        reg = FeatureRegistry()
        reg.begin_step(0)
        reg.observe_value("AM", "1")
        record = reg.end_step()
        assert record.step_index == 0
        assert (record.features_before, record.features_after) == (0, 2)
        assert record.n_added == 2

        reg.begin_step(100)
        reg.observe_value("AM", "2")
        record2 = reg.end_step()
        assert record2.step_index == 1
        assert record2.n_added == 1
        assert [f.label for f in record2.added] == ["AM:2"]
        assert len(reg.journal) == 2

    def test_nested_steps_rejected(self):
        reg = FeatureRegistry()
        reg.begin_step(0)
        with pytest.raises(RuntimeError):
            reg.begin_step(1)

    def test_end_without_begin(self):
        with pytest.raises(RuntimeError):
            FeatureRegistry().end_step()


class TestHashSeedIndependence:
    def test_not_in_column_order_stable_across_hash_seeds(self):
        """Frozenset iteration order follows ``PYTHONHASHSEED``; the
        registry must not, or the CO-VV column order would change from
        run to run."""

        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        code = (
            "from repro.constraints import AttributeSpec\n"
            "from repro.datasets import FeatureRegistry\n"
            "reg = FeatureRegistry()\n"
            "reg.observe_spec(AttributeSpec('zone', not_in=frozenset("
            "'abcdefghijkl')))\n"
            "print(reg.feature_labels())\n")
        outs = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", code],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            outs.add(run.stdout.strip())
        assert len(outs) == 1, outs
