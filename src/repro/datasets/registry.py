"""Append-only feature registry for the CO-VV encoding.

The CO-VV dataset gives every ``(attribute, value)`` pair — plus one
``(attribute, (none))`` column per attribute — a feature column.  New
values observed during cluster operation are **appended as the last
column** (paper Section IV: "for traceability and simplicity, new
attribute values are appended as the last column"), which is precisely
what lets the growing model extend its input layer by right-padding.

:class:`FeatureRegistry` maintains that append-only mapping and a growth
journal (one :class:`GrowthRecord` per step) that the continuous-learning
driver uses to decide when retraining is due — the Table XI step log.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constraints.compaction import AttributeSpec, CompactedTask
from ..constraints.operators import parse_value

__all__ = ["Feature", "GrowthRecord", "FeatureRegistry", "NONE_VALUE"]

#: Sentinel value-slot for the per-attribute "(none)" column.
NONE_VALUE = None


@dataclass(frozen=True, slots=True)
class Feature:
    """One feature column: an attribute's value (or its absence column)."""

    attribute: str
    value: str | None  # None = the "(none)" column

    @property
    def label(self) -> str:
        return f"{self.attribute}:(none)" if self.value is None \
            else f"{self.attribute}:{self.value}"


@dataclass(slots=True)
class GrowthRecord:
    """One feature-array extension (one Table XI step)."""

    step_index: int
    time: int
    features_before: int
    features_after: int
    added: tuple[Feature, ...] = ()

    @property
    def n_added(self) -> int:
        return self.features_after - self.features_before


class FeatureRegistry:
    """Append-only ``Feature → column index`` map with a growth journal."""

    def __init__(self) -> None:
        self._features: list[Feature] = []
        self._index: dict[tuple[str, str | None], int] = {}
        self._journal: list[GrowthRecord] = []
        self._step_open = False
        self._step_start = 0
        self._step_time = 0
        self._step_index = 0

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _add(self, attribute: str, value: str | None) -> bool:
        key = (attribute, value)
        if key in self._index:
            return False
        self._index[key] = len(self._features)
        self._features.append(Feature(attribute, value))
        return True

    def observe_attribute(self, attribute: str) -> bool:
        """Ensure the attribute's "(none)" column exists."""

        return self._add(attribute, NONE_VALUE)

    def observe_value(self, attribute: str, value) -> bool:
        """Ensure columns for the attribute and one concrete value."""

        value = parse_value(value)
        if value is None:
            return self.observe_attribute(attribute)
        added = self.observe_attribute(attribute)
        return self._add(attribute, value) or added

    def observe_spec(self, spec: AttributeSpec) -> int:
        """Register every value a collapsed constraint mentions; returns #new."""

        added = int(self.observe_attribute(spec.attribute))
        values: list[str] = []
        if spec.has_equal and spec.equal is not None:
            values.append(spec.equal)
        values.extend(sorted(spec.not_in))
        if spec.lo is not None:
            values.append(str(spec.lo))
        if spec.hi is not None:
            values.append(str(spec.hi))
        for value in values:
            added += int(self._add(spec.attribute, value))
        return added

    def observe_task(self, task: CompactedTask) -> int:
        """Register a whole task's constraint vocabulary; returns #new."""

        return sum(self.observe_spec(spec) for spec in task)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def features_count(self) -> int:
        return len(self._features)

    def column(self, attribute: str, value=NONE_VALUE) -> int | None:
        """Column index of (attribute, value), or None if unregistered."""

        return self._index.get((attribute, parse_value(value)))

    def feature(self, column: int) -> Feature:
        return self._features[column]

    def features(self) -> tuple[Feature, ...]:
        return tuple(self._features)

    def feature_labels(self) -> list[str]:
        return [f.label for f in self._features]

    # ------------------------------------------------------------------
    # durable snapshot / warm-restart
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[tuple[str, str | None], ...]:
        """The full column mapping as ``(attribute, value)`` pairs.

        Column order is the identity of the CO-VV encoding, so a
        checkpointed snapshot replayed through :meth:`restore` rebuilds
        byte-identical feature indices — what lets a restarted cell
        serve a restored model against a freshly-loaded registry.
        """

        return tuple((f.attribute, f.value) for f in self._features)

    def restore(self, features) -> int:
        """Replay a :meth:`snapshot` in column order; returns #appended.

        Existing columns must match the snapshot prefix exactly (the
        registry is append-only, so a divergence means the checkpoint
        belongs to a different cell corpus) — new columns beyond the
        current width are appended.  A snapshot *narrower* than the
        current registry is fine: live growth since the checkpoint just
        stays in place.
        """

        added = 0
        for column, (attribute, value) in enumerate(features):
            if column < len(self._features):
                existing = self._features[column]
                if (existing.attribute, existing.value) != (attribute, value):
                    raise ValueError(
                        f"registry snapshot mismatch at column {column}: "
                        f"checkpoint has {attribute}:{value!r}, registry "
                        f"has {existing.attribute}:{existing.value!r}")
                continue
            added += int(self._add(attribute, value))
        return added

    def columns_of(self, attribute: str) -> list[int]:
        """All column indices belonging to one attribute (any order of growth)."""

        return [i for i, f in enumerate(self._features)
                if f.attribute == attribute]

    def values_of(self, attribute: str) -> list[str | None]:
        """The attribute's registered values, in column order (None first
        only if the attribute was registered before any value)."""

        return [f.value for f in self._features if f.attribute == attribute]

    def attributes(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for f in self._features:
            seen.setdefault(f.attribute)
        return tuple(seen)

    # ------------------------------------------------------------------
    # growth journal
    # ------------------------------------------------------------------
    def begin_step(self, time: int) -> None:
        """Open a growth step; new features from here get journalled to it."""

        if self._step_open:
            raise RuntimeError("previous growth step is still open")
        self._step_open = True
        self._step_start = len(self._features)
        self._step_time = time

    def end_step(self) -> GrowthRecord:
        """Close the current step; returns its GrowthRecord."""

        if not self._step_open:
            raise RuntimeError("no growth step is open")
        record = GrowthRecord(
            step_index=self._step_index, time=self._step_time,
            features_before=self._step_start,
            features_after=len(self._features),
            added=tuple(self._features[self._step_start:]))
        self._journal.append(record)
        self._step_open = False
        self._step_index += 1
        return record

    @property
    def journal(self) -> tuple[GrowthRecord, ...]:
        return tuple(self._journal)

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, key: tuple[str, str | None]) -> bool:
        return (key[0], parse_value(key[1])) in self._index
