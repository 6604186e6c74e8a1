"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field

from common import pct


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics: name → (value, unit, sample count).
    metrics: dict = field(default_factory=dict)
    #: Per-layer figures the workload measured itself (not from spans).
    layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    #: Spans of a traced run (dicts, see ``tracing.FIELDS``).
    spans: list = field(default_factory=list)
    encode_tasks: int = 0
    encode_repeats: int = 0

    def metric(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def tail(self, latencies_ms) -> None:
        """Record the classify latency tail: printed in full, with p90
        and p99 kept for the traced run's ``tail.*`` figures (unbounded;
        the README says why the tail is not gated)."""

        values = {q: pct(latencies_ms, q) for q in (90, 95, 99, 99.9)}
        self.note("tail: " + ", ".join(f"p{q:g} {v:.3f}"
                                       for q, v in values.items())
                  + f" ms (n={len(latencies_ms)})")
        for q in (90, 99):
            self.layer[f"tail.classify_p{q}_ms"] = values[q]

    @property
    def error_rate(self) -> float:
        return self.failed / max(1, self.attempted)
