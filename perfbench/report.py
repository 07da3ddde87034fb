"""Sample bookkeeping, summary statistics and result comparison."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

#: A tail is reported at the highest percentile with this many samples
#: beyond it; with fewer samples than twice this, there is no tail above
#: the median to report.
TAIL_MARGIN = 10


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """``(value, percentile)`` of the highest order statistic with
    :data:`TAIL_MARGIN` samples above it, or ``(None, None)``."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_MARGIN - 1
    if len(ordered) < 2 * TAIL_MARGIN:
        return None, None
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


@dataclass
class Ops:
    """Attempted and failed ops per kind, and the latency of each success.

    A failed op (HTTP error, failed job or output mismatch) adds no sample.
    """

    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: dict = field(default_factory=lambda: defaultdict(int))
    failed: dict = field(default_factory=lambda: defaultdict(int))
    mismatches: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def success(self, kind: str, **values: float) -> None:
        self.attempted[kind] += 1
        for name, value in values.items():
            self.samples[name].append(value)

    def failure(self, kind: str, reason: str, mismatch: bool = False) -> None:
        self.attempted[kind] += 1
        self.failed[kind] += 1
        (self.mismatches if mismatch else self.errors).append(f"{kind}: {reason}")


@dataclass
class Metric:
    name: str
    value: float | None
    unit: str
    samples: int
    note: str = ""

    def line(self, workload: str) -> str:
        value = "n/a" if self.value is None else f"{self.value:.6g}"
        note = f"  {self.note}" if self.note else ""
        return f"[{workload}] {self.name:<28} {value:>12} {self.unit:<6} n={self.samples}{note}"


def latency_metrics(prefix: str, values: list, unit: str = "ms") -> list[Metric]:
    """``<prefix>_p50_<unit>`` and ``<prefix>_tail_<unit>`` of one sample list."""
    tail_value, percentile = tail(values)
    note = (
        f"p{percentile:.1f}" if percentile is not None
        else f"needs >= {2 * TAIL_MARGIN} samples"
    )
    return [
        Metric(f"{prefix}_p50_{unit}", median(values), unit, len(values)),
        Metric(f"{prefix}_tail_{unit}", tail_value, unit, len(values), note),
    ]


def result_line(correct: bool, attempted: int, failed: int, metrics: list[Metric]) -> str:
    """The benchmark's last line of output."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": metric.value, "unit": metric.unit} for metric in metrics
        },
    })


def compare(first: dict, second: dict) -> list[str]:
    """Rows comparing two saved results (``run.py --out``) metric by metric."""
    rows = []
    for workload, metrics in first["metrics"].items():
        other = second["metrics"].get(workload, {})
        for name, entry in metrics.items():
            if name not in other or entry["value"] in (None, 0):
                continue
            change = other[name]["value"] / entry["value"] - 1.0
            rows.append(
                f"{workload:<12} {name:<28} {entry['value']:>12.6g} -> "
                f"{other[name]['value']:<12.6g} {change:+.1%}"
            )
    return rows
