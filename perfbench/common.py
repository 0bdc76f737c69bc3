"""Shared pieces of the workloads: one operation's outcome and statistics."""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass, field
from typing import Any


@dataclass
class OpResult:
    """One unit of a workload's work, which took ``wall`` seconds.

    ``attempted`` and ``failed`` count the operations inside the unit (one
    shape's verdict, one program, one ``perform``); ``wrong`` counts the
    failures whose output was computed but did not match the expected value,
    as opposed to operations that raised.
    """

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    data: dict[str, Any] = field(default_factory=dict)

    def fail(self, wrong: bool) -> None:
        self.failed += 1
        self.wrong += int(wrong)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping ``cut`` of them at each end.

    The host's speed flips between two states for seconds at a time.  A
    median over samples then jumps from one state to the other as the
    share of slow samples crosses one half; a trimmed mean moves in
    proportion to that share and still drops stray outliers.
    """
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    kept = ordered[k:len(ordered) - k] or ordered
    return sum(kept) / len(kept)


class Histogram:
    """Latency samples in fixed buckets, so memory stays the same however
    many samples a run takes."""

    WIDTH = 1e-7  # 0.1 us
    BUCKETS = 50_000  # up to 5 ms; slower samples share the last bucket

    def __init__(self) -> None:
        self.counts = [0] * self.BUCKETS
        self.total = 0

    def add(self, seconds: float) -> None:
        self.counts[min(int(seconds / self.WIDTH), self.BUCKETS - 1)] += 1
        self.total += 1

    def tail(self) -> tuple[float, float]:
        """The highest of p99 and p90 with at least ten samples beyond it
        (else p50), as (percentile, seconds at the bucket's upper edge)."""
        for pct in (99, 90, 50):
            rank = self.total * pct // 100
            if self.total - rank - 1 >= 10 or pct == 50:
                seen = 0
                for i, c in enumerate(self.counts):
                    seen += c
                    if seen > rank:
                        return float(pct), (i + 1) * self.WIDTH
        return 50.0, 0.0


def deep_size(obj: Any) -> int:
    """Bytes of a state key: strings, bytes and numbers, and tuples or
    frozensets of them, counted recursively."""
    size = sys.getsizeof(obj)
    if isinstance(obj, (tuple, frozenset, list)):
        size += sum(deep_size(x) for x in obj)
    return size
