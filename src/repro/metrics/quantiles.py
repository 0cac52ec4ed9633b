"""Quantile summaries for latency/overhead distributions."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["Quantiles", "summarize"]


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (same convention as numpy default)."""
    if not sorted_values:
        raise ValueError("no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(sorted_values) - 1)
    frac = position - lower
    low, high = sorted_values[lower], sorted_values[upper]
    # ``low + frac * (high - low)`` is monotone in ``frac`` under floating
    # point rounding; clamping keeps the result inside the sample range.
    return min(max(low + frac * (high - low), low), high)


class Quantiles:
    """Collects samples and reports p50/p99/p99.9-style quantiles.

    Insertion is cheap by default: ``add`` *is* ``list.append`` (bound at
    construction), and sortedness is tracked by comparing the list length
    against the length at the last sort, so the per-sample hot path does
    no bookkeeping at all.  Reads re-sort lazily.
    """

    __slots__ = ("_values", "_sorted_len", "add")

    def __init__(self):
        self._values: list[float] = []
        #: Length of ``_values`` at the last sort; a mismatch means new
        #: samples arrived and a re-sort is needed.  (Samples are only
        #: ever appended, never removed or mutated in place.)
        self._sorted_len = 0
        #: Per-sample fast path: a bound ``list.append``.
        self.add = self._values.append

    def __len__(self) -> int:
        return len(self._values)

    def _ensure_sorted(self) -> None:
        if len(self._values) != self._sorted_len:
            self._values.sort()
            self._sorted_len = len(self._values)

    def quantile(self, q: float) -> float:
        self._ensure_sorted()
        return _quantile(self._values, q)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


def summarize(values: Iterable[float],
              quantiles: Sequence[float] = (0.5, 0.9, 0.99)) -> dict[str, float]:
    """One-shot summary dict for a collection of samples."""
    collected = sorted(values)
    if not collected:
        return {"count": 0}
    summary: dict[str, float] = {
        "count": len(collected),
        "mean": sum(collected) / len(collected),
        "min": collected[0],
        "max": collected[-1],
    }
    for q in quantiles:
        label = f"p{q * 100:g}".replace(".", "_")
        summary[label] = _quantile(collected, q)
    return summary
