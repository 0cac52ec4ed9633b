"""A per-simulation registry binding counters and series to components."""

from __future__ import annotations

from typing import Optional

from .counters import CounterSet
from .quantiles import Quantiles
from .timeline import TimeSeries

__all__ = ["MetricsRegistry", "PrefixCounterView"]


class PrefixCounterView:
    """Read-only aggregation over every scope under one prefix."""

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self.prefix = prefix

    def get(self, name: str, tag=None) -> float:
        return self._registry.aggregate(name, scope_prefix=self.prefix,
                                        tag=tag)


class MetricsRegistry:
    """Central sink for everything a simulation run measures.

    Components ask for scoped counter sets (one per instance) and shared
    time series; experiment harnesses read them back after the run.  This
    mirrors the paper's monitoring system that aggregates per-instance
    signals cluster-wide.  It measures and nothing else: the run's
    tracer and splice governor live on its :class:`repro.run.RunRecord`.
    """

    def __init__(self, bucket_width: float = 1.0):
        self.bucket_width = bucket_width
        self.global_counters = CounterSet()
        self._scoped: dict[str, CounterSet] = {}
        self._series: dict[str, TimeSeries] = {}
        self._quantiles: dict[str, Quantiles] = {}

    # -- counters -----------------------------------------------------------

    def scoped_counters(self, scope: str) -> CounterSet:
        """Counter set for one component instance (e.g. ``edge-proxy-3``)."""
        if scope not in self._scoped:
            self._scoped[scope] = CounterSet()
        return self._scoped[scope]

    def scopes(self, prefix: str = "") -> list[str]:
        return sorted(s for s in self._scoped if s.startswith(prefix))

    def aggregate(self, name: str, scope_prefix: str = "",
                  tag: Optional[str] = None) -> float:
        """Sum a counter across every scope matching ``scope_prefix``."""
        return sum(
            counters.get(name, tag=tag)
            for scope, counters in self._scoped.items()
            if scope.startswith(scope_prefix)
        )

    def prefix_counters(self, prefix: str) -> "PrefixCounterView":
        """A read-only counter view summing across a scope prefix.

        Drop-in for read-side uses of :meth:`scoped_counters`: readers
        written against one population scope (``web-clients``) keep
        working when the cohort layer fans the same population out into
        ``web-clients/c0``, ``web-clients/c0/solo``, ... sub-scopes.
        """
        return PrefixCounterView(self, prefix)

    # -- series ---------------------------------------------------------------

    def series(self, name: str) -> TimeSeries:
        """Named time series (created on first use)."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(self.bucket_width)
        return series

    def has_series(self, name: str) -> bool:
        return name in self._series

    def series_names(self) -> list[str]:
        return sorted(self._series)

    # -- quantiles --------------------------------------------------------------

    def quantiles(self, name: str) -> Quantiles:
        if name not in self._quantiles:
            self._quantiles[name] = Quantiles()
        return self._quantiles[name]

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the run recorded, as plain data: copies, not
        views, so it pickles and compares with ``==``.

        ``series`` holds a bucket → sum dict per name;
        ``quantiles`` holds the samples in *stored* order (a quantile
        read sorts them in place, so this is insertion order only until
        the first read).
        """
        return {
            "global": self.global_counters.snapshot(),
            "scoped": {scope: self._scoped[scope].snapshot()
                       for scope in self.scopes()},
            "series": {name: dict(series._sums)
                       for name, series in sorted(self._series.items())},
            "quantiles": {name: list(samples._values)
                          for name, samples
                          in sorted(self._quantiles.items())},
        }
