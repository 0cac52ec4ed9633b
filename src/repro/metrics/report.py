"""Plain-text rendering of experiment series (sparklines and tables).

The paper's figures are timelines; when running headless we render them
as unicode sparklines so `python -m repro.experiments fig13` and the
examples can *show* the shapes, not just print scalars.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["sparkline", "render_series", "render_comparison",
           "render_faults", "render_resilience"]

_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """One line of block characters scaled to [lo, hi]."""
    values = list(values)
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        return _TICKS[0] * len(values)
    span = hi - lo
    out = []
    for value in values:
        clamped = min(max(value, lo), hi)
        index = int((clamped - lo) / span * (len(_TICKS) - 1))
        out.append(_TICKS[index])
    return "".join(out)


def _resample(series: Sequence[tuple[float, float]],
              width: int) -> list[float]:
    """Downsample (time, value) pairs to ``width`` points by averaging."""
    values = [v for _, v in series]
    if len(values) <= width:
        return values
    out = []
    step = len(values) / width
    for i in range(width):
        chunk = values[int(i * step):max(int((i + 1) * step),
                                         int(i * step) + 1)]
        out.append(sum(chunk) / len(chunk))
    return out


def render_series(name: str, series: Sequence[tuple[float, float]],
                  width: int = 60, lo: Optional[float] = None,
                  hi: Optional[float] = None) -> str:
    """``name  ▁▂▅▇▇█...  [lo .. hi]`` for one series.

    The bracketed range is the scale the sparkline is drawn against —
    the resampled averages' min/max unless ``lo``/``hi`` pin it — so a
    full-height block always means "at the bracketed max".  (Labelling
    the raw series extremes while scaling to the resampled averages
    made downsampled peaks look like they missed the printed range.)
    """
    if not series:
        return f"{name:24s} (no data)"
    values = _resample(series, width)
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    spark = sparkline(values, lo=lo, hi=hi)
    return f"{name:24s} {spark}  [{lo:.3g} .. {hi:.3g}]"


def render_faults(summary: dict) -> list[str]:
    """Rows describing an attached fault plan (injector ``summary()``).

    Printed alongside a figure's scalars so a run under chaos is never
    mistaken for a clean baseline.
    """
    if not summary:
        return []
    rows = [f"faults: plan '{summary.get('plan', '?')}'"
            + (f" — {summary['description']}"
               if summary.get("description") else "")]
    for event in summary.get("events", ()):
        window = "never injected"
        if event.get("injected_at") is not None:
            cleared = event.get("cleared_at")
            until = f"{cleared:g}" if cleared is not None else "end"
            window = f"[{event['injected_at']:g} .. {until}]"
        rows.append(
            f"  {event['kind']:18s} {event['where']:16s} "
            f"{event['state']:9s} {window} "
            f"({len(event.get('targets', []))} targets)")
    return rows


def render_resilience(decisions: dict) -> list[str]:
    """Rows for the resilient-data-plane decision counters.

    ``decisions`` maps mechanism → count (ejections, breaker trips,
    retries, hedges, sheds, ...); every decision the plane takes is a
    counter, so a run's resilience activity is auditable next to its
    error scalars.
    """
    if not decisions:
        return []
    rows = ["resilience decisions:"]
    for key in sorted(decisions):
        rows.append(f"  {key:28s} {decisions[key]:g}")
    return rows


def render_comparison(
        series_map: dict[str, Sequence[tuple[float, float]]]) -> str:
    """Multiple series on one shared vertical scale."""
    lo = hi = None
    all_values = [v for series in series_map.values() for _, v in series]
    if all_values:
        lo, hi = min(all_values), max(all_values)
    return "\n".join(render_series(name, series, lo=lo, hi=hi)
                     for name, series in series_map.items())
