"""Plain-text rendering of exported traces: span trees and summaries.

Works on the JSON-shaped dicts produced by
:meth:`repro.trace.TraceCollector.to_dict` (not on live ``Span``
objects), so anything that can read a trace dump — the CLI, a fuzz
repro file, a test — can render it the same way.
"""

from __future__ import annotations

from typing import Optional

from .collector import MECHANISM_PREFIXES

__all__ = ["render_trace", "render_trace_report", "interesting_traces"]

#: Span trees a trace report prints after its summary rows.
TRACES_SHOWN = 3


def _duration(span: dict) -> float:
    end = span["end"] if span["end"] is not None else span["begin"]
    return end - span["begin"]


def _children(trace: dict) -> dict[Optional[int], list[dict]]:
    by_parent: dict[Optional[int], list[dict]] = {}
    for span in trace["spans"]:
        by_parent.setdefault(span["parent_id"], []).append(span)
    return by_parent


def _critical_path(trace: dict) -> list[dict]:
    """Root-to-leaf chain following the latest-finishing child."""
    by_parent = _children(trace)
    roots = by_parent.get(None, [])
    if not roots:
        return []
    path = [roots[0]]
    while True:
        kids = by_parent.get(path[-1]["span_id"])
        if not kids:
            return path
        path.append(max(kids, key=lambda s: (
            s["end"] if s["end"] is not None else s["begin"])))


def render_trace(trace: dict) -> str:
    """A span tree with per-span timing, annotations, and the
    critical path."""
    flags = []
    if trace.get("crossed_takeover"):
        flags.append("crossed-takeover")
    if trace.get("error"):
        flags.append("ERROR")
    if trace.get("keep"):
        flags.append("kept")
    header = (f"trace {trace['trace_id']} {trace['name']}"
              + (f"  [{' '.join(flags)}]" if flags else ""))
    lines = [header]
    by_parent = _children(trace)

    def emit(span: dict, depth: int) -> None:
        indent = "  " * (depth + 1)
        end = ("..." if span["end"] is None
               else f"{span['end']:.4f}")
        status = span["status"] or "open"
        where = f" @{span['scope']}" if span["scope"] else ""
        lines.append(f"{indent}{span['name']}{where}  "
                     f"[{span['begin']:.4f} .. {end}] "
                     f"({_duration(span):.4f}s) {status}")
        for at, key, value in span["annotations"]:
            rendered = "" if value is True else f"={value}"
            lines.append(f"{indent}  · {at:.4f} {key}{rendered}")
        for child in by_parent.get(span["span_id"], []):
            emit(child, depth + 1)

    for root in by_parent.get(None, []):
        emit(root, 0)

    path = _critical_path(trace)
    if len(path) > 1:
        total = _duration(path[0])
        hops = " -> ".join(f"{s['name']} ({_duration(s):.4f}s)"
                           for s in path)
        lines.append(f"  critical path: {hops}  [total {total:.4f}s]")
    return "\n".join(lines)


def _mechanism_score(trace: dict) -> int:
    return sum(
        1
        for span in trace["spans"]
        for _at, key, _value in span["annotations"]
        if key.startswith(MECHANISM_PREFIXES))


def interesting_traces(traces: list[dict]) -> list[dict]:
    """The :data:`TRACES_SHOWN` most mechanism-rich traces, takeover
    crossings and errors first — what a human wants to see after a
    run."""
    ranked = sorted(
        traces,
        key=lambda t: (bool(t.get("crossed_takeover")), bool(t.get("error")),
                       _mechanism_score(t), len(t["spans"])),
        reverse=True)
    return ranked[:TRACES_SHOWN]


def render_trace_report(doc: dict) -> list[str]:
    """Summary rows + the most interesting span trees for one export."""
    traces = doc.get("traces", [])
    crossed = sum(1 for t in traces if t.get("crossed_takeover"))
    errored = sum(1 for t in traces if t.get("error"))
    rows = [f"traces: {len(traces)} retained "
            f"({crossed} crossed a takeover, {errored} errored, "
            f"{doc.get('dropped_traces', 0)} dropped), "
            f"{len(doc.get('events', []))} events"]
    counts: dict[str, int] = {}
    for trace in traces:
        for span in trace["spans"]:
            for _at, key, _value in span["annotations"]:
                if key.startswith(MECHANISM_PREFIXES):
                    counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts):
        rows.append(f"  {key:28s} {counts[key]}")
    for trace in interesting_traces(traces):
        rows.append("")
        rows.extend(render_trace(trace).splitlines())
    return rows
