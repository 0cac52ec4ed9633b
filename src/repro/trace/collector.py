"""Deterministic, sampled end-to-end request tracing.

The paper's evaluation (§6) reads disruption off per-request, per-hop
signals: which proxy instance handled a connection, whether it crossed a
socket takeover, whether DCR or PPR rescued it.  This module gives the
simulation the same visibility.  A traced request carries a
:class:`Span` as its context (``request.trace``) from the client through
Katran, the Edge and Origin Proxygen tiers, down to HHVM or a broker;
every hop opens a child span and annotates the mechanism decisions it
takes (takeover crossings, DCR ``re_connect`` rehoming, PPR replay,
retries/hedges/breaker trips from ``repro.resilience``).

Determinism rules (same as the rest of the tree):

* trace ids are drawn from an injected ``SimRng`` stream, never the wall
  clock or ``uuid`` — same seed, same ids;
* span times are sim times (``env.now``);
* exports never embed message ids (``HttpRequest.id``, QUIC connection
  ids): those number a run's requests (``RunRecord.request_ids``); a
  trace is named by its own seeded id.

Sampling is head-based (the decision is drawn when the root span opens)
plus tail-based "always keep": traces flagged by an error or by a caller
(``keep``) are retained even when the head decision said no, so a fuzz
violation always has its trace.

Overhead discipline: the collector is its run's ``RunRecord.tracer``
(:mod:`repro.run`), which defaults to ``None``; every call site guards
with a single attribute read (the bound-handle rule from
``metrics/counters.py``), so disabled tracing costs one ``is not None``
test per hop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = ["TraceConfig", "Span", "TraceCollector", "TRACE_FORMAT"]

#: Version stamp for exported trace documents.
TRACE_FORMAT = 1

#: Keys counted as "mechanism" annotations when ranking interesting
#: traces (the paper's §4 machinery plus the resilience plane).
MECHANISM_PREFIXES = ("takeover", "dcr", "ppr", "retry", "hedge",
                     "breaker", "shed")

#: Run-channel announcements the event log keeps: every window, not the
#: per-connection taps (``proxy_accept``, ``app_accept``, ...).
LOGGED_ANNOUNCEMENTS = ("release_", "takeover_", "drain_", "fault_",
                        "evacuation_", "autoscale_")

#: Retained traces per category (head-sampled, tail-kept), point events
#: and annotations per span; past a cap the rest are dropped.
MAX_TRACES = 250
MAX_EVENTS = 2000
MAX_ANNOTATIONS = 64
#: A failed span flags its whole trace for tail-based retention.
KEEP_ERRORS = True


@dataclass(slots=True)
class TraceConfig:
    """Tuning knobs for a :class:`TraceCollector`.

    ``sample_rate`` is the head-based probability that a new trace is
    retained when it finishes cleanly; errored (:data:`KEEP_ERRORS`) or
    explicitly-kept traces are retained regardless (tail-based), each
    category capped at :data:`MAX_TRACES`.
    """

    sample_rate: float = 1.0


class _Trace:
    """One end-to-end trace: a root span plus everything under it."""

    __slots__ = ("trace_id", "name", "sampled", "keep", "error", "spans",
                 "next_span_id")

    def __init__(self, trace_id: int, name: str, sampled: bool):
        self.trace_id = trace_id
        self.name = name
        self.sampled = sampled
        self.keep = False
        self.error = False
        self.spans: list[Span] = []
        self.next_span_id = 1


class Span:
    """One hop of a trace: a named interval with annotations.

    Passed by reference inside simulated messages (``request.trace``),
    so a downstream hop parents its own span to the upstream one by
    plain attribute access — no serialized context propagation needed in
    the simulator.
    """

    __slots__ = ("collector", "trace", "span_id", "parent_id", "name",
                 "scope", "begin", "end", "status", "annotations")

    def __init__(self, collector: "TraceCollector", trace: _Trace,
                 span_id: int, parent_id: Optional[int], name: str,
                 scope: Optional[str]):
        self.collector = collector
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.scope = scope
        self.begin = collector.env.now
        self.end: Optional[float] = None
        self.status: Optional[str] = None
        self.annotations: list[tuple[float, str, Any]] = []

    def annotate(self, key: str, value: Any = True) -> None:
        """Attach ``key=value`` at the current sim time (bounded)."""
        if len(self.annotations) < MAX_ANNOTATIONS:
            self.annotations.append((self.collector.env.now, key, value))

    def finish(self, status: str = "ok") -> None:
        """Close the span (idempotent; the first close wins)."""
        if self.end is not None:
            return
        self.end = self.collector.env.now
        self.status = status
        if self.parent_id is None:
            self.collector._finish_trace(self.trace)

    def fail(self, reason: str) -> None:
        """Close the span as failed and flag the whole trace for
        tail-based retention."""
        if KEEP_ERRORS:
            self.trace.error = True
        self.finish(status=reason)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "scope": self.scope,
            "begin": self.begin,
            "end": self.end,
            "status": self.status,
            "annotations": [[at, key, _json_value(value)]
                            for at, key, value in self.annotations],
        }


#: What an export holds as it is; anything else is stringified (an
#: annotation) or dropped (an announcement's field).
_SCALARS = (str, int, float, bool, type(None))


def _json_value(value: Any) -> Any:
    return value if isinstance(value, _SCALARS) else str(value)


class TraceCollector:
    """Per-run sink for traces and point events.

    Owns the sampling RNG (an injected ``SimRng`` stream) and the
    retention bookkeeping.  Built by the topology from
    ``RunOptions.trace`` as the run's ``RunRecord.tracer``.
    """

    def __init__(self, env, rng, config: Optional[TraceConfig] = None):
        self.env = env
        self.rng = rng
        self.config = config or TraceConfig()
        #: Traces with an unfinished root span, by trace id.
        self._live: dict[int, _Trace] = {}
        #: Finished traces that survived retention, in finish order.
        self._finished: list[_Trace] = []
        self._used_ids: set[int] = set()
        self._sampled_kept = 0
        self._flagged_kept = 0
        self.dropped_traces = 0
        self.dropped_events = 0
        self.events: list[dict] = []

    # -- span lifecycle ---------------------------------------------------

    def start_trace(self, name: str, scope: Optional[str] = None,
                    keep: bool = False) -> Span:
        """Open a new trace; returns its root span.

        The head-based sampling decision is drawn here, but spans are
        recorded either way so a later error can still tail-keep the
        full trace.
        """
        trace_id = self.rng.getrandbits(48)
        while trace_id in self._used_ids:
            trace_id = self.rng.getrandbits(48)
        self._used_ids.add(trace_id)
        sampled = self.rng.random() < self.config.sample_rate
        trace = _Trace(trace_id, name, sampled)
        trace.keep = keep
        self._live[trace_id] = trace
        return self._span(trace, None, name, scope)

    def span(self, parent: Span, name: str,
             scope: Optional[str] = None) -> Span:
        """Open a child span under ``parent``."""
        return self._span(parent.trace, parent.span_id, name, scope)

    def _span(self, trace: _Trace, parent_id: Optional[int], name: str,
              scope: Optional[str]) -> Span:
        span = Span(self, trace, trace.next_span_id, parent_id, name, scope)
        trace.next_span_id += 1
        trace.spans.append(span)
        return span

    def keep(self, span: Span) -> None:
        """Tail-based retention: keep this span's trace regardless of
        the head sampling decision."""
        span.trace.keep = True

    def _finish_trace(self, trace: _Trace) -> None:
        self._live.pop(trace.trace_id, None)
        if trace.keep or trace.error:
            if self._flagged_kept < MAX_TRACES:
                self._flagged_kept += 1
                self._finished.append(trace)
                return
        elif trace.sampled and self._sampled_kept < MAX_TRACES:
            self._sampled_kept += 1
            self._finished.append(trace)
            return
        self.dropped_traces += 1

    # -- point events -----------------------------------------------------

    def event(self, name: str, scope: Optional[str] = None,
              **attrs: Any) -> None:
        """A point-in-time event outside any single trace."""
        if len(self.events) >= MAX_EVENTS:
            self.dropped_events += 1
            return
        record = {"at": self.env.now, "name": name, "scope": scope}
        for key, value in attrs.items():
            record[key] = _json_value(value)
        self.events.append(record)

    def on_announce(self, name: str, scope: Optional[str] = None,
                    **fields: Any) -> None:
        """Run-channel listener: every mechanism window lands in the
        event log next to the spans it disrupts, with its scalar fields.
        Object-valued fields are for checkers and are dropped, never
        stringified (a ``repr`` carries an ``id()``)."""
        if name.startswith(LOGGED_ANNOUNCEMENTS):
            self.event(name, scope=scope, **{
                key: value for key, value in fields.items()
                if isinstance(value, _SCALARS)})

    # -- export -----------------------------------------------------------

    def _retained(self) -> Iterable[_Trace]:
        yield from self._finished
        # Traces still open at export time (long-lived MQTT sessions,
        # requests in flight at sim end) are included when they would
        # plausibly be retained.
        for trace in self._live.values():
            if trace.keep or trace.error or trace.sampled:
                yield trace

    @staticmethod
    def _trace_dict(trace: _Trace) -> dict:
        spans = [span.to_dict() for span in trace.spans]
        crossed = any(key == "takeover.crossed"
                      for span in trace.spans
                      for _, key, _value in span.annotations)
        return {
            "trace_id": f"{trace.trace_id:012x}",
            "name": trace.name,
            "sampled": trace.sampled,
            "keep": trace.keep,
            "error": trace.error,
            "crossed_takeover": crossed,
            "spans": spans,
        }

    def traces(self) -> list[dict]:
        return [self._trace_dict(trace) for trace in self._retained()]

    def to_dict(self) -> dict:
        return {
            "format": TRACE_FORMAT,
            "dropped_traces": self.dropped_traces,
            "dropped_events": self.dropped_events,
            "events": list(self.events),
            "traces": self.traces(),
        }

    def to_json(self) -> str:
        """Deterministic JSON export: same seed ⇒ byte-identical."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
