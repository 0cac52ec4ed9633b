"""Unit tests for the trace collector: sampling, retention, rendering."""

import json

from repro.simkernel import RandomStreams
from repro.trace import Span, TraceCollector, TraceConfig
from repro.trace import collector as caps
from repro.trace.render import (interesting_traces, render_trace,
                                render_trace_report)


class FakeEnv:
    """Just a sim clock: the collector only reads ``env.now``."""

    def __init__(self):
        self.now = 0.0


class ScriptedRng:
    """An RNG whose draws are scripted, for exercising edge cases."""

    def __init__(self, bits, rand=0.0):
        self._bits = list(bits)
        self._rand = rand

    def getrandbits(self, _n):
        return self._bits.pop(0)

    def random(self):
        return self._rand


def make_collector(config=None, seed=1):
    return TraceCollector(FakeEnv(), RandomStreams(seed).stream("trace"),
                          config or TraceConfig())


def test_head_sampling_drops_clean_traces():
    collector = make_collector(TraceConfig(sample_rate=0.0))
    for _ in range(5):
        collector.start_trace("req").finish("ok")
    assert collector.traces() == []
    assert collector.dropped_traces == 5

    collector = make_collector(TraceConfig(sample_rate=1.0))
    for _ in range(5):
        collector.start_trace("req").finish("ok")
    assert len(collector.traces()) == 5
    assert collector.dropped_traces == 0


def test_tail_keep_overrides_head_decision():
    collector = make_collector(TraceConfig(sample_rate=0.0))
    span = collector.start_trace("req")
    collector.keep(span)
    span.finish("ok")
    (trace,) = collector.traces()
    assert trace["keep"] is True
    assert trace["error"] is False


def test_fail_flags_trace_for_retention():
    collector = make_collector(TraceConfig(sample_rate=0.0))
    span = collector.start_trace("req")
    child = collector.span(span, "hop")
    child.fail("conn_gone")
    span.finish("ok")
    (trace,) = collector.traces()
    assert trace["error"] is True
    statuses = {s["name"]: s["status"] for s in trace["spans"]}
    assert statuses == {"req": "ok", "hop": "conn_gone"}


def test_keep_errors_false_disables_tail_retention(monkeypatch):
    monkeypatch.setattr(caps, "KEEP_ERRORS", False)
    collector = make_collector(TraceConfig(sample_rate=0.0))
    span = collector.start_trace("req")
    span.fail("boom")
    assert collector.traces() == []
    assert collector.dropped_traces == 1


def test_sampled_and_flagged_caps_are_separate(monkeypatch):
    monkeypatch.setattr(caps, "MAX_TRACES", 2)
    collector = make_collector(TraceConfig(sample_rate=1.0))
    for _ in range(4):
        collector.start_trace("clean").finish("ok")
    for _ in range(4):
        collector.start_trace("bad").fail("boom")
    kept = collector.traces()
    assert sum(1 for t in kept if t["name"] == "clean") == 2
    assert sum(1 for t in kept if t["name"] == "bad") == 2
    assert collector.dropped_traces == 4


def test_annotation_and_event_caps(monkeypatch):
    monkeypatch.setattr(caps, "MAX_ANNOTATIONS", 2)
    monkeypatch.setattr(caps, "MAX_EVENTS", 1)
    collector = make_collector()
    span = collector.start_trace("req")
    for i in range(5):
        span.annotate("k", i)
    assert len(span.annotations) == 2
    collector.event("first")
    collector.event("second")
    assert [e["name"] for e in collector.events] == ["first"]
    assert collector.dropped_events == 1


def test_finish_is_idempotent_and_first_close_wins():
    collector = make_collector()
    span = collector.start_trace("req")
    collector.env.now = 1.5
    span.finish("ok")
    collector.env.now = 9.0
    span.finish("late")
    span.fail("later")
    assert span.end == 1.5
    assert span.status == "ok"
    assert len(collector.traces()) == 1  # root closed exactly once


def test_unfinished_traces_exported_when_retainable():
    collector = make_collector(TraceConfig(sample_rate=1.0))
    collector.start_trace("in-flight")
    (trace,) = collector.traces()
    assert trace["spans"][0]["end"] is None

    collector = make_collector(TraceConfig(sample_rate=0.0))
    collector.start_trace("in-flight")
    assert collector.traces() == []


def test_trace_id_collision_redraws():
    collector = TraceCollector(FakeEnv(), ScriptedRng([5, 5, 9]),
                               TraceConfig(sample_rate=1.0))
    a = collector.start_trace("a")
    b = collector.start_trace("b")
    assert a.trace.trace_id == 5
    assert b.trace.trace_id == 9


def test_export_is_deterministic_for_same_seed():
    def build(seed):
        collector = make_collector(seed=seed)
        root = collector.start_trace("req", scope="edge")
        collector.env.now = 0.25
        hop = collector.span(root, "hop", scope="origin")
        hop.annotate("takeover.crossed")
        hop.finish("ok")
        collector.env.now = 0.5
        root.finish("ok")
        collector.event("takeover_begin", scope="edge-0", generation=2)
        return collector.to_json()

    assert build(7) == build(7)
    assert build(7) != build(8)  # trace ids come from the seeded stream
    doc = json.loads(build(7))
    assert doc["format"] == 1
    (trace,) = doc["traces"]
    assert trace["crossed_takeover"] is True
    assert len(trace["trace_id"]) == 12  # 48-bit hex, zero-padded


def test_announcements_are_logged_with_their_scalar_fields_only():
    """Every window lands in the event log; an object handed to the
    checkers never does (its repr would carry an ``id()``), and the
    per-connection taps are not logged at all."""
    collector = make_collector()
    thing = object()
    collector.env.now = 1.5
    collector.on_announce("takeover_begin", server=thing, scope="edge-0",
                          generation=2)
    collector.on_announce("autoscale_in", autoscaler=thing, scope="app-3",
                          pool="app", size_before=4, size_after=3,
                          target=thing, target_state=None)
    collector.on_announce("fault_begin", record=thing, kind="hc_flap",
                          where="edge-*", targets=2)
    collector.on_announce("proxy_accept", instance=thing, vip="https")
    collector.on_announce("post_applied", server=thing, request_id=7)
    collector.on_announce("broker_sessions_transferred", region="r1",
                          users=[1, 2])
    assert collector.events == [
        {"at": 1.5, "name": "takeover_begin", "scope": "edge-0",
         "generation": 2},
        {"at": 1.5, "name": "autoscale_in", "scope": "app-3",
         "pool": "app", "size_before": 4, "size_after": 3,
         "target_state": None},
        {"at": 1.5, "name": "fault_begin", "scope": None,
         "kind": "hc_flap", "where": "edge-*", "targets": 2},
    ]


def test_render_trace_tree_and_critical_path():
    collector = make_collector()
    root = collector.start_trace("client.request", scope="client-0")
    edge = collector.span(root, "edge.request", scope="edge-proxy-0")
    edge.annotate("takeover.crossed")
    collector.env.now = 0.2
    origin = collector.span(edge, "origin.get", scope="origin-proxy-0")
    collector.env.now = 0.3
    origin.finish("ok")
    edge.finish("ok")
    collector.env.now = 0.4
    root.finish("ok")

    (trace,) = collector.traces()
    text = render_trace(trace)
    assert "client.request @client-0" in text
    assert "takeover.crossed" in text
    assert "critical path: client.request (0.4000s) -> " \
           "edge.request (0.3000s) -> origin.get (0.1000s)" in text

    rows = render_trace_report(collector.to_dict())
    assert rows[0].startswith("traces: 1 retained (1 crossed a takeover")
    assert any("takeover.crossed" in row for row in rows)


def test_interesting_traces_prefers_takeover_and_errors():
    collector = make_collector()
    plain = collector.start_trace("plain")
    plain.finish("ok")
    errored = collector.start_trace("errored")
    errored.fail("boom")
    crossed = collector.start_trace("crossed")
    crossed.annotate("takeover.crossed")
    crossed.finish("ok")

    ranked = interesting_traces(collector.traces())
    assert [t["name"] for t in ranked] == ["crossed", "errored", "plain"]


def test_span_annotations_coerce_objects_to_strings():
    collector = make_collector()
    span = collector.start_trace("req")

    class Opaque:
        def __repr__(self):
            return "<opaque>"

    span.annotate("obj", Opaque())
    span.finish("ok")
    (trace,) = collector.traces()
    (_, _, value) = trace["spans"][0]["annotations"][0]
    assert value == "<opaque>"
    json.dumps(collector.to_dict())  # export must stay JSON-serializable


def test_span_exports_fixed_key_set():
    # The export schema is load-bearing for repro files: new keys are
    # fine, but process-global message ids must never slip in.
    collector = make_collector()
    span = collector.start_trace("req")
    span.finish("ok")
    (trace,) = collector.traces()
    assert set(trace["spans"][0]) == {
        "span_id", "parent_id", "name", "scope", "begin", "end",
        "status", "annotations"}
    assert isinstance(span, Span)
