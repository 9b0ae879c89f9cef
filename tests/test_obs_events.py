"""Event log semantics: span nesting, attribution, JSONL round-trip,
and the inert null log."""

import sys

from repro.obs import NULL_EVENTS, EventLog, Observability
from repro.obs.report import build_report
from repro.obs.provenance import ProvenanceTracer
from repro.serve import ServiceConfig, VMService
from repro.tools.serve import mixed_specs


class TestSpans:
    def test_nesting_records_parent_links(self):
        log = EventLog()
        with log.span("compile", method="Main.run") as outer:
            with log.span("build") as inner:
                pass
        begins = {r["name"]: r for r in log.records if r["type"] == "begin"}
        assert begins["compile"]["parent"] is None
        assert begins["build"]["parent"] == begins["compile"]["span"]
        assert inner.parent == outer.sid

    def test_events_attributed_to_innermost_span(self):
        log = EventLog()
        log.emit("outside")
        with log.span("compile"):
            with log.span("optimize") as opt:
                log.emit("pass", before=10, after=8)
        events = {r["name"]: r for r in log.records if r["type"] == "event"}
        assert events["outside"]["span"] is None
        assert events["pass"]["span"] == opt.sid
        assert events["pass"]["attrs"] == {"before": 10, "after": 8}

    def test_end_records_duration_and_attrs(self):
        log = EventLog()
        with log.span("compile") as span:
            span.set(nodes=42)
        end = [r for r in log.records if r["type"] == "end"][0]
        assert end["name"] == "compile"
        assert end["attrs"] == {"nodes": 42}
        assert end["dur"] >= 0.0
        assert end["ts"] >= 0.0

    def test_sequence_numbers_are_monotonic(self):
        log = EventLog()
        with log.span("a"):
            log.emit("e1")
            log.emit("e2")
        seqs = [r["seq"] for r in log.records]
        assert seqs == sorted(seqs) == list(range(len(seqs)))

    def test_sibling_spans_share_parent(self):
        log = EventLog()
        with log.span("compile") as compile_span:
            with log.span("build") as build:
                pass
            with log.span("lower") as lower:
                pass
        assert build.parent == compile_span.sid
        assert lower.parent == compile_span.sid
        # After the with-blocks the stack must be clean.
        log.emit("after")
        assert log.records[-1]["span"] is None

    def test_queries(self):
        log = EventLog()
        with log.span("compile"):
            log.emit("pass", name="gvn")
        assert len(log.spans_named("compile")) == 1
        assert len(log.of_name("pass")) == 1
        assert len(log) == 3  # begin + event + end


class TestJsonlRoundTrip:
    def test_save_and_read_back(self, tmp_path):
        log = EventLog()
        with log.span("compile", method="Main.run"):
            log.emit("pass", name="gvn", before=12, after=9)
        path = tmp_path / "events.jsonl"
        log.save(str(path))
        replayed = EventLog.read_jsonl(str(path))
        assert replayed == log.records

    def test_streaming_sink_matches_memory(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as sink:
            log = EventLog(sink=sink)
            with log.span("compile"):
                log.emit("pass", name="dce", before=5, after=5)
        assert EventLog.read_jsonl(str(path)) == log.records

    def test_report_from_replay_matches_report_from_memory(self, tmp_path):
        log = EventLog()
        with log.span("compile", method="A.b", hotness=40) as span:
            with log.span("optimize"):
                log.emit("pass", name="gvn", before=10, after=7)
            span.set(nodes=7, code_size=9, compile_cycles=280)
        path = tmp_path / "events.jsonl"
        log.save(str(path))
        assert build_report(EventLog.read_jsonl(str(path))) == build_report(
            log.records
        )


class TestTracerBridge:
    def test_trace_events_are_mirrored_into_the_log(self):
        log = EventLog()
        tracer = ProvenanceTracer(Observability(events=log))
        with log.span("inline"):
            tracer.begin_round(100)
            tracer.terminated("no cutoffs left", 120)
        # The tracer's own event list still works (InlineTracer API)...
        assert [e.kind for e in tracer.events] == ["round", "terminate"]
        assert "round 1" in tracer.render()
        # ...and every event was mirrored as inline.<kind>.
        mirrored = [r for r in log.records if r["type"] == "event"]
        assert [r["name"] for r in mirrored] == [
            "inline.round", "inline.terminate",
        ]
        assert mirrored[0]["attrs"]["round"] == 1
        assert mirrored[1]["attrs"]["reason"] == "no cutoffs left"


class TestThreads:
    def test_concurrent_compiles_stay_apart(self):
        # Six tenants on their own threads over two compile workers,
        # sharing one log: each compile is a root span on its worker,
        # no application-thread iteration lands inside one, and seq
        # values stay unique.
        obs = Observability()
        config = ServiceConfig(
            max_tenants=6, compile_workers=2, compile_mode="async",
            hot_threshold=5,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            with VMService(config, obs=obs) as service:
                for spec in mixed_specs(6, 6):
                    service.admit(spec)
                service.run(concurrent=True)
        finally:
            sys.setswitchinterval(interval)
        records = obs.events.records
        compiles = obs.events.spans_named("compile")
        assert compiles
        assert [r["parent"] for r in compiles] == [None] * len(compiles)
        iterations = obs.events.spans_named("iteration")
        assert iterations
        assert [r["parent"] for r in iterations] == [None] * len(iterations)
        seqs = [r["seq"] for r in records]
        assert len(set(seqs)) == len(seqs)


class TestNullEventLogIsInert:
    def test_emit_and_span_record_nothing(self):
        NULL_EVENTS.emit("anything", x=1)
        with NULL_EVENTS.span("compile", method="A.b") as span:
            span.set(nodes=1)
            NULL_EVENTS.emit("pass", name="gvn")
        assert len(NULL_EVENTS) == 0
        assert list(NULL_EVENTS.records) == []
        assert NULL_EVENTS.of_name("pass") == []
        assert NULL_EVENTS.spans_named("compile") == []

    def test_null_span_is_shared(self):
        first = NULL_EVENTS.span("a")
        second = NULL_EVENTS.span("b")
        assert first is second

    def test_enabled_flag(self):
        assert EventLog().enabled is True
        assert NULL_EVENTS.enabled is False
