"""VM-wide observability: metrics, events, and compilation reports.

The paper's argument is quantitative — Eq. 8 benefit/size numbers,
round-by-round expansion, compile-time budgets, code-size curves — and
a JIT without telemetry cannot be debugged or tuned (Graal ships
``-Dgraal.TraceInlining`` and ``-XX:+PrintCompilation`` for exactly
this reason). This package is the measurement substrate for the whole
VM:

- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`): counters,
  gauges and cheap fixed-bucket histograms addressable by dotted names
  (``jit.compile.cycles``, ``interp.ops``, ``codecache.installed_bytes``).
- :class:`EventLog` (:mod:`repro.obs.events`): a structured stream of
  nestable spans (``iteration``, ``compile`` → ``build``/``inline``/
  ``optimize``/``lower``), each timed by its ``dur``, and point events
  (per-pass node deltas, inlining decisions, tier transitions),
  streamable as JSONL.
- :class:`FlightRecorder` (:mod:`repro.obs.flight`): a bounded
  ring-buffer *flight recorder* holding the most recent provenance
  records (inlining verdicts, speculation decisions, deopt timeline),
  dumpable on crash or on demand as PR 1-schema JSONL.
- :class:`ProvenanceTracer` (:mod:`repro.obs.provenance`): bridges the
  existing :class:`~repro.core.tracing.InlineTracer` into
  :meth:`Observability.record`, so inlining decisions appear inline in
  the compilation spans and survive in the bounded ring.
- :func:`build_report` / :func:`render_report`
  (:mod:`repro.obs.report`): fold an event stream into the
  ``PrintCompilation``-style report printed by
  ``python -m repro.tools.stats``.

An :class:`Observability` object bundles one registry with one event
log and is threaded through :class:`~repro.jit.engine.Engine` and every
layer below it. The default everywhere is :data:`NULL_OBS`, whose
registry and log are inert no-ops — instrumented code only pays an
``obs.enabled`` check, and the deterministic cycle model is untouched
either way (verified by a differential test).

One fact, one record: every fact the VM reports (a tier transition,
an inlining decision, a deopt, an eviction) goes through
:meth:`Observability.record`, which writes the same kind and attributes
as an event-log point event and as a flight record. Only the
high-volume ``pass``, ``pass.skipped`` and ``serve.run`` events are
written to the log alone (``obs.events.emit``); a tier-1 test keeps
every other module off the two sinks.

Usage::

    from repro.obs import Observability
    obs = Observability()
    engine = Engine(program, config, inliner=policy, obs=obs)
    ...
    obs.metrics.value("jit.compile.count")
    obs.events.save("events.jsonl")
"""

from repro.obs.events import NULL_EVENTS, EventLog, NullEventLog
from repro.obs.flight import (
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    read_flight_jsonl,
)
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.provenance import ProvenanceTracer
from repro.obs.report import build_report, render_report


class Observability:
    """One metrics registry, one event log, one flight recorder."""

    __slots__ = ("metrics", "events", "flight")

    enabled = True

    def __init__(self, metrics=None, events=None, events_sink=None,
                 flight=None, flight_capacity=4096):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = (
            events if events is not None else EventLog(sink=events_sink)
        )
        self.flight = (
            flight
            if flight is not None
            else FlightRecorder(capacity=flight_capacity, metrics=self.metrics)
        )

    def record(self, kind, /, **attrs):
        """Record one fact: a point event in the log (inside its
        innermost open span) and a record in the flight ring, with the
        same *kind* and attributes.

        ``kind`` is positional-only so records may carry a ``kind``
        attribute of their own.
        """
        self.events.emit(kind, **attrs)
        self.flight.record(kind, **attrs)


class _NullObservability:
    """The inert default: all halves are no-ops."""

    __slots__ = ()

    enabled = False
    metrics = NULL_METRICS
    events = NULL_EVENTS
    flight = NULL_FLIGHT

    def record(self, kind, /, **attrs):
        pass


NULL_OBS = _NullObservability()


__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_METRICS",
    "EventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "read_flight_jsonl",
    "ProvenanceTracer",
    "build_report",
    "render_report",
]
