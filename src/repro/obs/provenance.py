"""Inlining-decision provenance: one tracer, one coherent stream.

:class:`ProvenanceTracer` is a drop-in
:class:`~repro.core.tracing.InlineTracer` that records every decision
the inliner makes, the moment it happens, through
:meth:`~repro.obs.Observability.record` — so each decision is both

- an ``inline.<kind>`` point event in the
  :class:`~repro.obs.events.EventLog`, nested inside the enclosing
  ``compile``/``inline`` span, and
- a bounded :class:`~repro.obs.flight.FlightRecorder` record that
  survives after the event log would have grown unwieldy — the store
  behind ``repro.tools.explain``.

So ``repro.core.tracing`` and ``repro.obs`` emit **one** stream: the
tracer's structured :class:`~repro.core.tracing.TraceEvent` details
(method, callsite path and bci, Eq. 8 / Eq. 12 numbers, decline and
speculation reasons, budget state) are the single source of truth, and
every consumer — the stats CLI, the explain CLI, a saved JSONL
recording — sees the same records.

The compiler installs one automatically (via
``IncrementalInliner.attach_tracer``) when observability is enabled and
the policy has no tracer of its own; a user-supplied plain
:class:`InlineTracer` keeps working and is drained into the stream
after each inliner run instead (see :meth:`JitCompiler.compile`).
"""

from repro.core.tracing import InlineTracer


def record_trace_event(obs, trace_event):
    """Record one :class:`TraceEvent` through *obs* as ``inline.<kind>``."""
    obs.record(
        "inline." + trace_event.kind,
        round=trace_event.round_index,
        **trace_event.detail
    )


class ProvenanceTracer(InlineTracer):
    """An :class:`InlineTracer` that records every decision through an
    :class:`~repro.obs.Observability` as it is made."""

    def __init__(self, obs):
        InlineTracer.__init__(self)
        self.obs = obs

    def _emit(self, kind, detail):
        event = InlineTracer._emit(self, kind, detail)
        record_trace_event(self.obs, event)
        return event
