"""The event half of the observability subsystem.

An :class:`EventLog` records a structured stream of point events and
nestable spans — our analogue of Graal's ``-Dgraal.PrintCompilation``
plus ``TraceInlining`` streams, unified. The compiler opens a
``compile`` span per compilation with ``build`` / ``inline`` /
``optimize`` / ``lower`` child spans; the optimization pipeline emits
per-pass node-count deltas; the inline tracer bridge forwards every
inlining decision. The result is one chronological stream in which an
entire compilation can be read inline.

Every record is a JSON-serializable dict; with a *sink* the log streams
JSONL as it goes, and :meth:`EventLog.read_jsonl` reads a stream back
for offline replay (``python -m repro.tools.stats events.jsonl``).

Record schema (see ``docs/observability.md``)::

    {"seq": 0, "type": "begin", "name": "compile", "span": 1,
     "parent": null, "ts": 0.00012, "attrs": {"method": "Main.run"}}
    {"seq": 1, "type": "event", "name": "pass", "span": 2,
     "ts": ..., "attrs": {"name": "gvn", "before": 41, "after": 38}}
    {"seq": 2, "type": "end", "name": "compile", "span": 1,
     "ts": ..., "dur": 0.0042, "attrs": {"nodes": 38, ...}}

``ts`` is seconds since the log was created and ``dur`` the span's wall
duration — telemetry only, never part of the deterministic cycle model.

The default log on every VM object is :data:`NULL_EVENTS`, whose spans
and events are no-ops.
"""

import json
import threading
import time


class Span:
    """One open span; a context manager handed out by :meth:`EventLog.span`.

    Attributes set through :meth:`set` are attached to the ``end``
    record, so a phase can report results (node counts, code size)
    computed while it ran.
    """

    __slots__ = ("_log", "name", "sid", "parent", "attrs", "start")

    def __init__(self, log, name, sid, parent, attrs, start):
        self._log = log
        self.name = name
        self.sid = sid
        self.parent = parent
        self.attrs = attrs
        self.start = start

    def set(self, **attrs):
        self.attrs.update(attrs)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self._log._end_span(self)
        return False


class EventLog:
    """Collects spans and events, in memory and optionally as JSONL.

    Spans nest per thread: a record's ``parent`` or ``span`` is the
    innermost span open *on the recording thread*. ``seq`` and span
    ids are drawn under one lock, so they stay unique when compile
    workers and application threads share the log.

    Args:
        sink: optional file-like object; every record is written to it
            as one JSON line the moment it is recorded.
    """

    enabled = True

    def __init__(self, sink=None):
        self.records = []
        self._sink = sink
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 1
        self._seq = 0
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        """The calling thread's open spans, innermost last."""
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            return local.stack

    def span(self, name, /, **attrs):
        """Open a nested span; use as ``with log.span("compile", ...):``."""
        stack = self._stack()
        now = time.perf_counter() - self._t0
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        parent = stack[-1].sid if stack else None
        span = Span(self, name, sid, parent, {}, now)
        stack.append(span)
        self._write(
            {
                "type": "begin",
                "name": name,
                "span": sid,
                "parent": parent,
                "ts": now,
                "attrs": dict(attrs),
            }
        )
        return span

    def emit(self, name, /, **attrs):
        """Record a point event inside the calling thread's innermost
        open span.

        ``name`` is positional-only so events may carry a ``name``
        attribute of their own (the pipeline's ``pass`` events do).
        """
        stack = self._stack()
        self._write(
            {
                "type": "event",
                "name": name,
                "span": stack[-1].sid if stack else None,
                "ts": time.perf_counter() - self._t0,
                "attrs": attrs,
            }
        )

    def _end_span(self, span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)
        now = time.perf_counter() - self._t0
        self._write(
            {
                "type": "end",
                "name": span.name,
                "span": span.sid,
                "ts": now,
                "dur": now - span.start,
                "attrs": span.attrs,
            }
        )

    def _write(self, record):
        # One lock for seq, the in-memory list and the sink: seq values
        # are unique and follow the order of both.
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            self.records.append(record)
            if self._sink is not None:
                self._sink.write(json.dumps(record, default=str))
                self._sink.write("\n")

    # -- queries -----------------------------------------------------------

    def of_name(self, name):
        return [r for r in self.records if r["name"] == name]

    def spans_named(self, name):
        return [r for r in self.records if r["type"] == "begin" and r["name"] == name]

    def __len__(self):
        return len(self.records)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        """Write the whole in-memory stream to *path* as JSONL."""
        with open(path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, default=str))
                handle.write("\n")

    @staticmethod
    def read_jsonl(path):
        """Read a JSONL event stream back into a list of records."""
        records = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records


class _NullSpan:
    """Shared no-op span used by :class:`NullEventLog`."""

    __slots__ = ()
    name = "<null>"
    sid = None
    parent = None
    attrs = {}

    def set(self, **attrs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False


NULL_SPAN = _NullSpan()


class NullEventLog:
    """The default, inert event log."""

    __slots__ = ()
    enabled = False
    records = ()

    def span(self, name, /, **attrs):
        return NULL_SPAN

    def emit(self, name, /, **attrs):
        pass

    def of_name(self, name):
        return []

    def spans_named(self, name):
        return []

    def __len__(self):
        return 0

    def save(self, path):
        raise ValueError("cannot save the null event log")


NULL_EVENTS = NullEventLog()
