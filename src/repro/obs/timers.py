"""Cheap wall-clock phase timers (the third half of observability).

The event log's spans already carry a ``dur`` attribute, but turning a
stream of events into "where did the wall time go" requires a full scan.
:class:`PhaseTimers` is the cheap aggregate view: named accumulators of
``(seconds, count)`` that cost two ``perf_counter`` calls per timed
region and nothing to read. The ``stats`` CLI renders the snapshot as a
wall-time attribution table.

Wall-clock numbers are *host telemetry only*: nothing in the
deterministic cycle model reads them (same contract as event-span
durations).

Usage::

    with obs.timers.span("compile.inline"):
        ...
    obs.timers.snapshot()
    # {"compile.inline": {"seconds": 0.012, "count": 3}}

The inert :data:`NULL_TIMERS` (default on :data:`~repro.obs.NULL_OBS`)
reuses one no-op span object, so un-instrumented code pays a dict-free
attribute access and an empty ``with`` block.
"""

import time


class PhaseAccumulator:
    """Total seconds and entry count for one named phase."""

    __slots__ = ("name", "seconds", "count")

    def __init__(self, name):
        self.name = name
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds):
        self.seconds += seconds
        self.count += 1

    def snapshot(self):
        return {"seconds": self.seconds, "count": self.count}

    def __repr__(self):
        return "<Phase %s %.6fs/%d>" % (self.name, self.seconds, self.count)


class _PhaseSpan:
    """Context manager adding its elapsed wall time to an accumulator."""

    __slots__ = ("_acc", "_t0")

    def __init__(self, acc):
        self._acc = acc
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._acc.add(time.perf_counter() - self._t0)
        return False


class PhaseTimers:
    """A registry of named wall-clock phase accumulators."""

    __slots__ = ("_phases",)

    enabled = True

    def __init__(self):
        self._phases = {}

    def phase(self, name):
        """Get or create the accumulator for *name*."""
        acc = self._phases.get(name)
        if acc is None:
            acc = self._phases[name] = PhaseAccumulator(name)
        return acc

    def span(self, name):
        """A ``with``-able region accumulating into phase *name*."""
        return _PhaseSpan(self.phase(name))

    def seconds(self, name):
        acc = self._phases.get(name)
        return acc.seconds if acc is not None else 0.0

    def snapshot(self):
        """``{name: {"seconds": s, "count": n}}``, sorted by name."""
        return {
            name: acc.snapshot()
            for name, acc in sorted(self._phases.items())
        }

    def __len__(self):
        return len(self._phases)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _NullAccumulator:
    __slots__ = ()
    name = ""
    seconds = 0.0
    count = 0

    def add(self, seconds):
        pass

    def snapshot(self):
        return {"seconds": 0.0, "count": 0}


_NULL_ACC = _NullAccumulator()


class NullPhaseTimers:
    """Inert timers: every span is the same no-op object."""

    __slots__ = ()

    enabled = False

    def phase(self, name):
        return _NULL_ACC

    def span(self, name):
        return _NULL_SPAN

    def seconds(self, name):
        return 0.0

    def snapshot(self):
        return {}

    def __len__(self):
        return 0


NULL_TIMERS = NullPhaseTimers()
