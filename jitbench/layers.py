"""Per-layer tracing from the benchmark's own code.

Nothing under ``src/`` knows about this module. A traced run replaces
each layer's public function with a wrapper, through instance or module
attributes that :class:`Patches` puts back when the VM (or the round)
ends, and the wrappers record spans into a :class:`Tracer`.

A span is ``(name, id, start, end, parent id, thread, iteration id)``.
Self time is a span's duration minus the time its child spans cover,
kept on a per-thread span stack, so nested compiled <-> interpreted
dispatch is never counted twice: summed over one thread, self times
equal the wall time of that thread's root spans.
"""

import itertools
import json
import threading
from time import perf_counter

#: Raw spans kept for ``trace.jsonl``. Aggregates are exact no matter
#: how many spans a run makes; only the raw list is capped, because a
#: steady-py round makes about 600,000 spans.
KEEP_SPANS = 50_000

#: Root spans of application work (iterations and set-up): a thread
#: owning one is an application thread, and their durations are its
#: traced wall time. Other threads (background compiles) are workers.
APP_ROOTS = ("engine.iteration", "lang")

_MISSING = object()


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def set(self, obj, name, value):
        try:
            saved = vars(obj).get(name, _MISSING)
        except TypeError:  # a __slots__ object
            saved = getattr(obj, name)
        self._saved.append((obj, name, saved))
        setattr(obj, name, value)

    def wrap(self, obj, name, make_wrapper):
        """Replace ``obj.name`` with ``make_wrapper(obj.name)``."""
        self.set(obj, name, make_wrapper(getattr(obj, name)))

    def restore(self):
        while self._saved:
            obj, name, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(obj, name)
            else:
                setattr(obj, name, saved)


class _ThreadState:
    __slots__ = (
        "thread", "stack", "self_s", "calls", "root_s", "is_app",
        "core_depth", "iteration", "dropped",
    )

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.self_s = {}
        self.calls = {}
        self.root_s = 0.0
        self.is_app = False
        self.core_depth = 0
        self.iteration = None
        self.dropped = 0


class Tracer:
    """In-memory spans, per-thread self time, and layer counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.origin = perf_counter()
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._iterations = itertools.count(1)

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    # -- spans -----------------------------------------------------------

    def _enter(self, name):
        state = self._state()
        frame = [name, next(self._ids), perf_counter(), 0.0]
        state.stack.append(frame)
        return state, frame

    def _exit(self, state, frame):
        end = perf_counter()
        stack = state.stack
        stack.pop()
        name, span_id, start, child = frame
        duration = end - start
        state.self_s[name] = state.self_s.get(name, 0.0) + duration - child
        state.calls[name] = state.calls.get(name, 0) + 1
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[1]
        else:
            parent_id = None
            state.root_s += duration
            if name in APP_ROOTS:
                state.is_app = True
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                (name, span_id, start, end, parent_id, state.thread,
                 state.iteration)
            )
        else:
            state.dropped += 1

    def wrap(self, name, fn):
        """*fn* recorded as a span named *name*."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            state, frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(state, frame)

        return traced

    def wrap_core(self, name, fn):
        """Like :meth:`wrap`, and marks the thread as inside the inliner
        so :meth:`wrap_pipeline` can tell trial work from optimization."""
        enter, exit_, state_of = self._enter, self._exit, self._state

        def traced(*args, **kwargs):
            state = state_of()
            state.core_depth += 1
            state, frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(state, frame)
                state.core_depth -= 1

        return traced

    def wrap_pipeline(self, fn):
        """The optimizer: ``core.trial_opt`` while the inliner runs,
        ``opts`` when the compiler drives it directly."""
        enter, exit_, state_of = self._enter, self._exit, self._state

        def traced(*args, **kwargs):
            name = "core.trial_opt" if state_of().core_depth else "opts"
            state, frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(state, frame)

        return traced

    def span(self, name):
        """A context manager recording one span (for calls the benchmark
        makes itself)."""
        return _Span(self, name)

    def wrap_iteration(self, fn):
        """*fn* (``Engine.run_iteration``) as the root span of one
        iteration; the spans nested in it carry its iteration id."""

        def traced(*args, **kwargs):
            with _Iteration(self):
                return fn(*args, **kwargs)

        return traced

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Layer -> self seconds, summed over threads."""
        totals = {}
        for state in self._threads:
            for name, seconds in state.self_s.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def calls(self):
        totals = {}
        for state in self._threads:
            for name, count in state.calls.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def threads(self):
        """Per-thread accounting rows: name, application flag, wall time
        of root spans, and the sum of self times."""
        return [
            {
                "thread": state.thread,
                "application": state.is_app,
                "wall_s": state.root_s,
                "self_sum_s": sum(state.self_s.values()),
            }
            for state in self._threads
        ]

    @property
    def dropped(self):
        return sum(state.dropped for state in self._threads)

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for name, span_id, start, end, parent, thread, iteration in self.spans:
                handle.write(json.dumps({
                    "name": name,
                    "id": span_id,
                    "start": round(start - self.origin, 9),
                    "end": round(end - self.origin, 9),
                    "parent": parent,
                    "thread": thread,
                    "iteration": iteration,
                }) + "\n")


class _Span:
    __slots__ = ("_tracer", "_name", "_state", "_frame")

    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        self._state, self._frame = self._tracer._enter(self._name)
        return self

    def __exit__(self, *exc_info):
        self._tracer._exit(self._state, self._frame)
        return False


class _Iteration(_Span):
    __slots__ = ("_previous",)

    def __init__(self, tracer):
        super().__init__(tracer, "engine.iteration")

    def __enter__(self):
        state = self._tracer._state()
        self._previous = state.iteration
        state.iteration = next(self._tracer._iterations)
        return super().__enter__()

    def __exit__(self, *exc_info):
        super().__exit__(*exc_info)
        self._tracer._state().iteration = self._previous
        return False
