"""The tiered execution engine.

One :class:`Engine` is one "VM instance" in the paper's measurement
protocol: fresh statics, empty profiles, empty code cache. Methods
start in the profiling interpreter; when their hotness crosses the
threshold, a compilation request is served (synchronously — our stand-in
for the compile queue) and subsequent calls run compiled code.

Cycle accounting:

- interpreted bytecodes × ``INTERPRETED_OP``,
- compiled-block cycles accumulated by the machine executor,
- instruction-cache entry penalties,
- compilation cycles, charged to the iteration that compiled
  (modelling the compiler stealing cycles from the application as a
  single-threaded JIT does; this is what the warmup figure shows).

Observability: pass ``obs=Observability()`` to record tier
transitions, compile triggers/failures, deopts and per-iteration
breakdowns (an ``iteration`` span per :meth:`Engine.run_iteration`)
into the shared metrics registry, event stream and flight ring (see
:mod:`repro.obs`). Sync, OSR and background compiles share
one trigger record, one install path (:meth:`Engine._install`) and one
failure path (:meth:`Engine._compile_failure`). The default is the
inert :data:`~repro.obs.NULL_OBS` and leaves the cycle model
bit-identical to an un-instrumented run.

Background compilation: with ``JitConfig(compile_mode="async")``
compile requests are enqueued on a
:class:`~repro.serve.scheduler.BackgroundCompiler` — either an
externally attached one (``compile_service=``, shared across tenants by
:class:`~repro.serve.service.VMService`) or an engine-private pipeline
created lazily — and interpretation continues until the code installs.
Observable semantics (values, trap kinds, printed output) are
bit-identical to sync mode; only cycle *attribution* changes:
background compile cycles accumulate in ``background_compile_cycles``
instead of being charged to the running iteration (the compiler no
longer steals application cycles — the point of the paper's online
setting).
"""

import threading
import time

from repro.backend.machine import MachineExecutor
from repro.deopt import DeoptSignal, SpeculationLog, resume_frames
from repro.errors import CompileError, IRError, VMError
from repro.interp.interpreter import Interpreter, OSR_MISS
from repro.interp.profiles import ProfileStore
from repro.jit.codecache import CodeCache, TenantCacheView
from repro.jit.config import JitConfig
from repro.obs import NULL_OBS
from repro.runtime.vmstate import VMState

#: Deopts tolerated in one compiled root before the engine stops
#: speculating in that method entirely (bounds deopt/recompile churn).
SPECULATION_DEOPT_LIMIT = 3

#: The values of the string-valued config fields, reference first.
CHOICES = {"backend": ("machine", "py"), "compile_mode": ("sync", "async")}


class IterationResult:
    """Cycle breakdown for one benchmark iteration.

    All cycle fields and ``compilations`` are per-iteration deltas.
    ``installed_size`` is the exception: it is the *absolute* code-cache
    size after the iteration (the quantity Figure 10 / Table I report);
    ``installed_size_delta`` is its per-iteration growth, for warmup
    plots that chart code-cache growth alongside the cycle curve.
    """

    __slots__ = (
        "value",
        "total_cycles",
        "interpreted_cycles",
        "compiled_cycles",
        "compile_cycles",
        "icache_cycles",
        "compilations",
        "installed_size",
        "installed_size_delta",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name, 0))

    def as_dict(self):
        """The breakdown as a plain dict (metrics/JSON export)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (
            "<Iteration total=%d interp=%d compiled=%d jit=%d icache=%d "
            "compilations=%d installed=%d>"
            % (
                self.total_cycles,
                self.interpreted_cycles,
                self.compiled_cycles,
                self.compile_cycles,
                self.icache_cycles,
                self.compilations,
                self.installed_size,
            )
        )


class _Links(dict):
    """An engine's link table (``Engine._links``): method -> link cell.

    A miss creates the cell under the engine's cache lock, so it cannot
    interleave with the cache hook that re-points cells: a cell never
    holds a closure whose code has left the cache.
    """

    __slots__ = ("engine",)

    def __init__(self, engine):
        super().__init__()
        self.engine = engine

    def __missing__(self, method):
        engine = self.engine
        with engine._cache_lock:
            return self.setdefault(method, [engine._target(method)])


class Engine:
    """A tiered VM instance.

    Installed code needs no cap: the cache holds at most one entry per
    method plus one per OSR backedge. A compiled root that deopts
    :data:`SPECULATION_DEOPT_LIMIT` times compiles without speculation
    from then on.
    """

    def __init__(self, program, config=None, inliner=None, seed=0x5EED,
                 obs=None, code_cache=None, profiles=None,
                 compile_service=None):
        self.program = program
        self.config = config or JitConfig()
        for field, values in CHOICES.items():
            value = getattr(self.config, field)
            if value not in values:
                raise ValueError(
                    "JitConfig.%s=%r: expected %r or %r"
                    % ((field, value) + values)
                )
        self.obs = obs if obs is not None else NULL_OBS
        self.vm = VMState(program, seed=seed)
        self.profiles = (
            profiles
            if profiles is not None
            else ProfileStore(
                context_sensitive=self.config.context_sensitive_profiles,
                obs=self.obs,
            )
        )
        #: Installed-code bookkeeping. Per-engine by default; a
        #: multi-tenant service passes a per-tenant *view* of a shared
        #: sharded cache instead (same surface, global accounting).
        self.code_cache = (
            code_cache if code_cache is not None else CodeCache(obs=self.obs)
        )
        #: Which tier runs compiled roots: ``"machine"`` (the cycle
        #: model, the differential oracle) or ``"py"`` (generated
        #: Python closures, :mod:`repro.backend.pycodegen`). Read once
        #: at construction — mirrors ``compile_mode`` below.
        self.backend = self.config.backend
        self._py = self.backend == "py"
        #: What a linked call of an installed key runs, keyed like the
        #: cache: the method, or ``(method, bci)`` for an OSR
        #: continuation. On a py engine it is the installed code's
        #: closure bound to this engine's VM state, link table and cycle
        #: sink (code the generator bailed out of has none); on a
        #: machine engine it is the installed code itself. A linking
        #: tenant of a shared cache (``_shared``) keeps the pair
        #: ``(binding, entry)``, where ``entry.tick`` is the entry's LRU
        #: stamp. The cache hook (:meth:`_code_changed`) writes the
        #: value at install and drops it at replacement or eviction, in
        #: one dict operation each, so a binding lives exactly as long
        #: as its cache entry and no thread sees one without its stamp.
        self._bindings = {}
        #: Whether dispatch links (:meth:`_dispatch_linked`): calls
        #: run a method's binding straight from ``_bindings``, on
        #: either backend and either cache. Only observability keeps
        #: :meth:`_dispatch`, whose lookups its metrics count.
        self._linked = not self.obs.enabled
        #: The :class:`~repro.jit.codecache.SharedCodeCache` whose
        #: entries a linked call stamps, as a ``get`` hit does; None on
        #: a private cache and on an engine that does not link.
        self._shared = (
            self.code_cache.shared
            if self._linked and isinstance(self.code_cache, TenantCacheView)
            else None
        )
        #: ``icache.entry_penalty(total_size)`` on a linking engine. A
        #: private cache's hook recomputes it at every install and
        #: evict, the only changes of its ``total_size``. A shared
        #: cache's total also moves with the other tenants' code, so a
        #: linked call of its tenant recomputes it when the total
        #: differs from ``_penalty_total``, the one it was computed for.
        self._penalty = 0
        self._penalty_total = None
        #: The dispatch entry every tier calls, chosen once here.
        self._dispatcher = (
            self._dispatch_linked if self._linked else self._dispatch
        )
        #: The link table py closures call through: method -> its link
        #: cell, a one-element list holding what a call of the method
        #: runs now (:meth:`_target`). A closure fetches a direct
        #: callee's cell once, when it is bound, and a virtual one's
        #: per call; a miss creates the cell (:class:`_Links`). Cells
        #: are created and re-pointed only under ``_cache_lock``.
        self._links = _Links(self)
        #: method -> its bound closure, for installed code a cell may
        #: run without the dispatcher: code with no deopt point, so no
        #: ``DeoptSignal`` leaves the closure. Only an engine that links
        #: over a private cache keeps one (a shared cache's tenant ticks
        #: an LRU stamp per call); None elsewhere.
        self._raw = (
            {} if self._py and self._linked and self._shared is None
            else None
        )
        if self._py or self._linked:
            self.code_cache.watch(self._code_changed)
        self.interpreter = Interpreter(
            self.vm, profiles=self.profiles, dispatch=self._dispatcher,
            obs=self.obs, predecode=self.config.interp_predecode,
        )
        self.speculation_log = SpeculationLog()
        from repro.jit.compiler import JitCompiler

        self.compiler = JitCompiler(
            program, self.profiles, self.config, inliner, obs=self.obs,
            speculation_log=self.speculation_log,
        )
        self.executor = MachineExecutor(self.vm, self._dispatcher, self)
        #: Entries into py closures, counted by the closures themselves
        #: (plain attribute so un-instrumented differential tests can
        #: assert the py tier actually ran).
        self.py_exec_count = 0
        self.compiled_cycles = 0
        self.compile_cycles = 0
        self.icache_cycles = 0
        self.compilation_count = 0
        self.deopt_count = 0
        self.invalidation_count = 0
        #: Frames transferred into compiled code mid-method and OSR
        #: continuations compiled (the ``osr.entries`` /
        #: ``osr.compilations`` counters, kept as plain attributes so
        #: un-instrumented tests can assert on them).
        self.osr_entry_count = 0
        self.osr_compilation_count = 0
        self._deopt_counts = {}  # method -> deopts taken in its code
        self._compile_failed = set()
        self._osr_failed = set()  # (method, bci) pairs
        self._dispatch_depth = 0
        # Background compilation (the online setting): read once at
        # construction so the dispatch fast path pays a single bool.
        self.compile_mode = self.config.compile_mode
        self._async = self.compile_mode == "async"
        self.compile_service = compile_service
        self._owns_service = False
        #: Background-pipeline cycle/charge accounting, kept separate
        #: from ``compile_cycles`` — async compilation no longer steals
        #: application cycles, so iterations never see these.
        self.background_compile_cycles = 0
        self.async_installs = 0
        self.async_cancelled = 0
        self._pending = {}  # request key -> CompileRequest
        self._pending_lock = threading.Lock()
        self._compile_lock = threading.RLock()
        self._cache_lock = threading.RLock()
        # On-stack replacement: install the transfer hook on the
        # interpreter only when enabled (a pure interpreter never
        # compiles), so the disabled configuration pays exactly one
        # None check per recorded backedge.
        if self.config.osr and self.config.compile_enabled:
            self.interpreter.osr_hook = self._osr_enter
            self.interpreter.osr_threshold = max(
                1, int(self.config.osr_threshold)
            )
        # Where the flight-recorder ring goes on a crash, if anywhere.
        self._flight_dump_path = self.config.flight_dump_path()
        # Pre-bound instrument for the hot dispatch path; None when
        # observability is off so the fast path pays one None check.
        self._icache_counter = (
            self.obs.metrics.counter("icache.penalty")
            if self.obs.enabled
            else None
        )

    def _execute(self, key, code, args):
        """Run *code*, installed at cache key *key*, on the selected
        backend.

        The ``py`` tier runs the closure :meth:`_code_changed` bound
        when the code was installed (bindings are per engine and live
        as long as the cache entry); code without one (the generator
        bailed out) runs on the machine executor, so a mixed cache is
        fine. Both tiers raise the same traps and
        :class:`~repro.deopt.DeoptSignal`; callers don't care which ran.
        """
        if self._py:
            binding = self._bindings.get(key)
            if binding is not None:
                if self._shared is not None:
                    binding = binding[0]
                return binding(*args)
        return self.executor.execute(code, args)

    def _code_changed(self, key, code, entry=None):
        """Cache hook (``code_cache.watch``) of a py or a linking
        engine: *code* is now installed at *key*, or nothing when
        ``None``; a shared cache also passes the new *entry*.

        Binds *key* anew (see ``_bindings``); on a linking engine with
        a private cache also recomputes the entry penalty for the new
        ``total_size``, and re-points *key*'s link cell, or every cell
        when the penalty crossed zero (see :meth:`_target`).
        """
        binding = code
        if self._py and code is not None:
            factory = code.py_factory
            binding = (
                factory(self.vm, self._links, self)
                if factory is not None
                else None
            )
        if binding is None:
            self._bindings.pop(key, None)
        elif self._shared is None:
            self._bindings[key] = binding
        else:
            self._bindings[key] = (binding, entry)
        crossed = False
        if self._linked and self._shared is None:
            penalty = self.config.icache.entry_penalty(
                self.code_cache.total_size
            )
            crossed = (penalty == 0) != (self._penalty == 0)
            self._penalty = penalty
        raw = self._raw
        if raw is None:
            return
        if type(key) is not tuple:  # an OSR continuation has no cell
            if binding is not None and not code.deopt_table:
                raw[key] = binding
            else:
                raw.pop(key, None)
        links = self._links
        if crossed:
            for method, cell in links.items():
                cell[0] = self._target(method)
        elif key in links:
            links[key][0] = self._target(key)

    def _target(self, method):
        """What a call of *method* through its link cell runs now.

        The bound closure itself when the call needs no engine work:
        the engine links over a private cache, the icache entry penalty
        is 0, and the installed code has no deopt point (``_raw``).
        Otherwise an entry into the dispatcher, which charges the
        penalty, ticks a shared cache's LRU stamp, catches the callee's
        deopt, compiles a method not compiled yet, and runs code the
        generator bailed out of on the machine executor, as for any
        other call.
        """
        if self._raw is not None and not self._penalty:
            closure = self._raw.get(method)
            if closure is not None:
                return closure
        dispatcher = self._dispatcher

        def entry(*args):
            return dispatcher(method, list(args))

        return entry

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_linked(self, method, args):
        """:meth:`_dispatch` for a linking engine (see ``_linked``).

        A linked method runs its binding directly: no cache lookup and
        no :meth:`_execute`. On a private cache the entry penalty is
        the one computed at the last install or evict. A tenant of a
        shared cache ticks its entry's LRU stamp from the cache's clock,
        as a ``get`` hit would, and recomputes the penalty only when the
        cache's global ``total_size`` has changed since its last call.
        Anything else takes :meth:`_dispatch`. Cycles, counts, LRU
        stamps and deopt handling are the same either way.
        """
        binding = self._bindings.get(method)
        if binding is None:
            return self._dispatch(method, args)
        shared = self._shared
        if shared is not None:
            binding, entry = binding
            entry.tick = next(shared.clock)
            total = shared.total_size
            if total != self._penalty_total:
                self._penalty = self.config.icache.entry_penalty(total)
                self._penalty_total = total
        penalty = self._penalty
        if penalty:
            self.icache_cycles += penalty
        try:
            if self._py:
                return binding(*args)
            # Looked up per call, not bound once: a wrapper put on the
            # executor after construction (a tracer) sees every call.
            return self.executor.execute(binding, args)
        except DeoptSignal as signal:
            return self._handle_deopt(method, signal)

    def _dispatch(self, method, args):
        code = self.code_cache.get(method)
        if (
            code is None
            # A queued method is not requested again: a lock-free read,
            # which ``_request_compile`` repeats under its lock.
            and not (self._async and method in self._pending)
            and self._should_compile(method)
        ):
            if self._async:
                # Online mode: enqueue and keep interpreting this call;
                # a later dispatch picks up the installed code.
                self._request_compile(method)
            else:
                code = self._compile(method)
        if code is not None:
            penalty = self.config.icache.entry_penalty(self.code_cache.total_size)
            if penalty:
                self.icache_cycles += penalty
                if self._icache_counter is not None:
                    self._icache_counter.inc(penalty)
            try:
                return self._execute(method, code, args)
            except DeoptSignal as signal:
                # Caught at the deopting method's *own* dispatch
                # boundary, so compiled callers further up the stack
                # see an ordinary return value.
                return self._handle_deopt(method, signal)
        return self.interpreter.execute(method, args)

    def _handle_deopt(self, method, signal, osr_key=None):
        """A speculation guard failed inside *method*'s compiled code.

        Record the refuted speculation, invalidate the code (the next
        hot dispatch recompiles without it), and resume execution in
        the profiling interpreter from the materialized frame state.
        With *osr_key* set, the failing code is the OSR continuation
        entered at that backedge bci and only that cache entry is
        invalidated; the fallback resume path is identical.
        """
        self.deopt_count += 1
        count = self._deopt_counts.get(method, 0) + 1
        self._deopt_counts[method] = count
        self.speculation_log.record(signal.site, signal.reason)
        obs = self.obs
        if obs.enabled:
            # Timeline entry linking back to the guard that fired: the
            # ``site`` key matches the compile-time ``inline.speculation``
            # record for the refuted guess.
            obs.record(
                "deopt",
                method=method.qualified_name,
                reason=signal.reason,
                site="%s@%d" % signal.site,
                count=count,
                frames=len(signal.frames),
            )
        if count >= SPECULATION_DEOPT_LIMIT:
            # Too much deopt/recompile churn in this root: stop
            # speculating in it entirely.
            self.speculation_log.disable(method.qualified_name)
        if self._async:
            # A queued compilation of this method speculated on the
            # site this deopt just refuted: keep it out of the cache.
            self._cancel_pending(method)
        # Evicting drops the py binding with the code (the cache
        # hook), so the refuted code is not pinned in memory.
        with self._cache_lock:
            if osr_key is not None:
                invalidated = self.code_cache.evict_osr(method, osr_key)
            else:
                invalidated = self.code_cache.evict(method)
        if invalidated:
            self.invalidation_count += 1
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter("deopt.taken").inc()
            metrics.counter("deopt.reasons.%s" % signal.reason).inc()
            if invalidated:
                metrics.counter("jit.invalidations").inc()
                obs.record(
                    "jit.invalidate",
                    method=method.qualified_name,
                    reason=signal.reason,
                )
        # Evicted *before* resuming: nested dispatches during the
        # interpreted continuation must not re-enter the refuted code.
        return resume_frames(self.interpreter, signal.frames)

    def _should_compile(self, method):
        config = self.config
        if not config.compile_enabled:
            return False
        if method.is_native or method.is_abstract:
            return False
        if method in self._compile_failed:
            return False
        return self.profiles.hotness(method) >= config.hot_threshold

    def _compile(self, method):
        self._record_trigger(method)
        try:
            record = self.compiler.compile(method)
        except CompileError as error:
            self._compile_failure(method, error)
            return None
        return self._install(method, record)

    # ------------------------------------------------------------------
    # Compile outcomes: one trigger record, one install path and one
    # failure path for sync, OSR and background compiles
    # ------------------------------------------------------------------

    def _record_compile(self, outcome, method, bci, background, **attrs):
        """Record one compile fact: ``jit.<outcome>`` for a whole
        method, ``osr.<outcome>`` with the backedge *bci* for an OSR
        continuation; a background compile adds ``mode="async"``."""
        head = {"method": method.qualified_name}
        if bci is None:
            kind = "jit." + outcome
        else:
            kind = "osr." + outcome
            head["bci"] = bci
        if background:
            attrs["mode"] = "async"
        self.obs.record(kind, **head, **attrs)

    def _record_trigger(self, method, bci=None, background=False):
        """Record that *method* (at OSR backedge *bci*) is compiled now,
        or queued when *background*."""
        if self.obs.enabled:
            self._record_compile(
                "trigger", method, bci, background,
                hotness=self.profiles.hotness(method),
            )

    def _mark_failed(self, method, bci):
        """Stop hot dispatches (or backedges) re-requesting this key."""
        if bci is None:
            self._compile_failed.add(method)
        else:
            self._osr_failed.add((method, bci))

    def _compile_failure(self, method, error, bci=None, background=False):
        """The one failure path: the compilation of *method* (at OSR
        backedge *bci*) raised *error*; it stays interpreted."""
        self._mark_failed(method, bci)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("jit.compile.failures").inc()
            self._record_compile(
                "compile_failed", method, bci, background, error=repr(error)
            )
            self._dump_flight_on_crash("compile-error")

    def _install(self, method, record, bci=None, background=False):
        """The one install path: put *record*'s code in the cache (as
        the OSR continuation at *bci* when given) and account for it.

        Compile cycles go to ``compile_cycles`` (the running iteration
        pays) or, for a *background* compile, to
        ``background_compile_cycles``. A per-tenant quota can reject an
        entry outright (the code alone exceeds the quota); the key is
        then marked failed so it stops being re-requested. Returns the
        installed code, or None on rejection.
        """
        code = record.code
        with self._cache_lock:
            if bci is None:
                accepted = self.code_cache.install(method, code)
            else:
                accepted = self.code_cache.install_osr(method, bci, code)
        obs = self.obs
        if accepted is False:
            self._mark_failed(method, bci)
            if obs.enabled:
                obs.metrics.counter("codecache.quota_rejections").inc()
                obs.record(
                    "jit.install_rejected",
                    method=method.qualified_name,
                    code_size=code.size,
                )
            return None
        cycles = record.compile_cycles
        if background:
            self.background_compile_cycles += cycles
            self.async_installs += 1
        else:
            self.compile_cycles += cycles
        self.compilation_count += 1
        if bci is not None:
            self.osr_compilation_count += 1
        if obs.enabled:
            metrics = obs.metrics
            if bci is not None:
                metrics.counter("osr.compilations").inc()
            metrics.counter("jit.compile.count").inc()
            metrics.counter(
                "jit.compile.cycles.background"
                if background
                else "jit.compile.cycles"
            ).inc(cycles)
            metrics.histogram("jit.compile.nodes").record(record.graph_nodes)
            metrics.histogram("jit.compile.code_size").record(code.size)
            self._record_compile(
                "install", method, bci, background,
                code_size=code.size,
                total_size=self.code_cache.total_size,
                compile_cycles=cycles,
                nodes=record.graph_nodes,
            )
        return code

    # ------------------------------------------------------------------
    # Background compilation (the online setting)
    # ------------------------------------------------------------------

    def _service(self):
        """The attached compile service, creating a private pipeline
        (the :class:`~repro.serve.scheduler.BackgroundCompiler`
        defaults: one worker, a 32-request queue) on first use when
        none was given. A full queue rejects the request and the
        method stays interpreted until a later hot dispatch retries."""
        service = self.compile_service
        if service is None:
            from repro.serve.scheduler import BackgroundCompiler

            service = BackgroundCompiler(obs=self.obs)
            self.compile_service = service
            self._owns_service = True
        return service

    def _request_compile(self, method, osr=None):
        """Enqueue a background compilation (dedup'd per cache key).

        *osr* is ``None`` for whole-method requests or an
        ``(backedge bci, target bci, stack depth)`` triple. The profile
        snapshot is taken here, on the submitting thread, so the worker
        never reads live profile dicts.
        """
        from repro.serve.queue import CompileRequest

        key = method if osr is None else (method, osr[0])
        with self._pending_lock:
            if key in self._pending:
                return
            if osr is None:
                request = CompileRequest(
                    self, method, profiles=self.profiles.snapshot()
                )
            else:
                bci, target, stack_depth = osr
                request = CompileRequest(
                    self, method, kind="osr", bci=bci, target=target,
                    stack_depth=stack_depth,
                    profiles=self.profiles.snapshot(),
                )
            self._pending[key] = request
        self._record_trigger(method, request.bci, background=True)
        if not self._service().submit(request):
            # Backpressure: drop the marker so a later hot dispatch
            # retries once the queue has drained.
            with self._pending_lock:
                self._pending.pop(key, None)

    def background_compile_lock(self):
        """Serializes background compilations for this engine (the
        inliner and pipeline carry per-compilation state)."""
        return self._compile_lock

    def execute_compile_request(self, request):
        """Worker-thread entry: run one compilation against the
        request's profile snapshot. Caller holds the compile lock."""
        compiler = self.compiler
        saved = compiler.profiles
        compiler.profiles = request.profiles
        compiler.context.profiles = request.profiles
        try:
            if request.kind == "osr":
                return compiler.compile_osr(
                    request.method, request.bci, request.target,
                    request.stack_depth,
                )
            return compiler.compile(request.method)
        finally:
            compiler.profiles = saved
            compiler.context.profiles = saved

    def finish_background_compile(self, request, record, error):
        """Terminal step of a background request; returns its outcome.

        Runs on the worker thread (or on whichever thread cancels a
        never-run request). Cancellation is re-checked *here*, after
        the compilation and before the install, so a tenant eviction or
        a speculation refutation that raced the compile still keeps the
        code out of the cache.
        """
        method = request.method
        with self._pending_lock:
            self._pending.pop(request.key, None)
        if request.cancelled or (record is None and error is None):
            self.async_cancelled += 1
            if self.obs.enabled:
                self.obs.record(
                    "compile.cancelled", method=request.describe()
                )
            return "cancelled"
        if error is not None:
            if not isinstance(error, (CompileError, IRError)):
                # A compiler bug must degrade the method to
                # interpretation, never kill the worker.
                error = CompileError(
                    "background compilation crashed: %r" % (error,)
                )
            self._compile_failure(
                method, error, request.bci, background=True
            )
            return "failed"
        if self._install(method, record, request.bci, background=True) is None:
            return "failed"
        return "installed"

    def _cancel_pending(self, method):
        """Cancel pending requests touching *method* (refuted before
        install) — whole-method and every OSR continuation."""
        with self._pending_lock:
            requests = [
                request
                for key, request in self._pending.items()
                if request.method is method
            ]
        for request in requests:
            request.cancel()

    def pending_compiles(self):
        """Snapshot of in-flight background requests (for tests/tools)."""
        with self._pending_lock:
            return list(self._pending.values())

    def drain_compiles(self, timeout=30.0):
        """Block until every pending background request reaches a
        terminal outcome; returns False on timeout. No-op in sync mode.

        With a worker-less pipeline attached (the deterministic test
        mode) the queue is drained on the calling thread instead.
        """
        if not self._async:
            return True
        service = self.compile_service
        deadline = time.monotonic() + timeout
        while True:
            pending = self.pending_compiles()
            if not pending:
                return True
            if service is not None and not service.has_workers:
                service.run_queued()
                continue
            for request in pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                request.done.wait(remaining)

    def shutdown(self, drain=False):
        """Tear down background compilation.

        Cancels pending requests (optionally draining them first) and
        closes the engine-private pipeline if this engine created one.
        Externally attached services are left running — the
        multi-tenant service owns those. Safe no-op in sync mode.
        """
        if drain:
            self.drain_compiles()
        for request in self.pending_compiles():
            request.cancel()
        if self._owns_service and self.compile_service is not None:
            self.compile_service.close()
            self.compile_service = None
            self._owns_service = False

    # ------------------------------------------------------------------
    # On-stack replacement
    # ------------------------------------------------------------------

    def _osr_enter(self, method, bci, target, locals_, stack):
        """Interpreter hook: transfer a live frame into compiled code.

        Called right after the interpreter recorded a backedge at *bci*
        (branching to the loop header *target*) whose counter reached
        the OSR threshold. Looks up or compiles the OSR continuation
        keyed ``(method, bci)`` and runs it with the interpreter frame
        — all local slots, then the live operand stack — as arguments;
        the return value finishes the interpreted frame. Returns
        :data:`~repro.interp.interpreter.OSR_MISS` to decline (a failed
        or still queued compilation), in which case the interpreter
        simply continues the loop.
        """
        if (method, bci) in self._osr_failed:
            return OSR_MISS
        code = self.code_cache.get_osr(method, bci)
        if code is None:
            if self._async:
                # Decline this transfer but queue the continuation; the
                # loop keeps interpreting and a later backedge (the
                # counter stays past the threshold) enters the
                # installed code.
                self._request_compile(method, osr=(bci, target, len(stack)))
                return OSR_MISS
            code = self._compile_osr(method, bci, target, len(stack))
            if code is None:
                return OSR_MISS
        self.osr_entry_count += 1
        penalty = self.config.icache.entry_penalty(
            self.code_cache.total_size
        )
        if penalty:
            self.icache_cycles += penalty
            if self._icache_counter is not None:
                self._icache_counter.inc(penalty)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("osr.entries").inc()
            obs.record(
                "osr.enter",
                method=method.qualified_name,
                bci=bci,
                stack_depth=len(stack),
            )
        args = list(locals_) + list(stack)
        try:
            return self._execute((method, bci), code, args)
        except DeoptSignal as signal:
            # Same safety net as whole-method code: invalidate (just
            # the OSR continuation) and fall back through the
            # materialized frames into the profiling interpreter.
            return self._handle_deopt(method, signal, osr_key=bci)

    def _compile_osr(self, method, bci, target, stack_depth):
        self._record_trigger(method, bci)
        try:
            record = self.compiler.compile_osr(method, bci, target, stack_depth)
        except (CompileError, IRError) as error:
            # IRError included: OSR graphs are built from mid-method
            # entry states the whole-method front end never sees, and a
            # builder failure must degrade to interpretation, not crash.
            self._compile_failure(method, error, bci)
            return None
        return self._install(method, record, bci)

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------

    def dump_flight(self, path):
        """Dump the flight-recorder ring to *path* as JSONL, on demand.

        Raises :class:`ValueError` when the engine runs without a live
        flight recorder (the ``NULL_OBS`` default).
        """
        self.obs.flight.save(path)

    def _dump_flight_on_crash(self, trigger):
        """Dump the ring to the configured crash path, if any.

        Best-effort: a failing dump never masks the original error
        (nor does an observability without a ring, whose ``save``
        raises :class:`ValueError`).
        """
        path = self._flight_dump_path
        if path is None or not self.obs.enabled:
            return
        self.obs.record("flight.dump", trigger=trigger, path=path)
        try:
            self.obs.flight.save(path)
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def call(self, class_name, method_name, args=()):
        method = self.program.lookup_method(class_name, method_name)
        if self.obs.enabled:
            try:
                return self._dispatcher(method, list(args))
            except VMError as error:
                # Dump-on-crash: a trap escaping the dispatch is the
                # moment the recent compilation history matters most.
                self.obs.record(
                    "trap",
                    method=method.qualified_name,
                    error=type(error).__name__,
                    detail=str(error),
                )
                self._dump_flight_on_crash("trap")
                raise
        return self._dispatcher(method, list(args))

    def run_iteration(self, class_name, method_name="run", args=()):
        """Run one benchmark iteration and return its cycle breakdown.

        Every cycle field of the result is a per-iteration delta;
        ``installed_size`` alone is the absolute code-cache size after
        the iteration (use ``installed_size_delta`` for per-iteration
        code-cache growth) — see :class:`IterationResult`.
        """
        interp_before = self.interpreter.ops_executed
        compiled_before = self.compiled_cycles
        compile_before = self.compile_cycles
        icache_before = self.icache_cycles
        compilations_before = self.compilation_count
        installed_before = self.code_cache.total_size

        obs = self.obs
        # The span's end record carries the breakdown, and its ``dur``
        # is the iteration's wall time.
        with obs.events.span("iteration") as span:
            value = self.call(class_name, method_name, args)
            interp_ops = self.interpreter.ops_executed - interp_before
            interpreted = interp_ops * self.config.cost_model.INTERPRETED_OP
            compiled = self.compiled_cycles - compiled_before
            compile_time = self.compile_cycles - compile_before
            icache = self.icache_cycles - icache_before
            result = IterationResult(
                value=value,
                interpreted_cycles=interpreted,
                compiled_cycles=compiled,
                compile_cycles=compile_time,
                icache_cycles=icache,
                total_cycles=interpreted + compiled + compile_time + icache,
                compilations=self.compilation_count - compilations_before,
                installed_size=self.code_cache.total_size,
                installed_size_delta=(
                    self.code_cache.total_size - installed_before
                ),
            )
            if obs.enabled:
                metrics = obs.metrics
                metrics.counter("engine.iterations").inc()
                metrics.gauge("interp.ops").set(self.interpreter.ops_executed)
                metrics.counter("engine.cycles").inc(result.total_cycles)
                metrics.histogram("engine.iteration.cycles").record(
                    result.total_cycles
                )
                span.set(**result.as_dict())
        return result
