"""The JIT compiler driver: front end → inliner → optimizer → backend.

The inlining policy is pluggable: anything with a
``run(graph, context) -> InlineReport`` method works. The paper's
algorithm lives in :mod:`repro.core`; the comparison baselines in
:mod:`repro.baselines`. ``context`` is a :class:`CompileContext` giving
the policy exactly what an online inliner is allowed to see: the program
(for resolution), profiles, graph building for callees, and the
optimizer (for inlining trials).

With observability enabled (``obs=Observability()``) every compilation
is recorded as a ``compile`` span with ``build`` / ``inline`` /
``optimize`` / ``lower`` child spans, per-pass node deltas from the
pipeline, and the inliner's decision trace bridged in as
``inline.<kind>`` events — the stream behind
``python -m repro.tools.stats``.
"""

from repro.backend.lowering import lower_graph
from repro.backend.pycodegen import PyCodegenBailout, generate as generate_py
from repro.core.trials import TrialMemo
from repro.errors import CompileError
from repro.ir.builder import build_graph
from repro.ir.frequency import annotate_frequencies
from repro.obs import NULL_OBS, ProvenanceTracer
from repro.obs.provenance import record_trace_event
from repro.opts.pipeline import OptimizationPipeline


class CompileContext:
    """Everything an inlining policy may consult during a compilation."""

    def __init__(self, program, profiles, pipeline, cost_model):
        self.program = program
        self.profiles = profiles
        self.pipeline = pipeline
        self.cost_model = cost_model
        #: Optional :class:`~repro.core.trials.TrialMemo`; the JIT
        #: driver always attaches one and resets it at the start of
        #: every compilation.
        self.trial_memo = None
        #: Optional :class:`~repro.deopt.SpeculationPolicy`; when set
        #: and enabled, graphs are built with frame-state capture and
        #: the inliner may emit guard/deopt typeswitches.
        self.speculation = None
        #: Type-check speculation decisions from callee graphs built
        #: during the current compilation (the root graph keeps its own
        #: on ``graph.typecheck_decisions``); reset per compilation and
        #: drained into the event stream by the compiler.
        self.typecheck_decisions = []

    @property
    def speculate(self):
        return self.speculation is not None and self.speculation.enabled

    def build_callee_graph(self, method, caller=None):
        """A fresh profiled graph for *method* (one per call-tree node,
        so each copy can be specialized independently).

        When the profile store runs in context-sensitive mode and a
        *caller* is given, branch probabilities and receiver histograms
        come from the profile observed *from that caller* (falling back
        to the aggregate) — the §VI extension the paper left to future
        work.

        With a :class:`~repro.core.trials.TrialMemo` attached, each graph
        is built once per compilation: a repeat build returns a
        :meth:`~repro.ir.graph.Graph.copy` of the stored first build and
        replays its type-check decisions. The builder reads the method,
        the profiles (frozen for the compilation) and the speculation
        log, so the key is the method, the caller when the profiles are
        context-sensitive, and the log's version: a refutation recorded
        mid-compilation (by a deopt racing a background compile) makes
        the next build miss.
        """
        profiles = self.profiles
        if not (
            profiles is not None
            and caller is not None
            and getattr(profiles, "context_sensitive", False)
        ):
            caller = None
        memo = self.trial_memo
        if memo is not None:
            log = self.speculation.log if self.speculation is not None else None
            key = (method, caller, log.version() if log is not None else 0)
            stored = memo.graphs.get(key)
            if stored is not None:
                memo.graphs_reused += 1
                graph, decisions = stored
                self.typecheck_decisions.extend(decisions)
                return graph.copy()[0]
        if caller is not None:
            profiles = profiles.view_for_caller(caller)
        graph = build_graph(
            method,
            self.program,
            profiles,
            speculate=self.speculate,
            speculation=self.speculation,
        )
        decisions = getattr(graph, "typecheck_decisions", None) or ()
        self.typecheck_decisions.extend(decisions)
        annotate_frequencies(graph)
        if memo is not None:
            memo.graphs[key] = (graph.copy()[0], decisions)
        return graph

    def can_build(self, method):
        return not (method.is_abstract or method.is_native)


class CompilationRecord:
    """Outcome of one compilation, kept for evaluation reporting."""

    __slots__ = (
        "method",
        "code",
        "graph_nodes",
        "inline_report",
        "compile_cycles",
    )

    def __init__(self, method, code, graph_nodes, inline_report, compile_cycles):
        self.method = method
        self.code = code
        self.graph_nodes = graph_nodes
        self.inline_report = inline_report
        self.compile_cycles = compile_cycles


class JitCompiler:
    """Compiles single methods with a configurable inlining policy."""

    def __init__(
        self, program, profiles, config, inliner=None, obs=None,
        speculation_log=None,
    ):
        self.program = program
        self.profiles = profiles
        self.config = config
        self.inliner = inliner
        #: Read once per compiler so every compilation of this VM
        #: instance (sync or background pipeline) uses one backend.
        self.backend = config.backend
        self.obs = obs if obs is not None else NULL_OBS
        self.pipeline = OptimizationPipeline(
            program, config.optimizer, obs=self.obs
        )
        self.context = CompileContext(
            program, profiles, self.pipeline, config.cost_model
        )
        from repro.deopt import SpeculationLog, SpeculationPolicy

        self.context.speculation = SpeculationPolicy(
            enabled=config.speculate,
            log=speculation_log
            if speculation_log is not None
            else SpeculationLog(),
            typecheck=config.typespec,
        )
        self.context.trial_memo = TrialMemo(
            context_sensitive=getattr(profiles, "context_sensitive", False)
        )
        self.records = []
        if self.obs.enabled and inliner is not None:
            # Bridge inlining decisions into the event stream: give a
            # tracer-less incremental inliner a span-scoped tracer.
            # Policies with a user-supplied tracer keep it and are
            # drained into the stream after each run (see compile()).
            if (
                getattr(inliner, "tracer", None) is None
                and hasattr(inliner, "attach_tracer")
            ):
                inliner.attach_tracer(ProvenanceTracer(self.obs))

    def compile(self, method):
        """Compile *method*; returns a :class:`CompilationRecord`."""
        return self._compile(method, None, None, 0)

    def compile_osr(self, method, backedge_bci, target_bci, osr_stack_depth=0):
        """Compile an OSR continuation of *method*.

        The graph is entered at the loop header *target_bci* (the
        target of the backedge at *backedge_bci* that triggered the
        request) with the interpreter's locals and *osr_stack_depth*
        operand-stack slots as parameters (see
        :func:`~repro.ir.builder.build_graph`). The record's ``code``
        expects exactly those ``max_locals + osr_stack_depth`` argument
        values. The same inline/optimize/lower pipeline runs on the
        continuation graph; the compilation is named
        ``Method@osr<backedge bci>`` — matching the engine's cache key
        — so provenance streams keep OSR roots distinct from
        whole-method roots.
        """
        return self._compile(method, backedge_bci, target_bci, osr_stack_depth)

    def _compile(self, method, osr_bci, osr_target, osr_stack_depth):
        if method.is_abstract or method.is_native:
            raise CompileError("cannot compile %s" % method.qualified_name)
        obs = self.obs
        events = obs.events
        memo = self.context.trial_memo
        if memo is not None:
            # Profiles mutate between compilations; memoized trial
            # results are only sound within one.
            memo.reset()
        self.context.typecheck_decisions = []
        hotness = None
        if obs.enabled and hasattr(self.profiles, "hotness"):
            hotness = self.profiles.hotness(method)
        span_kwargs = {"method": method.qualified_name, "hotness": hotness}
        if osr_bci is not None:
            # Only OSR spans carry the attribute — whole-method compile
            # records keep their PR 1 shape.
            span_kwargs["osr_bci"] = osr_bci
        with events.span("compile", **span_kwargs) as compile_span:
            with events.span("build"):
                graph = build_graph(
                    method,
                    self.program,
                    self.profiles,
                    speculate=self.context.speculate,
                    speculation=self.context.speculation,
                    osr_bci=osr_target,
                    osr_stack_depth=osr_stack_depth,
                )
                if osr_bci is not None:
                    graph.name = "%s@osr%d" % (
                        method.qualified_name,
                        osr_bci,
                    )
                annotate_frequencies(graph)
            with events.span("optimize", stage="pre-inline"):
                self.pipeline.run(graph, peel=False, rwe=False)
            inline_report = None
            if self.inliner is not None:
                inline_report = self._run_inliner(graph, obs)
            self._record_typecheck_decisions(graph, obs)
            with events.span("optimize", stage="post-inline"):
                if getattr(inline_report, "root_at_fixpoint", False):
                    if obs.enabled:
                        obs.metrics.counter(
                            "opt.pipeline.post_inline_skipped"
                        ).inc()
                else:
                    self.pipeline.run(graph)
            work_units = graph.node_count()
            with events.span("lower"):
                code = lower_graph(graph, self.config.cost_model)
            backend = "machine"
            if self.backend == "py":
                backend = self._attach_py_tier(graph, code, obs)
            compile_cycles = self.config.cost_model.compile_cost(
                work_units, passes=self.config.optimizer.max_iterations
            )
            if inline_report is not None:
                compile_cycles += self.config.cost_model.compile_cost(
                    inline_report.explored_nodes
                )
            compile_span.set(
                nodes=work_units,
                code_size=code.size,
                compile_cycles=compile_cycles,
                backend=backend,
            )
            if obs.enabled and memo is not None:
                obs.metrics.gauge("inline.trial_memo.hits").set(memo.hits)
                obs.metrics.gauge("inline.trial_memo.misses").set(memo.misses)
                obs.metrics.gauge("inline.callee_graphs.reused").set(
                    memo.graphs_reused
                )
        record = CompilationRecord(
            method, code, work_units, inline_report, compile_cycles
        )
        self.records.append(record)
        return record

    def _record_typecheck_decisions(self, graph, obs):
        """Record the builder's type-check speculation decisions.

        Recorded after the inliner ran so ``explain`` attributes them to
        the compilation opened by its ``inline.begin``. Positive
        decisions feed the ``inline.type_speculations`` counter.
        """
        decisions = list(getattr(graph, "typecheck_decisions", ()) or ())
        # Callee graphs built (and usually inlined) during this
        # compilation decided their own sites; surface them too, one
        # entry per distinct decision (the trial memo may rebuild the
        # same specialization).
        seen = {
            tuple(sorted(d.items())) for d in decisions
        }
        for decision in self.context.typecheck_decisions:
            key = tuple(sorted(decision.items()))
            if key not in seen:
                seen.add(key)
                decisions.append(decision)
        if not decisions or not obs.enabled:
            return
        speculated = sum(1 for d in decisions if d["speculate"])
        if speculated:
            obs.metrics.counter("inline.type_speculations").inc(speculated)
        for decision in decisions:
            obs.record("inline.typecheck", **decision)

    def _attach_py_tier(self, graph, code, obs):
        """Lower *graph* to a Python closure and attach it to *code*.

        Returns the backend that will actually execute this root:
        ``"py"`` on success, ``"machine"`` when the generator bails out
        (unsupported shape) — the machine code is always present, so a
        bailout degrades to the oracle tier, never to a wrong answer.
        """
        try:
            with obs.events.span("pycodegen"):
                factory, source = generate_py(
                    graph, self.config.cost_model
                )
        except PyCodegenBailout as bailout:
            if obs.enabled:
                metrics = obs.metrics
                metrics.counter("backend.py.bailouts").inc()
                metrics.counter(
                    "backend.py.bailouts.%s" % bailout.reason
                ).inc()
                obs.record(
                    "backend.bailout",
                    method=graph.name,
                    reason=bailout.reason,
                    detail=bailout.detail,
                )
            return "machine"
        code.py_factory = factory
        code.py_source = source
        if obs.enabled:
            obs.metrics.counter("backend.py.compiles").inc()
        return "py"

    def _run_inliner(self, graph, obs):
        """Run the inlining policy inside an ``inline`` span, recording
        its decision trace."""
        tracer = getattr(self.inliner, "tracer", None)
        drain_from = None
        if (
            obs.enabled
            and tracer is not None
            and not isinstance(tracer, ProvenanceTracer)
        ):
            drain_from = len(tracer.events)
        with obs.events.span("inline") as inline_span:
            inline_report = self.inliner.run(graph, self.context)
            annotate_frequencies(graph)
            if drain_from is not None:
                for event in tracer.events[drain_from:]:
                    record_trace_event(obs, event)
            if obs.enabled and inline_report is not None:
                inline_span.set(
                    rounds=inline_report.rounds,
                    expansions=inline_report.expansions,
                    inlined=inline_report.inline_count,
                    typeswitches=inline_report.typeswitch_count,
                    speculations=getattr(
                        inline_report, "speculation_count", 0
                    ),
                    explored_nodes=inline_report.explored_nodes,
                )
                metrics = obs.metrics
                metrics.counter("inline.expansions").inc(
                    inline_report.expansions
                )
                metrics.counter("inline.inlined").inc(
                    inline_report.inline_count
                )
                metrics.counter("inline.typeswitches").inc(
                    inline_report.typeswitch_count
                )
                metrics.counter("inline.speculations").inc(
                    getattr(inline_report, "speculation_count", 0)
                )
                metrics.counter("inline.explored_nodes").inc(
                    inline_report.explored_nodes
                )
        return inline_report
