"""VM-level configuration."""

import os

from repro.backend.costmodel import CostModel
from repro.backend.icache import ICacheModel
from repro.opts.pipeline import OptimizerConfig


class JitConfig:
    """Configuration for one VM instance.

    Six fields choose between a reference and an alternative, and
    default to the reference: ``interp_predecode``, ``speculate``,
    ``typespec`` and ``osr`` (``False`` / ``True``), ``backend``
    (``"machine"`` / ``"py"``) and ``compile_mode`` (``"sync"`` /
    ``"async"``). ``docs/README.md`` tabulates them. The engine reads
    every field at construction, so a config may be edited until then,
    and it rejects a ``backend`` or ``compile_mode`` outside its two
    values with :class:`ValueError`.

    Only what an experiment or tool varies is a field. The engine's
    fixed parameters are constants where they are read: the
    speculation gates (``SPECULATION_MIN_COVERAGE`` and
    ``SPECULATION_MAX_TARGETS`` in :mod:`repro.core.inlining`), the
    deopt limit (``SPECULATION_DEOPT_LIMIT`` in
    :mod:`repro.jit.engine`) and the size of an engine's private
    compile pipeline (the :class:`~repro.serve.scheduler.BackgroundCompiler`
    defaults).

    Attributes:
        hot_threshold: profile hotness (invocations + backedge/8) at
            which a method is compiled.
        compile_enabled: False gives a pure-interpreter VM (the C1-less
            baseline used in code-size comparisons). Such a VM never
            installs the OSR hook and never requests a compile.
        cost_model: the :class:`~repro.backend.costmodel.CostModel`.
        icache: the :class:`~repro.backend.icache.ICacheModel`.
        optimizer: the :class:`~repro.opts.pipeline.OptimizerConfig`.
        context_sensitive_profiles: record one-level-context receiver
            and branch profiles alongside the aggregates (the §VI
            extension); the inliner then specializes call-tree nodes
            with caller-specific profiles.
        interp_predecode: selects the interpreter executor. ``True``
            uses the pre-decoded handler-table tier
            (:mod:`repro.interp.predecode`), ``False`` the classic
            reference loop. Semantics are bit-identical either way;
            only host wall-clock changes.
        speculate: speculative devirtualization with deoptimization.
            ``True`` lets the inliner replace well-predicted virtual
            fallbacks with guard/deopt (:mod:`repro.deopt`); ``False``
            keeps the conservative typeswitch.
        typespec: profile-guided type-check speculation. ``True`` lets
            the graph builder replace a profile-monomorphic
            ``INSTANCEOF``/``CHECKCAST`` with an exact-type guard plus a
            Pi that pins the operand's type, so the canonicalizer folds
            the check (and every dominated check downstream); refuted
            guards deopt through the same frame-state path as
            speculative devirtualization. Requires speculation to be on
            (frame capture); ``False`` keeps every type check as a
            runtime test.
        osr: on-stack replacement at loop backedges. ``True`` lets the
            interpreter transfer a running frame into compiled code
            when a backedge counter crosses ``osr_threshold``;
            ``False`` keeps frames in the interpreter until the next
            dispatch.
        osr_threshold: taken-backedge count at a single branch pc at
            which the interpreter requests an OSR compilation for that
            ``(method, backedge bci)`` pair. Independent of
            ``hot_threshold``: OSR exists precisely for frames that
            never reach another dispatch boundary.
        flight_dump: path the engine dumps the flight-recorder ring to
            (as JSONL) when a compilation fails or a trap escapes the
            dispatch — the dump-on-crash hook. ``None`` defers to the
            ``REPRO_FLIGHT_DUMP`` environment variable (a deployment
            setting); no-op when the engine's observability has no live
            flight recorder.
        compile_mode: how compilation requests are served. ``"sync"``
            compiles on the dispatching thread (the classic engine —
            compile cycles are charged to the running iteration, the
            paper's single-threaded JIT model). ``"async"`` enqueues a
            request on a background compile pipeline
            (:mod:`repro.serve.scheduler`) and keeps interpreting until
            the code installs — the paper's *online* setting made real.
        backend: which executor runs compiled roots. ``"machine"`` is
            the deterministic cycle-model register machine
            (:mod:`repro.backend.machine`) — the differential oracle.
            ``"py"`` additionally lowers each optimized graph to a live
            Python closure (:mod:`repro.backend.pycodegen`) and runs
            that instead; values, trap kinds, printed output, cycles
            and deopt frames are bit-identical by construction, only
            host wall-clock changes.
    """

    def __init__(
        self,
        hot_threshold=40,
        compile_enabled=True,
        cost_model=None,
        icache=None,
        optimizer=None,
        context_sensitive_profiles=False,
        interp_predecode=False,
        speculate=False,
        typespec=False,
        osr=False,
        osr_threshold=400,
        flight_dump=None,
        backend="machine",
        compile_mode="sync",
    ):
        self.hot_threshold = hot_threshold
        self.compile_enabled = compile_enabled
        self.cost_model = cost_model or CostModel()
        self.icache = icache or ICacheModel()
        self.optimizer = optimizer or OptimizerConfig()
        self.context_sensitive_profiles = context_sensitive_profiles
        self.interp_predecode = interp_predecode
        self.speculate = speculate
        self.typespec = typespec
        self.osr = osr
        self.osr_threshold = osr_threshold
        self.flight_dump = flight_dump
        self.backend = backend
        self.compile_mode = compile_mode

    def flight_dump_path(self):
        """Resolve the dump-on-crash path against ``REPRO_FLIGHT_DUMP``."""
        if self.flight_dump is not None:
            return self.flight_dump
        return os.environ.get("REPRO_FLIGHT_DUMP", "").strip() or None
