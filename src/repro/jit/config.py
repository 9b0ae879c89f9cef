"""VM-level configuration and the environment pins it resolves."""

import os
from collections import namedtuple

from repro.backend.costmodel import CostModel
from repro.backend.icache import ICacheModel
from repro.opts.pipeline import OptimizerConfig

#: One environment pin: config *field*, its *env* variable, the
#: *reference* value and the *alternative*, the *hard* spellings (select
#: the reference whatever the field says) and the *soft* spellings
#: (select the alternative when the field is ``None``). A *compiled*
#: row resolves to its reference when ``compile_enabled=False``.
Pin = namedtuple(
    "Pin", "field env reference alternative hard soft compiled"
)

_OFF = ("off", "0", "false")
_ON = ("on", "1", "true")

#: Every ``REPRO_*`` pin, resolved by :meth:`JitConfig.resolve`.
PINS = (
    Pin("interp_predecode", "REPRO_INTERP", False, True,
        ("classic",), ("predecode",), False),
    Pin("speculate", "REPRO_SPECULATE", False, True, _OFF, _ON, False),
    Pin("typespec", "REPRO_TYPESPEC", False, True, _OFF, _ON, False),
    Pin("osr", "REPRO_OSR", False, True, _OFF, _ON, True),
    Pin("backend", "REPRO_BACKEND", "machine", "py",
        ("machine",), ("py",), False),
    Pin("compile_mode", "REPRO_COMPILE", "sync", "async",
        ("sync",), ("async",), True),
)
PIN_TABLE = {pin.field: pin for pin in PINS}


class JitConfig:
    """Configuration for one VM instance.

    The six fields named in :data:`PINS` are read through
    :meth:`resolve`, never directly: ``None`` (their default) means
    the reference value unless the row's environment variable carries
    a soft spelling, and a hard spelling beats any value set here (so
    differential harnesses can force the reference from the outside).
    ``docs/README.md`` tabulates the pins.

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
            baseline used in code-size comparisons).
        cost_model: the :class:`~repro.backend.costmodel.CostModel`.
        icache: the :class:`~repro.backend.icache.ICacheModel`.
        optimizer: the :class:`~repro.opts.pipeline.OptimizerConfig`.
        context_sensitive_profiles: record one-level-context receiver
            and branch profiles alongside the aggregates (the §VI
            extension); the inliner then specializes call-tree nodes
            with caller-specific profiles.
        interp_predecode: selects the interpreter executor (pin
            ``REPRO_INTERP``). ``True`` uses the pre-decoded
            handler-table tier (:mod:`repro.interp.predecode`),
            ``False`` the classic reference loop. Semantics are
            bit-identical either way; only host wall-clock changes.
        speculate: speculative devirtualization with deoptimization
            (pin ``REPRO_SPECULATE``). ``True`` lets the inliner replace
            well-predicted virtual fallbacks with guard/deopt
            (:mod:`repro.deopt`); ``False`` keeps the conservative
            typeswitch.
        typespec: profile-guided type-check speculation (pin
            ``REPRO_TYPESPEC``). ``True`` lets the graph builder replace
            a profile-monomorphic ``INSTANCEOF``/``CHECKCAST`` with an
            exact-type guard plus a Pi that pins the operand's type, so
            the canonicalizer folds the check (and every dominated
            check downstream); refuted guards deopt through the same
            frame-state path as speculative devirtualization. Requires
            speculation to be on (frame capture); ``False`` keeps every
            type check as a runtime test.
        osr: on-stack replacement at loop backedges (pin ``REPRO_OSR``).
            ``True`` lets the interpreter transfer a running frame into
            compiled code when a backedge counter crosses
            ``osr_threshold``; ``False`` keeps frames in the
            interpreter until the next dispatch.
        osr_threshold: taken-backedge count at a single branch pc at
            which the interpreter requests an OSR compilation for that
            ``(method, backedge bci)`` pair. Independent of
            ``hot_threshold``: OSR exists precisely for frames that
            never reach another dispatch boundary.
        flight_dump: path the engine dumps the flight-recorder ring to
            (as JSONL) when a compilation fails or a trap escapes the
            dispatch — the dump-on-crash hook. ``None`` defers to the
            ``REPRO_FLIGHT_DUMP`` environment variable (a deployment
            setting, not a pin); no-op when the engine's observability
            has no live flight recorder.
        compile_mode: how compilation requests are served (pin
            ``REPRO_COMPILE``). ``"sync"`` compiles on the dispatching
            thread (the classic engine — compile cycles are charged to
            the running iteration, the paper's single-threaded JIT
            model). ``"async"`` enqueues a request on a background
            compile pipeline (:mod:`repro.serve.scheduler`) and keeps
            interpreting until the code installs — the paper's
            *online* setting made real.
        backend: which executor runs compiled roots (pin
            ``REPRO_BACKEND``). ``"machine"`` is the deterministic
            cycle-model register machine (:mod:`repro.backend.machine`)
            — the differential oracle. ``"py"`` additionally lowers
            each optimized graph to a live Python closure
            (:mod:`repro.backend.pycodegen`) and runs that instead;
            values, trap kinds, printed output, cycles and deopt frames
            are bit-identical by construction, only host wall-clock
            changes.
    """

    def __init__(
        self,
        hot_threshold=40,
        compile_enabled=True,
        cost_model=None,
        icache=None,
        optimizer=None,
        context_sensitive_profiles=False,
        interp_predecode=None,
        speculate=None,
        typespec=None,
        osr=None,
        osr_threshold=400,
        flight_dump=None,
        backend=None,
        compile_mode=None,
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

    def resolve(self, field):
        """The effective value of the pinned *field* (a :data:`PINS` row).

        A hard spelling in the row's variable gives the reference; a
        compiled row in a pure interpreter gives the reference; a soft
        spelling gives the alternative when the field is ``None``;
        otherwise the field decides and ``None`` means the reference.
        An empty variable counts as unset; any other spelling raises
        :class:`ValueError`. Engines and compilers resolve once, at
        construction.
        """
        pin = PIN_TABLE[field]
        raw = os.environ.get(pin.env, "")
        spelling = raw.strip().lower()
        if spelling and spelling not in pin.hard + pin.soft:
            raise ValueError(
                "%s=%r: expected one of %s"
                % (pin.env, raw, ", ".join(pin.hard + pin.soft))
            )
        if spelling in pin.hard or (pin.compiled and not self.compile_enabled):
            return pin.reference
        value = getattr(self, field)
        if value is None:
            return pin.alternative if spelling else pin.reference
        if isinstance(value, str):
            value = value.strip().lower()
        return pin.alternative if value == pin.alternative else pin.reference
