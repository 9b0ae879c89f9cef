"""The differential oracle: run one program everywhere, compare.

The reference semantics is the pure profiling interpreter on a fresh
:class:`~repro.runtime.vmstate.VMState`.  Every other executor is an
:class:`~repro.jit.engine.Engine` under some :class:`JitConfig` /
inliner combination with an aggressive ``hot_threshold`` so the entry
method (and everything it calls) is compiled within the first couple of
iterations.  All executors observe:

- the **outcome** of each iteration — either ``("value", v)`` or
  ``("trap", kind)``; trap *kinds* are comparable across tiers, trap
  detail strings intentionally are not;
- the cumulative **printed output** after all iterations (the ``print``
  intrinsic appends to ``vm.output`` in every tier).

A configuration that runs compiled code on the py tier must also match
its cycle oracle: the same configuration on ``backend="machine"``, per
iteration in outcome (trap message included), ``total_cycles``,
``compiled_cycles`` and ``icache_cycles``, and in the final
``deopt_count``. A mismatch is a ``cycles`` divergence.

A trap aborts only its own iteration; the oracle keeps running the
remaining iterations against the same VM state.  This matters twice
over: always-trapping programs still exercise the compiled tiers (the
method gets hot from the attempts), and statics mutated before a trap
persist into later iterations, so precise-exception bugs — state
diverging at the trap point — become observable.
"""

from repro.baselines import C2Inliner, GreedyInliner, tuned_inliner
from repro.errors import TrapError, VMError
from repro.interp import Interpreter
from repro.jit.codecache import SharedCodeCache
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.opts.pipeline import OptimizerConfig
from repro.runtime import VMState

#: Iterations per executor: enough for hot_threshold=2 compilation to
#: kick in and for post-compilation state to be re-observed.
DEFAULT_ITERATIONS = 5

_HOT = 2


def _cfg(**kw):
    kw.setdefault("hot_threshold", _HOT)
    return JitConfig(**kw)


def _opt(**kw):
    return OptimizerConfig(**kw)


#: name -> factory returning a fresh ``(JitConfig, inliner)`` pair.
#: Factories (not instances) because inliners and configs carry state.
ORACLE_CONFIGS = {
    # Compilation with no inlining: lowering + full pass pipeline.
    "jit": lambda: (_cfg(), None),
    # The paper's inliners, exercising substitution + reoptimization.
    "jit-incremental": lambda: (_cfg(), tuned_inliner(0.1)),
    "jit-greedy": lambda: (_cfg(), GreedyInliner()),
    "jit-c2": lambda: (_cfg(), C2Inliner()),
    # Compilation with the optimizer effectively off: isolates the
    # bytecode->IR->machine translation itself.
    "opt-none": lambda: (
        _cfg(
            optimizer=_opt(
                max_iterations=0,
                enable_peeling=False,
                enable_rwe=False,
                enable_devirtualization=False,
            )
        ),
        None,
    ),
    # One pass toggled off at a time (with inlining on, so pass/inline
    # interactions are covered): a divergence that disappears under
    # exactly one of these fingers the guilty pass directly.
    "no-peel": lambda: (
        _cfg(optimizer=_opt(enable_peeling=False)),
        tuned_inliner(0.1),
    ),
    "no-rwe": lambda: (
        _cfg(optimizer=_opt(enable_rwe=False)),
        tuned_inliner(0.1),
    ),
    "no-devirt": lambda: (
        _cfg(optimizer=_opt(enable_devirtualization=False)),
        tuned_inliner(0.1),
    ),
    # Context-sensitive profiles feed different data to the inliner.
    "ctx-profiles": lambda: (
        _cfg(context_sensitive_profiles=True),
        tuned_inliner(0.1),
    ),
    # The pre-decoded interpreter tier, alone and under the JIT: both
    # must be bit-identical to the classic reference loop.
    "interp-predecode": lambda: (
        _cfg(compile_enabled=False, interp_predecode=True),
        None,
    ),
    "jit-predecode": lambda: (
        _cfg(interp_predecode=True),
        tuned_inliner(0.1),
    ),
    # Speculative devirtualization with deoptimization: guard/deopt
    # replaces well-predicted virtual fallbacks, and a failed guard
    # must resume in the interpreter with identical observable
    # behavior (values, output, traps).
    "jit-speculate": lambda: (
        _cfg(speculate=True),
        tuned_inliner(0.1),
    ),
    # Profile-guided type-check speculation on top of guard/deopt:
    # profile-monomorphic INSTANCEOF/CHECKCAST operands get pinned with
    # an exact-type guard so dominated checks fold; a refuted guard
    # must resume in the interpreter bit-identically.
    "jit-typespec": lambda: (
        _cfg(speculate=True, typespec=True),
        tuned_inliner(0.1),
    ),
    # On-stack replacement at loop backedges: a tiny OSR threshold
    # forces mid-method transfers into compiled continuations on every
    # generated loop, and deopt out of OSR code must fall back through
    # the same resume path.
    "osr": lambda: (
        _cfg(osr=True, osr_threshold=6, speculate=True),
        tuned_inliner(0.1),
    ),
    # Background compilation: requests queue behind a worker thread and
    # install between iterations (the oracle drains the queue at each
    # iteration edge, so compiled tiers are reached deterministically).
    # Values, trap kinds, and output must stay bit-identical to sync —
    # only cycle attribution may differ.
    "jit-async": lambda: (
        _cfg(compile_mode="async", osr=True, osr_threshold=6,
             speculate=True),
        tuned_inliner(0.1),
    ),
    # The Python-codegen top tier: optimized graphs run as generated
    # Python closures instead of the machine model. Values, trap kinds
    # and output must stay bit-identical to every other tier — the
    # machine model remains the oracle.
    "jit-py": lambda: (
        _cfg(backend="py"),
        tuned_inliner(0.1),
    ),
    # ... and with speculation + OSR on top, so guard/deopt raises and
    # OSR continuations generated by the py tier cross the same resume
    # paths the machine tier uses.
    "jit-py-speculate": lambda: (
        _cfg(backend="py", speculate=True, osr=True, osr_threshold=6),
        tuned_inliner(0.1),
    ),
    # ... and over a one-tenant shared code cache too small to hold the
    # program's compiled code (CACHE_BUDGETS), so installs evict each
    # other and evicted methods recompile: every py binding must be
    # dropped and re-bound with its cache entry.
    "jit-py-evict": lambda: (
        _cfg(backend="py", speculate=True, osr=True, osr_threshold=6),
        tuned_inliner(0.1),
    ),
}

#: Configurations that run over a one-tenant
#: :class:`~repro.jit.codecache.SharedCodeCache` view, by global budget
#: in code units; their ``cycles`` twin gets the same budget. 40 units
#: hold one or two small generated methods, so a case that compiles
#: more evicts and recompiles in a loop (larger methods are rejected
#: and stay interpreted, on both backends alike).
CACHE_BUDGETS = {"jit-py-evict": 40}


def oracle_config_names():
    """All known oracle configuration names, in a stable order."""
    return list(ORACLE_CONFIGS)


class ExecutionRecord:
    """What one executor observed over a whole run.

    Engine runs also keep ``cycles`` — per iteration, the outcome with
    its trap message and the ``(total, compiled, icache)`` cycles
    (``total`` is ``None`` when the iteration trapped) — and the final
    ``deopts``; equality ignores both.
    """

    __slots__ = ("outcomes", "output", "cycles", "deopts")

    def __init__(self, outcomes, output, cycles=(), deopts=0):
        self.outcomes = list(outcomes)
        self.output = list(output)
        self.cycles = list(cycles)
        self.deopts = deopts

    def __eq__(self, other):
        return (
            self.outcomes == other.outcomes and self.output == other.output
        )


class Divergence:
    """A disagreement between the interpreter and one configuration."""

    __slots__ = ("config", "kind", "iteration", "expected", "actual")

    def __init__(self, config, kind, iteration, expected, actual):
        self.config = config
        # "outcome" | "output" | "cycles" (py tier against its machine
        # run: *expected* is the machine side)
        self.kind = kind
        # int per iteration; None for output and a final deopt count
        self.iteration = iteration
        self.expected = expected
        self.actual = actual

    def describe(self):
        if self.iteration is not None:
            where = "iteration %d" % self.iteration
        elif self.kind == "cycles":
            where = "deopt count"
        else:
            where = "printed output"
        sides = ("machine", "py") if self.kind == "cycles" else (
            "interpreter", "engine"
        )
        return "config=%s %s (%s): %s=%r, %s=%r" % (
            self.config,
            self.kind,
            where,
            sides[0],
            self.expected,
            sides[1],
            self.actual,
        )

    def as_dict(self):
        return {
            "config": self.config,
            "kind": self.kind,
            "iteration": self.iteration,
            "expected": repr(self.expected),
            "actual": repr(self.actual),
        }

    def __repr__(self):
        return "<Divergence %s>" % self.describe()


def _observe(call):
    """Run one iteration thunk; normalize its outcome."""
    return _observe_with_message(call)[0]


def _observe_with_message(call):
    """``(outcome, message)``: the normalized outcome and the trap or
    crash message (``None`` for a value)."""
    try:
        return ("value", call()), None
    except TrapError as trap:
        return ("trap", trap.kind), str(trap)
    except VMError as crash:  # a tier blew up: still comparable
        return ("crash", type(crash).__name__), str(crash)
    except RecursionError:
        return ("crash", "RecursionError"), None


def run_interpreter(program, entry, iterations=DEFAULT_ITERATIONS, vm_seed=0x5EED):
    """Reference execution: the pure interpreter, no compilation."""
    class_name, method_name = entry
    vm = VMState(program, seed=vm_seed)
    # The classic loop is the reference.
    interp = Interpreter(vm, predecode=False)
    outcomes = [
        _observe(lambda: interp.call_static(class_name, method_name, ()))
        for _ in range(iterations)
    ]
    return ExecutionRecord(outcomes, vm.output)


def _measure(engine, class_name, method_name):
    """One engine iteration: ``(outcome, cycles)``, where *cycles* is
    the outcome (with the trap message when it trapped) followed by the
    iteration's total, compiled and icache cycles; a trapped iteration
    has no total."""
    compiled, icache = engine.compiled_cycles, engine.icache_cycles
    results = []

    def call():
        results.append(engine.run_iteration(class_name, method_name))
        return results[0].value

    outcome, message = _observe_with_message(call)
    if results:
        result = results[0]
        return outcome, (outcome, result.total_cycles,
                         result.compiled_cycles, result.icache_cycles)
    return outcome, (outcome + (message,), None,
                     engine.compiled_cycles - compiled,
                     engine.icache_cycles - icache)


def oracle_engine(program, name, config, inliner, vm_seed, obs=None):
    """A fresh engine running *config* and *inliner* in the environment
    of oracle configuration *name*: over a one-tenant shared cache when
    :data:`CACHE_BUDGETS` gives *name* a budget, else a private cache.
    Every engine the oracle and the bisector build comes from here;
    *obs* observes it (none by default)."""
    budget = CACHE_BUDGETS.get(name)
    return Engine(
        program, config, inliner, seed=vm_seed, obs=obs,
        code_cache=(
            SharedCodeCache(budget=budget, obs=obs).view(0)
            if budget is not None else None
        ),
    )


def run_config(program, entry, name, iterations=DEFAULT_ITERATIONS,
               vm_seed=0x5EED, backend=None, obs=None):
    """Execute under oracle configuration *name* with a fresh engine;
    *backend*, when given, replaces the configuration's own, and *obs*
    observes the run."""
    class_name, method_name = entry
    config, inliner = ORACLE_CONFIGS[name]()
    if backend is not None:
        config.backend = backend
    engine = oracle_engine(program, name, config, inliner, vm_seed, obs)
    try:
        outcomes, cycles = [], []
        for _ in range(iterations):
            outcome, measured = _measure(engine, class_name, method_name)
            cycles.append(measured)
            outcomes.append(outcome)
            # Under async compilation, settle the queue at the iteration
            # edge so later iterations deterministically reach compiled
            # code — same coverage as sync, same required behavior.
            engine.drain_compiles()
        return ExecutionRecord(
            outcomes, engine.vm.output, cycles, engine.deopt_count
        )
    finally:
        engine.shutdown()


def compare_cycles(config, machine, py):
    """First ``cycles`` :class:`Divergence` between a py-tier record and
    the machine record of the same configuration, or ``None``."""
    for index, (expected, actual) in enumerate(zip(machine.cycles, py.cycles)):
        if expected != actual:
            return Divergence(config, "cycles", index, expected, actual)
    if machine.deopts != py.deopts:
        return Divergence(config, "cycles", None, machine.deopts, py.deopts)
    return None


def compare_records(config, reference, record):
    """First :class:`Divergence` between two records, or ``None``."""
    for index, (expected, actual) in enumerate(
        zip(reference.outcomes, record.outcomes)
    ):
        if expected != actual:
            return Divergence(config, "outcome", index, expected, actual)
    if reference.output != record.output:
        return Divergence(
            config, "output", None, reference.output, record.output
        )
    return None


def check_program(
    program,
    entry,
    config_names=None,
    iterations=DEFAULT_ITERATIONS,
    vm_seed=0x5EED,
):
    """Run *program* under the interpreter and every configuration,
    and every py-tier configuration once more on the machine backend.

    Returns the first :class:`Divergence`, or ``None`` when all
    configurations agree with the interpreter and every py tier with
    its machine run.
    """
    names = config_names if config_names is not None else oracle_config_names()
    reference = run_interpreter(program, entry, iterations, vm_seed)
    for name in names:
        record = run_config(program, entry, name, iterations, vm_seed)
        divergence = compare_records(name, reference, record)
        if divergence is None and ORACLE_CONFIGS[name]()[0].backend == "py":
            machine = run_config(
                program, entry, name, iterations, vm_seed, backend="machine"
            )
            divergence = compare_cycles(name, machine, record)
        if divergence is not None:
            return divergence
    return None
