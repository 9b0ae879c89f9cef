"""Name the guilty pass for a diverging program.

Two sweeps, both cheap (each stage is one engine run):

1. **Additive**: run the program under configurations of growing
   aggressiveness — machine lowering only, then the base canonicalize/
   GVN/DCE pipeline, then devirtualization, RWE and peeling one at a
   time, then the failing configuration's inliner (speculation turned
   off), and finally the verbatim failing configuration — speculation
   included.  The first stage that disagrees with the interpreter
   names the culprit, so "speculation" is blamed only when the
   guard/deopt machinery itself makes the difference.
2. **Subtractive** (only if the additive sweep pins the inliner):
   with the inliner *on*, toggle each optimization pass off; if
   disabling one pass restores agreement, the bug is in that pass's
   interaction with inlined graphs, not in the inliner itself.

Every stage runs in the failing configuration's environment
(:func:`~repro.fuzz.oracle.oracle_engine`): under ``jit-py-evict`` each
one gets the same small shared code cache, so a divergence that needs
eviction can reproduce on the ladder.
"""

from repro.fuzz.oracle import (
    DEFAULT_ITERATIONS,
    ORACLE_CONFIGS,
    compare_records,
    oracle_engine,
    run_interpreter,
)
from repro.jit.config import JitConfig
from repro.opts.pipeline import OptimizerConfig

_HOT = 2


def _stage_config(devirt=False, rwe=False, peel=False, max_iterations=3):
    return JitConfig(
        hot_threshold=_HOT,
        optimizer=OptimizerConfig(
            max_iterations=max_iterations,
            enable_peeling=peel,
            enable_rwe=rwe,
            enable_devirtualization=devirt,
        ),
    )


#: The additive ladder: (label, config factory, mode).  ``mode`` is
#: ``None`` for a fixed no-inliner stage, ``"inliner"`` for the failing
#: configuration with speculation turned off, and ``"speculation"`` for
#: the verbatim failing configuration — so "speculation" can only be
#: named when speculative guard/deopt code is actually the difference.
_STAGES = [
    (
        "lowering/machine",
        lambda: _stage_config(max_iterations=0),
        None,
    ),
    ("canonicalize/gvn/dce", lambda: _stage_config(), None),
    ("devirtualization", lambda: _stage_config(devirt=True), None),
    ("rwe", lambda: _stage_config(devirt=True, rwe=True), None),
    (
        "peeling",
        lambda: _stage_config(devirt=True, rwe=True, peel=True),
        None,
    ),
    ("inliner", None, "inliner"),
    ("speculation", None, "speculation"),
]

#: Subtractive refinement: pass name -> kwargs that disable it.
_SUBTRACT = [
    ("devirtualization", {"devirt": False, "rwe": True, "peel": True}),
    ("rwe", {"devirt": True, "rwe": False, "peel": True}),
    ("peeling", {"devirt": True, "rwe": True, "peel": False}),
]


class BisectReport:
    """Outcome of a bisection: the culprit and the per-stage verdicts."""

    __slots__ = ("culprit", "stages", "divergence")

    def __init__(self, culprit, stages, divergence):
        self.culprit = culprit
        self.stages = stages  # [(label, diverged bool)]
        self.divergence = divergence

    def describe(self):
        ladder = ", ".join(
            "%s=%s" % (label, "DIVERGED" if bad else "ok")
            for label, bad in self.stages
        )
        return "culprit=%s [%s]" % (self.culprit, ladder)

    def as_dict(self):
        return {
            "culprit": self.culprit,
            "stages": [
                {"stage": label, "diverged": bad} for label, bad in self.stages
            ],
        }

    def __repr__(self):
        return "<BisectReport %s>" % self.describe()


def _run_engine(program, entry, config_name, config, inliner, iterations,
                vm_seed):
    from repro.fuzz.oracle import ExecutionRecord, _observe

    class_name, method_name = entry
    engine = oracle_engine(program, config_name, config, inliner, vm_seed)
    outcomes = [
        _observe(
            lambda: engine.run_iteration(class_name, method_name).value
        )
        for _ in range(iterations)
    ]
    return ExecutionRecord(outcomes, engine.vm.output)


def bisect_passes(
    program,
    entry,
    config_name,
    iterations=DEFAULT_ITERATIONS,
    vm_seed=0x5EED,
):
    """Find the first pipeline stage that diverges from the interpreter.

    *config_name* is the oracle configuration that originally diverged;
    its inliner is used for the final ladder stage and the subtractive
    sweep.  Returns a :class:`BisectReport`.
    """
    reference = run_interpreter(program, entry, iterations, vm_seed)
    stages = []
    culprit = None
    first_divergence = None
    for label, factory, mode in _STAGES:
        if mode is None:
            config, inliner = factory(), None
        else:
            config, inliner = ORACLE_CONFIGS[config_name]()
            if mode == "inliner":
                # Speculation off, so this stage blames the inliner
                # itself, never the guard/deopt machinery.
                config.speculate = False
            elif not config.speculate:
                # Non-speculative config: this stage would duplicate
                # the previous one; skip the redundant engine run.
                stages.append((label, False))
                continue
        record = _run_engine(
            program, entry, config_name, config, inliner, iterations,
            vm_seed,
        )
        divergence = compare_records(label, reference, record)
        stages.append((label, divergence is not None))
        if divergence is not None and culprit is None:
            culprit = label
            first_divergence = divergence
            break  # later (more aggressive) stages add no information

    if culprit is None:
        # Nothing on the ladder reproduced it (e.g. a profile-shape
        # sensitivity unique to the original config).
        return BisectReport("config:%s" % config_name, stages, None)

    if culprit == "inliner":
        # Refine: with inlining on, which single pass's removal fixes it?
        for pass_name, toggles in _SUBTRACT:
            config, _ = ORACLE_CONFIGS[config_name]()
            config.optimizer = _stage_config(**toggles).optimizer
            _, inliner = ORACLE_CONFIGS[config_name]()
            record = _run_engine(
                program, entry, config_name, config, inliner, iterations,
                vm_seed,
            )
            if compare_records(pass_name, reference, record) is None:
                culprit = "%s (inlined graphs)" % pass_name
                break

    return BisectReport(culprit, stages, first_divergence)
