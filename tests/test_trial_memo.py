"""The inlining-trial memo: result-identical, wall-clock only.

The JIT driver attaches a :class:`~repro.core.trials.TrialMemo` to every
compiler; it caches expansion/retrial results within one compilation,
keyed by (method, caller context, argument-stamp signature). Profiles
are frozen for the duration of a synchronous compilation, so equal keys
must produce bit-identical graphs — which makes the memo's one
observable guarantee testable: the engine's cycle model, values and
compilation outcomes never change when it is detached
(``engine.compiler.context.trial_memo = None``, the oracle).
"""

from repro.baselines import tuned_inliner
from repro.core.trials import TrialMemo
from repro.jit.compiler import CompileContext
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from tests.helpers import shapes_program


def _run(program, memo_on, iterations=8, hot_threshold=5):
    engine = Engine(
        program,
        JitConfig(hot_threshold=hot_threshold),
        inliner=tuned_inliner(0.1),
        seed=0x5EED,
    )
    if not memo_on:
        engine.compiler.context.trial_memo = None
    curve = []
    value = None
    for _ in range(iterations):
        result = engine.run_iteration("Main", "run")
        curve.append(result.total_cycles)
        value = result.value
    return value, curve, engine


def test_cycle_model_identical_memo_on_off():
    program = shapes_program()
    value_off, curve_off, engine_off = _run(program, memo_on=False)
    value_on, curve_on, engine_on = _run(program, memo_on=True)
    assert value_on == value_off
    assert curve_on == curve_off
    assert engine_on.compilation_count == engine_off.compilation_count
    assert (
        engine_on.code_cache.total_size == engine_off.code_cache.total_size
    )


def test_memo_attached_only_when_enabled():
    # The JIT driver always attaches one; a context built directly
    # (tools/trace.py, the examples, unit tests) has none, and the
    # trial machinery then builds every callee live.
    program = shapes_program()
    _, _, engine_on = _run(program, memo_on=True, iterations=1)
    assert isinstance(engine_on.compiler.context.trial_memo, TrialMemo)
    context = CompileContext(program, engine_on.profiles, None, None)
    assert context.trial_memo is None


def test_memo_hits_on_repetitive_workload():
    # jython's call tree revisits the same (callee, stamp-signature)
    # specializations; the memo must convert those into hits while the
    # cycle model stays identical.
    from repro.bench.suite import get_benchmark

    program = get_benchmark("jython").load()
    value_off, curve_off, _ = _run(
        program, memo_on=False, iterations=4, hot_threshold=2
    )
    value_on, curve_on, engine = _run(
        program, memo_on=True, iterations=4, hot_threshold=2
    )
    memo = engine.compiler.context.trial_memo
    assert memo.hits > 0
    assert value_on == value_off
    assert curve_on == curve_off


#: One callee reached from five sites of one root, with three distinct
#: constant first arguments: specialization folds each site's constant,
#: so only the argument stamps tell the sites' trial results apart.
STAMPED_SITES = """
object Main {
  def scale(k: int, x: int): int {
    if (k == 1) { return x + 1; }
    if (k == 2) { return x * 2; }
    return x - k;
  }
  def run(): int {
    var acc: int = 0;
    var i: int = 0;
    while (i < 20) {
      acc = acc + Main.scale(1, i) + Main.scale(2, i) + Main.scale(1, i)
          + Main.scale(3, i) + Main.scale(1, i);
      i = i + 1;
    }
    return acc;
  }
}
"""


def test_memo_keys_on_argument_stamps():
    from repro.lang import compile_source

    program = compile_source(STAMPED_SITES)
    value_off, curve_off, _ = _run(
        program, memo_on=False, iterations=4, hot_threshold=2
    )
    value_on, curve_on, engine = _run(
        program, memo_on=True, iterations=4, hot_threshold=2
    )
    assert engine.compiler.context.trial_memo.hits > 0
    assert value_on == value_off
    assert curve_on == curve_off


def test_reset_clears_tables_keeps_counters():
    memo = TrialMemo(context_sensitive=False)
    memo._expansions["k"] = object()
    memo._retrials["k"] = object()
    memo.hits = 3
    memo.misses = 5
    memo.reset()
    assert not memo._expansions
    assert not memo._retrials
    assert not memo._lineage
    assert memo.hits == 3
    assert memo.misses == 5


def test_memo_metrics_exported():
    from repro.obs import Observability

    program = shapes_program()
    obs = Observability()
    engine = Engine(
        program,
        JitConfig(hot_threshold=5),
        inliner=tuned_inliner(0.1),
        seed=0x5EED,
        obs=obs,
    )
    for _ in range(8):
        engine.run_iteration("Main", "run")
    memo = engine.compiler.context.trial_memo
    snapshot = obs.metrics.snapshot()
    assert snapshot["inline.trial_memo.hits"]["value"] == memo.hits
    assert snapshot["inline.trial_memo.misses"]["value"] == memo.misses
