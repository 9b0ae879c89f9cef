"""Output identity of the optimizer's linear-time bookkeeping.

The optimizer computes each CFG analysis once per pass:
``Graph.node_count`` sums per-block list lengths, the dominator and
loop analyses take the reverse postorder their caller already has, loop
detection skips the dominance walk on forward edges,
``remove_unreachable_blocks`` walks reachability without ordering, GVN
keeps one value table with a per-block undo log, and the canonicalizer
seeds its worklist a block at a time. None of that may change an
output.

The formulations they replaced live here, and only here, as oracles.
Each is checked against the code in ``src/`` two ways: on
hypothesis-generated CFGs with self-loops, unreachable blocks and
irreducible edges, and on every graph ``OptimizationPipeline.run`` and
``simplify_only`` see while suite programs and generated fuzz cases
compile (printed graph, ``CanonStats`` and every pass's eliminated
count), then end to end on the installed machine code.

The canonicalizer enqueues a replaced node's users in ``node.uses`` set
order, which follows object addresses, so two copies of one graph may
number the constants they fold into differently. That order is not
part of the change under test; the comparisons pin it to node id on
both sides so that they can be exact.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from repro.baselines import tuned_inliner
from repro.bench import get_benchmark
from repro.bytecode import Op
from repro.errors import ReproError
from repro.fuzz.generator import generate_case
from repro.ir import build_graph, compute_dominators, compute_loops, frequency
from repro.ir import nodes as n
from repro.ir import stamps as stm
from repro.ir.dominators import Loop, dominates
from repro.ir.graph import Graph
from repro.ir.printer import format_graph
from repro.jit.compiler import JitCompiler
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.lang import compile_source
from repro.opts import dce, peeling, pipeline
from repro.opts.canonicalize import CanonStats, _Canonicalizer
from repro.opts.pipeline import OptimizationPipeline
from tests.helpers import fresh_program
from tests.test_opts_peeling import _poly_loop_program

# ---------------------------------------------------------------------------
# Oracles: the formulations the optimizer used before
# ---------------------------------------------------------------------------


def legacy_node_count(graph):
    return sum(1 for _ in graph.all_nodes())


def legacy_reachable_blocks(graph):
    return set(graph.reverse_postorder())


def legacy_compute_dominators(graph):
    order = graph.reverse_postorder()
    index_of = {block: i for i, block in enumerate(order)}
    idom = {order[0]: order[0]}

    def intersect(a, b):
        while a is not b:
            while index_of[a] > index_of[b]:
                a = idom[a]
            while index_of[b] > index_of[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            new_idom = None
            for pred in block.preds:
                if pred in idom and pred in index_of:
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = intersect(pred, new_idom)
            if new_idom is not None and idom.get(block) is not new_idom:
                idom[block] = new_idom
                changed = True
    return idom


def legacy_compute_loops(graph, idom=None, order=None):
    """Recomputes the order and walks dominance on every edge; *order*
    is accepted for call compatibility and ignored."""
    if idom is None:
        idom = legacy_compute_dominators(graph)
    order = graph.reverse_postorder()
    reachable = set(order)
    loops_by_header = {}
    for block in order:
        for succ in block.successors():
            if succ in reachable and dominates(idom, succ, block):
                loop = loops_by_header.get(succ)
                if loop is None:
                    loop = loops_by_header[succ] = Loop(succ)
                loop.backedge_preds.append(block)
                work = [block]
                while work:
                    member = work.pop()
                    if member in loop.blocks or member not in reachable:
                        continue
                    loop.blocks.add(member)
                    work.extend(member.preds)
    loops = list(loops_by_header.values())
    for loop in loops:
        best = None
        for other in loops:
            if other is loop:
                continue
            if loop.header in other.blocks and loop.blocks <= other.blocks:
                if best is None or len(other.blocks) < len(best.blocks):
                    best = other
        loop.parent = best
    loops.sort(key=lambda l: -l.depth)
    return loops


def legacy_gvn(graph):
    """Scope-stack GVN: a lookup walks every enclosing scope."""
    order = graph.reverse_postorder()
    if not order:
        return 0
    idom = legacy_compute_dominators(graph)
    children = {block: [] for block in order}
    for block in order:
        parent = idom.get(block)
        if parent is not None and parent is not block:
            children[parent].append(block)

    eliminated = 0
    scopes = [{}]

    def lookup(key):
        for scope in reversed(scopes):
            node = scope.get(key)
            if node is not None:
                return node
        return None

    def process(block):
        nonlocal eliminated
        scopes.append({})
        seen_phis = {}
        for phi in list(block.phis):
            key = ("phi", tuple(id(i) for i in phi.inputs))
            existing = seen_phis.get(key)
            if existing is not None:
                graph.replace_uses(phi, existing)
                phi.clear_inputs()
                block.phis.remove(phi)
                phi.block = None
                eliminated += 1
            else:
                seen_phis[key] = phi
        for node in list(block.instrs):
            key = node.value_number_key()
            if key is None:
                continue
            existing = lookup(key)
            if existing is not None and existing.block is not None:
                graph.replace_uses(node, existing)
                node.clear_inputs()
                block.instrs.remove(node)
                node.block = None
                eliminated += 1
            else:
                scopes[-1][key] = node
        for child in children.get(block, ()):
            process(child)
        scopes.pop()

    process(order[0])
    return eliminated


def legacy_seed(canon):
    """Per-node seeding: every node through ``_enqueue``."""
    canon._work = []
    canon._queued = set()
    for block in canon.graph.blocks:
        for node in block.all_nodes():
            canon._enqueue(node)


def install_legacy(mp):
    """Route the optimizer through the oracles above."""
    mp.setattr(Graph, "node_count", legacy_node_count)
    mp.setattr(Graph, "reachable_blocks", legacy_reachable_blocks)
    mp.setattr(frequency, "compute_loops", legacy_compute_loops)
    mp.setattr(peeling, "compute_loops", legacy_compute_loops)
    mp.setattr(pipeline, "global_value_numbering", legacy_gvn)
    mp.setattr(_Canonicalizer, "_seed", legacy_seed)


def _enqueue_uses_by_id(canon, node):
    for user in sorted(node.uses, key=lambda user: user.id):
        canon._enqueue(user)


@pytest.fixture(autouse=True)
def pinned_use_order(monkeypatch):
    monkeypatch.setattr(_Canonicalizer, "_enqueue_uses", _enqueue_uses_by_id)


# ---------------------------------------------------------------------------
# Comparing results
# ---------------------------------------------------------------------------

#: Pipeline passes whose return values (eliminated counts, CanonStats)
#: are compared call by call.
PASSES = (
    "canonicalize",
    "remove_unreachable_blocks",
    "global_value_numbering",
    "remove_dead_nodes",
    "merge_blocks",
    "read_write_elimination",
    "peel_loops",
)


def comparable(result):
    """A pass result as plain data: CanonStats as a tuple."""
    if isinstance(result, CanonStats):
        return tuple(getattr(result, name) for name in CanonStats.__slots__)
    return result


def describe(graph):
    """Everything observable about *graph*, frequencies exact."""
    return (
        format_graph(graph),
        [block.frequency for block in graph.blocks],
        [invoke.frequency for invoke in graph.invokes()],
        graph._next_node_id,
        graph._next_block_id,
    )


def describe_loops(loops):
    return [
        (
            loop.header.id,
            sorted(block.id for block in loop.blocks),
            [pred.id for pred in loop.backedge_preds],
            loop.parent.header.id if loop.parent is not None else None,
            loop.frequency,
        )
        for loop in loops
    ]


def _recorder(name, fn, log):
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        log.append((name, comparable(result)))
        return result

    return recorded


def optimize_logged(graph, optimize, legacy):
    """Run *optimize* on *graph*; returns the graph, its result and the
    result of every pass it ran."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        if legacy:
            install_legacy(mp)
        for name in PASSES:
            mp.setattr(pipeline, name, _recorder(name, getattr(pipeline, name), log))
        # The canonicalizer's own prune-time cleanup.
        mp.setattr(
            dce,
            "remove_unreachable_blocks",
            _recorder("pruned", dce.remove_unreachable_blocks, log),
        )
        result = optimize(graph)
    return describe(graph), comparable(result), log


def assert_analyses_match(graph, program):
    """The read-only analyses on *graph* itself."""
    assert graph.node_count() == legacy_node_count(graph)
    if not graph.blocks:
        return
    order = graph.reverse_postorder()
    assert graph.reachable_blocks() == legacy_reachable_blocks(graph)
    idom = legacy_compute_dominators(graph)
    assert compute_dominators(graph) == idom
    assert compute_dominators(graph, order) == idom
    expected = describe_loops(legacy_compute_loops(graph))
    assert describe_loops(compute_loops(graph)) == expected
    assert describe_loops(compute_loops(graph, order=order)) == expected
    assert describe_loops(compute_loops(graph, idom, order)) == expected
    seeded, legacy = (_Canonicalizer(graph, program, True) for _ in range(2))
    seeded._seed()
    legacy_seed(legacy)
    assert [id(node) for node in seeded._work] == [id(node) for node in legacy._work]
    assert seeded._queued == legacy._queued


def assert_optimizes_alike(graph, optimize):
    """*optimize* on two copies of *graph*, current and legacy, must
    leave identical graphs and return identical results, pass by pass."""
    current, _ = graph.copy()
    legacy, _ = graph.copy()
    assert optimize_logged(current, optimize, False) == optimize_logged(
        legacy, optimize, True
    )


def assert_annotates_alike(graph):
    current, _ = graph.copy()
    legacy, _ = graph.copy()
    loops = describe_loops(frequency.annotate_frequencies(current))
    with pytest.MonkeyPatch.context() as mp:
        install_legacy(mp)
        legacy_loops = describe_loops(frequency.annotate_frequencies(legacy))
    assert (describe(current), loops) == (describe(legacy), legacy_loops)


# ---------------------------------------------------------------------------
# Hypothesis-generated CFGs
# ---------------------------------------------------------------------------

_OPS = [Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.XOR, Op.DIV]


@hst.composite
def cfg_specs(draw):
    """A CFG as data: per block, (successors, body, condition, phis).

    Successors are drawn from every block, so self-loops, edges back to
    the entry, blocks nothing reaches and two-entry (irreducible) loops
    all occur. Bodies are binary ops over a value pool (two params and
    three entry constants, which dominate every reachable block) plus
    the block's earlier values; phis take pool values, and two phis
    with one offset are duplicates for GVN to merge.
    """
    count = draw(hst.integers(1, 8))
    blocks = []
    for _ in range(count):
        targets = draw(hst.lists(hst.integers(0, count - 1), max_size=2))
        body = draw(
            hst.lists(
                hst.tuples(
                    hst.sampled_from(_OPS), hst.integers(0, 7), hst.integers(0, 7)
                ),
                max_size=4,
            )
        )
        condition = draw(hst.integers(0, 7))
        phis = draw(hst.lists(hst.integers(0, 4), max_size=2))
        blocks.append((targets, body, condition, phis))
    return blocks


def build_cfg(spec):
    graph = Graph(None, "cfg")
    pool = [graph.add_param(stm.int_stamp()) for _ in range(2)]
    blocks = [graph.new_block() for _ in spec]
    for value in (0, 1, 2):
        pool.append(blocks[0].append(graph.register(n.ConstIntNode(value))))
    for block, (targets, body, condition, _) in zip(blocks, spec):
        local = list(pool)
        for op, a, b in body:
            node = n.BinOpNode(op, local[a % len(local)], local[b % len(local)])
            local.append(block.append(graph.register(node)))
        if not targets:
            term = n.ReturnNode(local[-1])
        elif len(targets) == 1:
            term = n.GotoNode(blocks[targets[0]])
        else:
            test = n.CompareNode(Op.LT, local[condition % len(local)], pool[0])
            block.append(graph.register(test))
            term = n.IfNode(test, blocks[targets[0]], blocks[targets[1]])
        block.set_terminator(graph.register(term))
    graph.recompute_preds()
    for block, (_, _, _, phis) in zip(blocks, spec):
        if len(block.preds) < 2:
            continue
        for offset in phis:
            inputs = [pool[(offset + i) % len(pool)] for i in range(len(block.preds))]
            block.add_phi(graph.register(n.PhiNode(inputs, stm.int_stamp())))
    return graph


#: A self-loop on B1.
SELF_LOOP = [([1], [], 0, []), ([1, 2], [(Op.ADD, 0, 1)], 0, [0, 0]), ([], [], 0, [])]
#: B1 is unreachable and jumps back to the entry.
UNREACHABLE = [([2], [], 0, []), ([0], [(Op.ADD, 0, 3)], 0, []), ([], [], 0, [])]
#: B1 and B2 form a cycle entered at both blocks.
IRREDUCIBLE = [
    ([1, 2], [(Op.MUL, 0, 1)], 0, []),
    ([2], [(Op.MUL, 0, 1)], 0, [1]),
    ([1, 3], [(Op.MUL, 1, 0)], 0, [2, 2]),
    ([], [], 0, []),
]


def on_cfgs(test):
    """Run *test* on the three shapes above, then on generated CFGs.
    (The autouse use-order pin is the same for every example.)"""
    test = given(cfg_specs())(test)
    for spec in (SELF_LOOP, UNREACHABLE, IRREDUCIBLE):
        test = example(spec)(test)
    return settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture
        ],
    )(test)


class TestGeneratedCFGs:
    def test_examples_have_their_shapes(self):
        graph = build_cfg(SELF_LOOP)
        assert graph.blocks[1] in graph.blocks[1].preds
        graph = build_cfg(UNREACHABLE)
        assert graph.blocks[1] not in graph.reachable_blocks()
        graph = build_cfg(IRREDUCIBLE)
        # Neither cycle block dominates the other: no natural loop.
        assert compute_loops(graph) == []

    @on_cfgs
    def test_analyses(self, spec):
        assert_analyses_match(build_cfg(spec), fresh_program())

    @on_cfgs
    def test_frequencies(self, spec):
        assert_annotates_alike(build_cfg(spec))

    @on_cfgs
    def test_gvn_and_unreachable_blocks(self, spec):
        graph = build_cfg(spec)
        # Late-bound, so the legacy run reaches the oracles.
        assert_optimizes_alike(
            graph, lambda g: pipeline.global_value_numbering(g)
        )
        assert_optimizes_alike(
            graph, lambda g: pipeline.remove_unreachable_blocks(g)
        )

    @on_cfgs
    def test_pipeline(self, spec):
        optimizer = OptimizationPipeline(fresh_program())
        graph = build_cfg(spec)
        assert_optimizes_alike(graph, optimizer.run)
        assert_optimizes_alike(graph, optimizer.simplify_only)


# ---------------------------------------------------------------------------
# Every graph the compiler optimizes
# ---------------------------------------------------------------------------

#: Suite programs with many GVN eliminations, deep inlining and
#: polymorphic dispatch.
SUITE_PROGRAMS = ("xalan", "stmbench7", "scalac", "kiama", "pmd")
GENERATED_CASES = 50
GENERATED_BASE = 1_000_003


def suite_config():
    return JitConfig(
        hot_threshold=25, interp_predecode=True, backend="machine",
        compile_mode="sync", speculate=False, typespec=False, osr=False,
    )


def generated_config():
    return JitConfig(
        hot_threshold=2, interp_predecode=True, backend="py",
        compile_mode="sync", speculate=True, typespec=True, osr=True,
        osr_threshold=6,
    )


def suite_jobs(name):
    spec = get_benchmark(name)
    return [
        (lambda: (compile_source(spec.source), ("Main", "run")),
         suite_config, spec.iterations)
    ]


def generated_jobs():
    return [
        (generate_case(GENERATED_BASE + index).build, generated_config, 5)
        for index in range(GENERATED_CASES)
    ]


def run_jobs(jobs):
    """Run every job on a fresh engine; returns per-iteration outcomes."""
    outcomes = []
    for index, (build, config, iterations) in enumerate(jobs):
        program, entry = build()
        engine = Engine(program, config(), tuned_inliner(0.1), seed=index)
        for _ in range(iterations):
            try:
                result = engine.run_iteration(*entry)
            except ReproError as error:
                outcomes.append((type(error).__name__, str(error)))
            else:
                value = result.value
                outcomes.append(
                    (value if isinstance(value, int) else type(value).__name__,
                     result.total_cycles)
                )
    return outcomes


class GraphAudit:
    """Checks every graph handed to the pipeline before optimizing it."""

    def __init__(self, monkeypatch):
        self.runs = 0
        self.simplifies = 0
        run = OptimizationPipeline.run
        simplify_only = OptimizationPipeline.simplify_only
        audit = self

        def audited_run(optimizer, graph, peel=None, rwe=None):
            audit.runs += 1
            audit.check(graph, optimizer.program,
                        lambda g: run(optimizer, g, peel, rwe))
            return run(optimizer, graph, peel, rwe)

        def audited_simplify(optimizer, graph):
            audit.simplifies += 1
            audit.check(graph, optimizer.program,
                        lambda g: simplify_only(optimizer, g))
            return simplify_only(optimizer, graph)

        monkeypatch.setattr(OptimizationPipeline, "run", audited_run)
        monkeypatch.setattr(OptimizationPipeline, "simplify_only", audited_simplify)

    def check(self, graph, program, optimize):
        assert_analyses_match(graph, program)
        assert_annotates_alike(graph)
        assert_optimizes_alike(graph, optimize)


class TestCompiledGraphs:
    @pytest.mark.parametrize("name", SUITE_PROGRAMS)
    def test_suite_program(self, name, monkeypatch):
        audit = GraphAudit(monkeypatch)
        run_jobs(suite_jobs(name))
        assert audit.runs and audit.simplifies

    def test_generated_cases(self, monkeypatch):
        audit = GraphAudit(monkeypatch)
        run_jobs(generated_jobs())
        assert audit.runs and audit.simplifies

    def test_peeled_loop(self):
        """The suite and the corpus never peel; this graph does."""
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        frequency.annotate_frequencies(graph)
        optimizer = OptimizationPipeline(program)
        _, _, passes = optimize_logged(graph.copy()[0], optimizer.run, False)
        assert ("peel_loops", 1) in passes
        assert_analyses_match(graph, program)
        assert_optimizes_alike(graph, optimizer.run)


# ---------------------------------------------------------------------------
# End to end: installed code
# ---------------------------------------------------------------------------


def compile_log(jobs, legacy):
    """Run *jobs*; returns every compilation's listing and inlining
    summary, plus every iteration's outcome."""
    log = []
    compile_method = JitCompiler._compile

    def logged(compiler, *args):
        record = compile_method(compiler, *args)
        report = record.inline_report
        log.append((
            record.method.qualified_name,
            record.code.listing(),
            record.graph_nodes,
            record.compile_cycles,
            None if report is None else (
                report.rounds, report.expansions, report.inline_count,
                report.typeswitch_count, report.speculation_count,
                report.explored_nodes, report.final_root_size,
                list(report.inlined_methods),
            ),
        ))
        return record

    with pytest.MonkeyPatch.context() as mp:
        if legacy:
            install_legacy(mp)
        mp.setattr(JitCompiler, "_compile", logged)
        outcomes = run_jobs(jobs)
    return log, outcomes


class TestInstalledCode:
    @pytest.mark.parametrize("name", SUITE_PROGRAMS)
    def test_suite_program(self, name):
        current = compile_log(suite_jobs(name), legacy=False)
        assert current[0]
        assert current == compile_log(suite_jobs(name), legacy=True)

    def test_generated_cases(self):
        current = compile_log(generated_jobs(), legacy=False)
        assert current[0]
        assert current == compile_log(generated_jobs(), legacy=True)
