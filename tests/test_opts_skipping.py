"""Pass skipping and the callee-graph cache are sound.

``OptimizationPipeline.run`` skips a pass while it is clean, which is
exact only if every pass reports a change exactly when it changed the
graph. Here each pass the compiler runs on suite programs and generated
cases is wrapped, and its report is checked against a structural
fingerprint of the graph taken before and after it: blocks, preds, node
types, ids, inputs, stamps, and invoke kind and target. The
canonicalizer's mutations are pinned one by one, those no
``CanonStats`` counter covers (a Pi removal, a Pi, phi or checkcast
stamp refinement) among them, and so are the pipeline's own rules: a
skipped canonicalization still counts its round, a pass that changed
the graph runs again, and a run without one of the config's passes
never claims the fixpoint.

``CompileContext.build_callee_graph`` reuses a graph built earlier in
the same compilation; a refutation recorded between two builds (a
deopt racing a background compile) must make the second one miss.
"""

import pytest

from repro.baselines import tuned_inliner
from repro.bench.suite import all_benchmarks, get_benchmark
from repro.bytecode import types as bt
from repro.bytecode.opcodes import Op
from repro.ir import build_graph, check_graph, frequency
from repro.ir import nodes as n
from repro.ir import stamps as st
from repro.ir.graph import Graph
from repro.ir.printer import format_graph
from repro.jit.config import JitConfig
from repro.jit.engine import Engine
from repro.lang import compile_source
from repro.obs import Observability
from repro.opts import pipeline
from repro.opts.canonicalize import CanonStats, canonicalize
from repro.opts.pipeline import OptimizationPipeline
from tests.helpers import fresh_program
from tests.test_compile_oracles import legacy_pipeline_run
from tests.test_opts_bookkeeping import generated_jobs, run_jobs, suite_jobs
from tests.test_opts_peeling import _poly_loop_program
from tests.test_typespec import classify_program

#: The passes ``OptimizationPipeline`` runs, by module attribute.
PASSES = (
    "canonicalize",
    "remove_unreachable_blocks",
    "global_value_numbering",
    "remove_dead_nodes",
    "merge_blocks",
    "read_write_elimination",
    "peel_loops",
)

def reported_change(result):
    """What a pass result says about the graph: CanonStats carries a
    flag, read/write elimination a (loads, stores) pair, every other
    pass a count of what it removed, merged or peeled."""
    if isinstance(result, CanonStats):
        return result.changed
    if isinstance(result, tuple):
        return any(result)
    return result > 0


def _node_print(node):
    print_ = (
        type(node).__name__,
        node.id,
        tuple(None if x is None else x.id for x in node.inputs),
        node.stamp,
    )
    if isinstance(node, n.InvokeNode):
        print_ += (node.kind, node.target)
    return print_


def fingerprint(graph):
    """Blocks, preds, node types, ids, inputs, stamps, invoke kind and
    target, and terminator successors."""
    blocks = []
    for block in graph.blocks:
        term = block.terminator
        blocks.append((
            block.id,
            tuple(pred.id for pred in block.preds),
            tuple(_node_print(phi) for phi in block.phis),
            tuple(_node_print(node) for node in block.instrs),
            None if term is None else (
                _node_print(term)
                + tuple(succ.id for succ in term.successors())
            ),
        ))
    return tuple(_node_print(param) for param in graph.params), tuple(blocks)


class PassAudit:
    """Wraps every pipeline pass; records each call's report against
    the fingerprint change it made."""

    def __init__(self, monkeypatch):
        self.calls = {name: 0 for name in PASSES}
        self.changes = {name: 0 for name in PASSES}
        self.mismatches = []
        for name in PASSES:
            monkeypatch.setattr(
                pipeline, name, self._wrap(name, getattr(pipeline, name))
            )

    def _wrap(self, name, fn):
        def audited(graph, *args, **kwargs):
            before = fingerprint(graph)
            result = fn(graph, *args, **kwargs)
            changed = fingerprint(graph) != before
            self.calls[name] += 1
            self.changes[name] += changed
            if reported_change(result) != changed:
                self.mismatches.append((name, graph.name, result, changed))
            return result

        return audited


def all_suite_jobs():
    return [job for spec in all_benchmarks() for job in suite_jobs(spec.name)]


class TestPassesReportExactly:
    @pytest.mark.parametrize("jobs", [all_suite_jobs, generated_jobs])
    def test_compiles(self, monkeypatch, jobs):
        audit = PassAudit(monkeypatch)
        run_jobs(jobs())
        assert audit.mismatches == []
        # Both reports occurred for every pass that does work here.
        # Canonicalization prunes dead branches itself, so the pipeline's
        # unreachable-block removal rarely finds any; neither set peels
        # (see test_peeled_loop).
        for name in PASSES:
            if name in ("remove_unreachable_blocks", "peel_loops"):
                assert audit.calls[name] > 0
            else:
                assert 0 < audit.changes[name] < audit.calls[name], name

    def test_peeled_loop(self, monkeypatch):
        audit = PassAudit(monkeypatch)
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        frequency.annotate_frequencies(graph)
        OptimizationPipeline(program).run(graph)
        check_graph(graph, program)
        assert audit.mismatches == []
        assert audit.changes["peel_loops"] == 1


# ---------------------------------------------------------------------------
# Canonicalizer mutations outside CanonStats.total()
# ---------------------------------------------------------------------------


def _program():
    program = fresh_program()
    program.define_class("A")
    return program


def _returning(graph, block, value):
    block.set_terminator(graph.register(n.ReturnNode(value)))


class TestUncountedMutations:
    def test_pi_removal(self):
        program = _program()
        graph = Graph(None)
        param = graph.add_param(st.ref_stamp("A", exact=True, non_null=True))
        block = graph.new_block()
        pi = block.append(graph.register(n.PiNode(param, param.stamp)))
        _returning(graph, block, pi)
        stats = canonicalize(graph, program)
        assert stats.total() == 0
        assert stats.changed
        assert pi.block is None
        assert block.terminator.value() is param

    def test_pi_stamp_refinement(self):
        program = _program()
        graph = Graph(None)
        param = graph.add_param(st.ref_stamp(bt.OBJECT, non_null=True))
        block = graph.new_block()
        pi = block.append(graph.register(n.PiNode(param, st.ref_stamp("A"))))
        _returning(graph, block, pi)
        stats = canonicalize(graph, program)
        assert stats.total() == 0
        assert stats.changed
        assert pi.block is block
        assert pi.stamp == st.ref_stamp("A", non_null=True)

    def test_phi_stamp_refinement(self):
        program = _program()
        graph = Graph(None)
        flag = graph.add_param(st.INT_STAMP)
        precise = st.ref_stamp("A", non_null=True)
        left, right = (graph.add_param(precise) for _ in range(2))
        entry, then, other, join = (graph.new_block() for _ in range(4))
        entry.set_terminator(graph.register(n.IfNode(flag, then, other)))
        for arm in (then, other):
            arm.preds = [entry]
            arm.set_terminator(graph.register(n.GotoNode(join)))
        join.preds = [then, other]
        phi = join.add_phi(
            graph.register(n.PhiNode([left, right], st.ref_stamp(bt.OBJECT)))
        )
        _returning(graph, join, phi)
        stats = canonicalize(graph, program)
        assert stats.total() == 0
        assert stats.changed
        assert phi.stamp == precise

    def test_checkcast_stamp_refinement(self):
        program = _program()
        graph = Graph(None)
        param = graph.add_param(st.ref_stamp(bt.OBJECT))
        block = graph.new_block()
        cast = block.append(
            graph.register(n.CheckCastNode(param, "A", program))
        )
        _returning(graph, block, cast)
        # A trial learned that the argument is never null.
        param.stamp = st.ref_stamp(bt.OBJECT, non_null=True)
        stats = canonicalize(graph, program)
        assert stats.total() == 0
        assert stats.changed
        assert cast.block is block
        assert cast.stamp == st.ref_stamp("A", non_null=True)

    # The mutations below are counted, but in the compiles above each
    # one shares its run with an uncounted or replacing rewrite; these
    # graphs isolate them, so each must set the flag itself.

    def test_guard_removal_alone(self):
        program = _program()
        graph = Graph(None)
        block = graph.new_block()
        true = block.append(graph.register(n.ConstIntNode(1)))
        guard = block.append(graph.register(n.GuardNode(true, "test")))
        _returning(graph, block, true)
        stats = canonicalize(graph, program)
        assert stats.branch_prunings == 1 and stats.changed
        assert guard.block is None

    def test_branch_pruning_alone(self):
        program = _program()
        graph = Graph(None)
        entry, then, other = (graph.new_block() for _ in range(3))
        true = entry.append(graph.register(n.ConstIntNode(1)))
        entry.set_terminator(graph.register(n.IfNode(true, then, other)))
        for arm in (then, other):
            arm.preds = [entry]
            _returning(graph, arm, true)
        stats = canonicalize(graph, program)
        assert stats.total() == stats.branch_prunings == 1
        assert stats.changed
        assert graph.blocks == [entry, then]

    def test_unchanged_graph_reports_no_change(self):
        program = _program()
        graph = Graph(None)
        param = graph.add_param(st.ref_stamp("A", non_null=True))
        block = graph.new_block()
        _returning(graph, block, param)
        stats = canonicalize(graph, program)
        assert not stats.changed and stats.rounds == 1


# ---------------------------------------------------------------------------
# The pipeline's own bookkeeping
# ---------------------------------------------------------------------------


class TestPipelineSkips:
    def test_second_run_is_a_fixpoint_that_skips(self):
        program = compile_source(get_benchmark("pmd").source)
        graph = build_graph(program.lookup_method("Main", "run"), program)
        frequency.annotate_frequencies(graph)
        obs = Observability()
        optimizer = OptimizationPipeline(program, obs=obs)
        first = optimizer.run(graph)
        assert first.at_fixpoint
        before = fingerprint(graph)
        mark = len(obs.events.records)
        again = optimizer.run(graph)
        assert fingerprint(graph) == before
        assert again.at_fixpoint and not again.changed
        # Iteration 1 runs each of the six passes once (its second DCE
        # is clean already); iteration 2 runs none of its seven, but its
        # skipped canonicalization still counts a round.
        assert again.rounds == 2
        assert again.skipped == 1 + 7
        # A group that ran emits ``pass``; one skipped whole, ``pass.skipped``.
        assert [
            (record["name"], record["attrs"]["name"], record["attrs"]["iteration"])
            for record in obs.events.records[mark:]
        ] == [
            ("pass", "canonicalize", 0), ("pass", "gvn", 0), ("pass", "rwe", 0),
            ("pass.skipped", "canonicalize", 1), ("pass.skipped", "gvn", 1),
            ("pass.skipped", "rwe", 1),
        ]
        assert obs.metrics.value("opt.passes.skipped") == (
            first.skipped + again.skipped
        )

    @pytest.mark.parametrize("override", [{"peel": False}, {"rwe": False}])
    def test_overrides_never_claim_the_fixpoint(self, override):
        program = compile_source(get_benchmark("pmd").source)
        graph = build_graph(program.lookup_method("Main", "run"), program)
        optimizer = OptimizationPipeline(program)
        assert optimizer.run(graph).at_fixpoint
        # A run without one of the config's passes cannot vouch for a
        # full run, even on a graph a full run left alone.
        assert not optimizer.run(graph, **override).at_fixpoint

    def test_gvn_reruns_after_it_changed_the_graph(self):
        """GVN keys a phi by its inputs before it visits the loop body,
        so a run that merges two body values leaves two loop phis that
        only the next run merges: a pass that changed the graph is not
        clean, and the next iteration must run it again."""
        program = _program()
        graph = Graph(None)
        start, limit = graph.add_param(st.INT_STAMP), graph.add_param(st.INT_STAMP)
        entry, header, body, done = (graph.new_block() for _ in range(4))
        entry.set_terminator(graph.register(n.GotoNode(header)))
        header.preds = [entry, body]
        first, second = (
            header.add_phi(graph.register(n.PhiNode([start, None], st.INT_STAMP)))
            for _ in range(2)
        )
        more = header.append(
            graph.register(n.CompareNode(Op.LT, first, limit))
        )
        header.set_terminator(graph.register(n.IfNode(more, body, done)))
        body.preds = [header]
        one = body.append(graph.register(n.ConstIntNode(1)))
        for phi in (first, second):
            # Two equal values, one per phi.
            step = body.append(graph.register(n.BinOpNode(Op.ADD, limit, one)))
            phi.set_input(1, step)
        body.set_terminator(graph.register(n.GotoNode(header)))
        done.preds = [header]
        total = done.append(graph.register(n.BinOpNode(Op.ADD, first, second)))
        _returning(graph, done, total)
        check_graph(graph, program)
        legacy = graph.copy()[0]

        OptimizationPipeline(program).run(graph)
        legacy_pipeline_run(OptimizationPipeline(program), legacy)
        assert format_graph(graph) == format_graph(legacy)
        assert len(graph.blocks[1].phis) == 1


# ---------------------------------------------------------------------------
# The callee-graph cache
# ---------------------------------------------------------------------------


class TestCalleeGraphCache:
    def _profiled_engine(self):
        program = classify_program()
        engine = Engine(
            program,
            JitConfig(hot_threshold=10_000, speculate=True, typespec=True),
            tuned_inliner(0.1),
        )
        for _ in range(5):
            engine.run_iteration("Main", "drive", (0,))
        return program, engine

    def test_refutation_between_builds_misses(self):
        program, engine = self._profiled_engine()
        context = engine.compiler.context
        memo = context.trial_memo
        memo.reset()
        context.typecheck_decisions = []
        method = program.lookup_method("Main", "classify")

        first = context.build_callee_graph(method)
        second = context.build_callee_graph(method)
        assert memo.graphs_reused == 1
        assert second is not first
        assert fingerprint(second) == fingerprint(first.copy()[0])
        decisions = context.typecheck_decisions
        # The instanceof speculates and pins the operand, so the
        # dominated checkcast is stamp-precise; the reuse replays both.
        assert [d["reason"] for d in decisions] == [
            "typecheck-speculated", "stamp-precise",
        ] * 2
        assert any(isinstance(x, n.GuardNode) for x in second.all_nodes())

        engine.speculation_log.record(
            (method.qualified_name, decisions[0]["bci"]), "typecheck"
        )
        third = context.build_callee_graph(method)
        assert memo.graphs_reused == 1
        # Built afresh: the instanceof is refuted, so the checkcast now
        # speculates instead.
        assert [d["reason"] for d in decisions[4:]] == [
            "refuted-site", "typecheck-speculated",
        ]
        (guard,) = [x for x in third.all_nodes() if isinstance(x, n.GuardNode)]
        assert guard.frames[0].bci == decisions[5]["bci"]
        # The rebuilt graph is stored in turn.
        context.build_callee_graph(method)
        assert memo.graphs_reused == 2

    def test_reset_drops_graphs(self):
        program, engine = self._profiled_engine()
        context = engine.compiler.context
        method = program.lookup_method("Main", "classify")
        context.build_callee_graph(method)
        context.trial_memo.reset()
        context.build_callee_graph(method)
        assert context.trial_memo.graphs_reused == 0
