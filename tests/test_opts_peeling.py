"""Loop peeling tests: trigger condition, shape restrictions, semantics,
and the precheck that skips the loop analysis."""

import collections

import pytest

from repro.bench.suite import all_benchmarks
from repro.bytecode import MethodBuilder
from repro.bytecode.method import Method
from repro.ir import build_graph, check_graph
from repro.ir.printer import format_graph
from repro.opts import peel_loops, pipeline
from repro.opts.peeling import (
    _canonical_shape,
    _has_precise_phi_input,
    _peel,
    _should_peel,
)
from repro.ir.dominators import compute_loops
from tests.execution import compare_tiers
from tests.helpers import fresh_program, single_method_program


def _poly_loop_program():
    """A loop whose receiver phi starts exact and widens inside the
    loop — the paper's peeling trigger."""
    program = fresh_program()
    iface = program.define_class("Step", is_interface=True)
    iface.add_method(Method("next", [], "Step", is_abstract=True))
    iface.add_method(Method("value", [], "int", is_abstract=True))

    a = program.define_class("A", interfaces=["Step"])
    b = MethodBuilder("next", [], "Step")
    b.new("B").retv()
    a.add_method(b.build())
    b = MethodBuilder("value", [], "int")
    b.const(1).retv()
    a.add_method(b.build())

    bee = program.define_class("B", interfaces=["Step"])
    b = MethodBuilder("next", [], "Step")
    b.load(0).retv()
    bee.add_method(b.build())
    b = MethodBuilder("value", [], "int")
    b.const(2).retv()
    bee.add_method(b.build())

    holder = program.define_class("H", is_abstract=True)
    b = MethodBuilder("f", ["int"], "int", is_static=True)
    loop = b.new_label()
    done = b.new_label()
    cur = b.alloc_local()
    acc = b.alloc_local()
    i = b.alloc_local()
    b.new("A").store(cur)
    b.const(0).store(acc).const(0).store(i)
    b.place(loop).load(i).load(0).ge().if_true(done)
    b.load(acc).load(cur).invokeinterface("Step", "value").add().store(acc)
    b.load(cur).invokeinterface("Step", "next").store(cur)
    b.load(i).const(1).add().store(i)
    b.goto(loop)
    b.place(done).load(acc).retv()
    holder.add_method(b.build())
    return program


class TestTrigger:
    def test_ref_phi_with_precise_entry_triggers(self):
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        loops = compute_loops(graph)
        assert len(loops) == 1
        assert _should_peel(loops[0], program)

    def test_int_constant_entry_does_not_trigger(self):
        def build(b):
            loop = b.new_label()
            done = b.new_label()
            acc = b.alloc_local()
            b.const(0).store(acc)
            b.place(loop).load(0).const(0).le().if_true(done)
            b.load(acc).load(0).add().store(acc)
            b.load(0).const(1).sub().store(0)
            b.goto(loop)
            b.place(done).load(acc).retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        loops = compute_loops(graph)
        assert not _should_peel(loops[0], program)

    def test_canonical_shape_accepts_simple_loop(self):
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        (loop,) = compute_loops(graph)
        assert _canonical_shape(loop)


class TestPeelTransform:
    def test_peel_preserves_semantics(self):
        program = _poly_loop_program()
        method = program.lookup_method("H", "f")
        for count in [0, 1, 3, 10]:
            graph = build_graph(method, program)
            peeled = peel_loops(graph, program)
            assert peeled >= 1
            check_graph(graph, program)
            compare_tiers(program, "H", "f", [count], graph=graph)

    def test_peeled_copy_specializes(self):
        """After peeling + canonicalization the first-iteration calls
        devirtualize to A's methods."""
        from repro.opts import canonicalize

        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        canonicalize(graph, program)
        before_direct = sum(1 for i in graph.invokes() if i.kind == "direct")
        peel_loops(graph, program)
        canonicalize(graph, program)
        check_graph(graph, program)
        after_direct = sum(1 for i in graph.invokes() if i.kind == "direct")
        assert after_direct > before_direct

    def test_peeling_bounded(self):
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        assert peel_loops(graph, program, max_peels=2) <= 2
        check_graph(graph, program)


# ---------------------------------------------------------------------------
# The precheck: no loop analysis unless some phi input is more precise
# ---------------------------------------------------------------------------


def unchecked_peel_loops(graph, program, max_peels=4):
    """``peel_loops`` without its precheck: loops on every run."""
    peeled = 0
    for _ in range(max_peels):
        candidate = None
        for loop in compute_loops(graph):
            if _should_peel(loop, program) and _canonical_shape(loop):
                candidate = loop
                break
        if candidate is None:
            break
        _peel(graph, candidate)
        peeled += 1
    return peeled


class TestPrecheck:
    def test_peeling_trigger_passes_the_precheck(self):
        program = _poly_loop_program()
        graph = build_graph(program.lookup_method("H", "f"), program)
        assert _has_precise_phi_input(graph, program)
        assert peel_loops(graph, program) >= 1

    def test_int_loop_skips_the_loop_analysis(self, monkeypatch):
        def build(b):
            loop = b.new_label()
            done = b.new_label()
            b.place(loop).load(0).const(0).le().if_true(done)
            b.load(0).const(1).sub().store(0)
            b.goto(loop)
            b.place(done).load(0).retv()

        program = single_method_program(build)
        graph = build_graph(program.lookup_method("T", "f"), program)
        assert compute_loops(graph)
        assert not _has_precise_phi_input(graph, program)
        monkeypatch.setattr(
            "repro.opts.peeling.compute_loops",
            lambda graph: pytest.fail("loops computed"),
        )
        assert peel_loops(graph, program) == 0

    @pytest.mark.parametrize("corpus", ["suite", "generated"])
    def test_peel_counts_equal_the_unchecked_pass(self, monkeypatch, corpus):
        """Every pipeline peel run on the 28 suite programs (cold-suite
        configuration) and 50 generated cases peels as many loops as the
        pass without the precheck, and a run that peels nothing leaves
        the graph as it was."""
        # Imported here: tests.test_opts_bookkeeping imports this module.
        from tests.test_opts_bookkeeping import (
            generated_jobs,
            run_jobs,
            suite_jobs,
        )

        counts = collections.Counter()

        def checked(graph, program, *args):
            before = format_graph(graph)
            expected = unchecked_peel_loops(graph.copy()[0], program, *args)
            counts["runs"] += 1
            counts["prechecked"] += _has_precise_phi_input(graph, program)
            peeled = peel_loops(graph, program, *args)
            assert peeled == expected
            if not peeled:
                assert format_graph(graph) == before
            return peeled

        monkeypatch.setattr(pipeline, "peel_loops", checked)
        if corpus == "suite":
            jobs = [
                job for spec in all_benchmarks() for job in suite_jobs(spec.name)
            ]
        else:
            jobs = generated_jobs()
        run_jobs(jobs)
        assert counts["runs"] > 100
        assert counts["prechecked"] < counts["runs"]
