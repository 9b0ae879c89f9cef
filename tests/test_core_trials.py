"""Deep inlining trial tests: specialization, N_s counting, child
discovery, polymorphic profiles and node normalization."""

import pytest

from repro.core.calltree import NodeKind, make_root
from repro.core.params import InlinerParams
from repro.core.trials import (
    apply_argument_stamps,
    count_concrete_args,
    declared_param_stamps,
    discover_children,
    expand_node,
    normalize_node,
    propagate_deep_trials,
)
from repro.ir import annotate_frequencies, build_graph
from repro.ir import stamps as stm
from repro.jit.compiler import CompileContext
from repro.opts.pipeline import OptimizationPipeline
from tests.helpers import run_static, shapes_program


def _context(program, profiles=None):
    return CompileContext(
        program, profiles, OptimizationPipeline(program), None
    )


def _rooted(program, profiles=None, method=("Main", "run")):
    graph = build_graph(
        program.lookup_method(*method), program, profiles
    )
    annotate_frequencies(graph)
    root = make_root(graph)
    context = _context(program, profiles)
    discover_children(root, context, InlinerParams())
    return root, context


class TestDiscovery:
    def test_child_kinds_without_profiles(self):
        program = shapes_program()
        root, _ = _rooted(program)
        kinds = {}
        for child in root.children:
            kinds.setdefault(child.kind, 0)
            kinds[child.kind] += 1
        # Two static calls to total; cold interface call becomes G
        # (no profile) — but total is called through static invokes.
        assert kinds.get(NodeKind.CUTOFF, 0) == 2

    def test_profiled_interface_becomes_polymorphic(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        root, _ = _rooted(program, interp.profiles, method=("Main", "total"))
        (poly,) = root.children
        assert poly.kind == NodeKind.POLYMORPHIC
        types = {c.receiver_type for c in poly.children}
        assert types == {"Square", "Circle"}
        probabilities = sorted(c.probability for c in poly.children)
        assert probabilities[1] == pytest.approx(0.75)

    def test_low_probability_targets_dropped(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        params = InlinerParams(min_target_probability=0.9)
        graph = build_graph(
            program.lookup_method("Main", "total"), program, interp.profiles
        )
        annotate_frequencies(graph)
        root = make_root(graph)
        discover_children(root, _context(program, interp.profiles), params)
        (child,) = root.children
        assert child.kind == NodeKind.GENERIC  # no target reaches 90%

    def test_native_callee_is_generic(self):
        from repro.bytecode import MethodBuilder

        program = shapes_program()
        b = MethodBuilder("logs", ["int"], "void", is_static=True)
        b.load(0).invokestatic("Builtins", "print").ret()
        program.klass("Main").add_method(b.build())
        root, _ = _rooted(program, method=("Main", "logs"))
        (child,) = root.children
        assert child.kind == NodeKind.GENERIC


class TestSpecialization:
    def test_declared_param_stamps(self):
        program = shapes_program()
        stamps = declared_param_stamps(program.lookup_method("Main", "total"))
        assert stamps[0].type_name == "Shape"
        assert stamps[1] == stm.int_stamp()
        area = declared_param_stamps(program.lookup_method("Square", "area"))
        assert area[0].type_name == "Square" and area[0].non_null

    def test_concrete_arg_counting(self):
        program = shapes_program()
        root, context = _rooted(program)
        totals = [c for c in root.children if c.method.name == "total"]
        # Receiver args are exact allocations; the int arg is a constant:
        # both arguments are strictly more concrete than declared.
        for node in totals:
            assert count_concrete_args(node, program) == 2

    def test_apply_argument_stamps_improves_params(self):
        program = shapes_program()
        root, context = _rooted(program)
        node = [c for c in root.children if c.method.name == "total"][0]
        node.graph = context.build_callee_graph(node.method)
        assert apply_argument_stamps(node, program)
        assert node.graph.params[0].stamp.exact
        assert node.graph.params[1].stamp.is_constant

    def test_expand_node_runs_trial_and_discovers(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        root, context = _rooted(program, interp.profiles)
        node = [c for c in root.children if c.method.name == "total"][0]
        expand_node(node, context, InlinerParams())
        assert node.kind == NodeKind.EXPANDED
        assert node.graph is not None
        # Specializing with an exact Square receiver devirtualizes and
        # exposes the area callsite as a direct cutoff child.
        assert node.children
        (child,) = node.children
        assert child.kind == NodeKind.CUTOFF
        assert child.method.qualified_name == "Square.area"

    def test_shallow_mode_skips_deep_specialization(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        root, context = _rooted(program, interp.profiles)
        node = [c for c in root.children if c.method.name == "total"][0]
        expand_node(node, context, InlinerParams(), deep=False)
        # Root children still specialize even in shallow mode (the
        # baseline specializes "callsites only in the root method").
        assert node.kind == NodeKind.EXPANDED
        grand = node.children[0]
        if grand.kind == NodeKind.CUTOFF:
            expand_node(grand, context, InlinerParams(), deep=False)
            # Deeper nodes do NOT get argument stamps in shallow mode.
            assert all(
                not p.stamp.exact for p in grand.graph.params
            )


class TestPropagation:
    def test_retrial_counts_budgeted(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        root, context = _rooted(program, interp.profiles)
        for child in list(root.children):
            if child.kind == NodeKind.CUTOFF:
                expand_node(child, context, InlinerParams())
        retrials = propagate_deep_trials(root, context, InlinerParams())
        assert retrials >= 0  # bounded and does not crash


class TestNormalization:
    def test_devirtualized_poly_collapses_to_cutoff(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        root, context = _rooted(program, interp.profiles, method=("Main", "total"))
        (poly,) = root.children
        assert poly.kind == NodeKind.POLYMORPHIC
        # Simulate a later canonicalization devirtualizing the callsite.
        poly.invoke.devirtualize(program.lookup_method("Square", "area"))
        normalize_node(poly, context, InlinerParams())
        assert poly.kind == NodeKind.CUTOFF
        assert poly.method.qualified_name == "Square.area"
        assert poly.children == []

    def test_adopts_matching_expanded_child(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        root, context = _rooted(program, interp.profiles, method=("Main", "total"))
        (poly,) = root.children
        square_child = [
            c for c in poly.children if c.receiver_type == "Square"
        ][0]
        expand_node(square_child, context, InlinerParams())
        poly.invoke.devirtualize(program.lookup_method("Square", "area"))
        normalize_node(poly, context, InlinerParams())
        assert poly.kind == NodeKind.EXPANDED
        assert poly.graph is not None

    def test_native_target_becomes_generic(self):
        program = shapes_program()
        _, _, interp = run_static(program, "Main", "run")
        root, context = _rooted(program, interp.profiles, method=("Main", "total"))
        (poly,) = root.children
        poly.invoke.devirtualize(program.lookup_method("Builtins", "print"))
        normalize_node(poly, context, InlinerParams())
        assert poly.kind == NodeKind.GENERIC
