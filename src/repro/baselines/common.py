"""Shared machinery for the baseline inliners."""

from repro.core.polymorphic import emit_typeswitch
from repro.errors import CompileError
from repro.ir import stamps as st


def inline_direct_call(graph, invoke, context, report=None):
    """Inline a resolved direct/static/special call in place.

    Builds a fresh callee graph, injects the argument stamps (even the
    greedy baselines get basic callsite specialization — both C2 and
    open-source Graal do) and substitutes it. Returns the callee graph's
    node count, or 0 when the callee cannot be compiled
    (:class:`CompileError`) and the call stays as it is.
    """
    target = invoke.target
    try:
        callee = context.build_callee_graph(target)
    except CompileError:
        return 0
    for param, arg in zip(callee.params, invoke.inputs):
        joined = param.stamp.join(arg.stamp, context.program)
        if joined.kind != st.Stamp.BOTTOM:
            param.stamp = joined
    size = callee.node_count()
    graph.inline_call(invoke, callee)
    if report is not None:
        report.inline_count += 1
        report.inlined_methods.append(target.qualified_name)
        report.explored_nodes += size
    return size


def speculate_dispatch(graph, invoke, context, max_targets, min_probability,
                       report=None):
    """Devirtualize a dispatched call through a profile typeswitch.

    Returns the list of direct invokes created (empty when the profile
    is unusable).
    """
    profile = [
        (type_name, probability)
        for type_name, probability in invoke.receiver_types
        if probability >= min_probability
    ][:max_targets]
    if not profile:
        return []
    targets = []
    for type_name, probability in profile:
        try:
            method = context.program.resolve_method(
                type_name, invoke.method_name
            )
        except Exception:
            continue
        if method.is_abstract:
            continue
        targets.append((type_name, probability, method))
    if not targets:
        return []
    arms = emit_typeswitch(graph, invoke, targets, context.program)
    if report is not None:
        report.typeswitch_count += 1
    return list(arms.values())
