"""Test helper: execute an IR graph on the machine and compare tiers.

``execute_graph`` lowers a graph and runs it in a minimal harness whose
dispatch interprets every outgoing call — so a single method's compiled
semantics can be compared against pure interpretation regardless of
what its callees do.
"""

from repro.backend.lowering import lower_graph
from repro.backend.machine import MachineExecutor
from repro.interp import Interpreter
from repro.runtime import VMState


class _NullSink:
    """A cycle sink: the executor adds each flush to
    ``compiled_cycles``."""

    def __init__(self):
        self.compiled_cycles = 0


def execute_graph(graph, program, args=(), vm=None):
    """Lower *graph* and execute it once; returns (result, vm)."""
    vm = vm or VMState(program)
    interp = Interpreter(vm)
    sink = _NullSink()
    executor = MachineExecutor(vm, interp.execute, sink)
    code = lower_graph(graph)
    result = executor.execute(code, list(args))
    return result, vm


def compare_tiers(program, class_name, method_name, args, graph=None):
    """Assert interpreter and compiled execution agree; returns value."""
    from repro.ir import build_graph

    method = program.lookup_method(class_name, method_name)
    vm_a = VMState(program)
    expected = Interpreter(vm_a).execute(method, list(args))
    if graph is None:
        graph = build_graph(method, program)
    actual, vm_b = execute_graph(graph, program, args)
    assert actual == expected, (
        "tier mismatch for %s.%s%r: interp=%r compiled=%r"
        % (class_name, method_name, tuple(args), expected, actual)
    )
    assert vm_a.output == vm_b.output, "output mismatch"
    return expected
