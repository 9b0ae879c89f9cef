"""Dump bytecode, SSA IR, machine code, decoded segments or py-tier
source for a minij method.

Examples::

    python -m repro.tools.disasm program.minij --method Main.run
    python -m repro.tools.disasm program.minij --method Main.run --form ir
    python -m repro.tools.disasm program.minij --method Main.run --form machine
    python -m repro.tools.disasm program.minij --method Main.run --form segments
    python -m repro.tools.disasm program.minij --method Main.run --form py
    python -m repro.tools.disasm program.minij            # whole program

``--form segments`` decodes the machine code as the machine executor
does and prints each reachable segment in pc order (start pc, folded
cost, the body's shape, the tail and the jump targets the segment
absorbed), a count of segments, shapes and decoded instructions, then
the generated maker source of each shape once. ``--form py`` prints
the closure source the py tier generates for the optimized graph (the
one ``--form machine`` lowers); when the generator bails out it prints
the reason and exits with status 1.
"""

import argparse
import sys

from repro.backend import machine, pycodegen
from repro.backend.lowering import lower_graph
from repro.bytecode.disassembler import disassemble_method, disassemble_program
from repro.ir import build_graph, format_graph
from repro.opts.pipeline import OptimizationPipeline
from repro.tools.common import compile_file, method_argument


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.tools.disasm", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("program", help="minij source file")
    parser.add_argument(
        "--method", type=method_argument, default=None,
        help="restrict to one method (Class.method); default: whole program",
    )
    parser.add_argument(
        "--form",
        choices=["bytecode", "ir", "ir-opt", "machine", "segments", "py"],
        default="bytecode",
    )
    args = parser.parse_args(argv)
    if args.method is None and args.form != "bytecode":
        parser.error("--form %s needs --method" % args.form)

    program = compile_file(args.program)
    if args.method is None:
        print(disassemble_program(program))
        return 0
    class_name, method_name = args.method
    method = program.lookup_method(class_name, method_name)
    if args.form == "bytecode":
        print(disassemble_method(method))
        return 0
    graph = build_graph(method, program)
    if args.form != "ir":
        OptimizationPipeline(program).run(graph)
    if args.form.startswith("ir"):
        print(format_graph(graph, include_frequency=True))
        return 0
    if args.form == "py":
        try:
            _, source = pycodegen.generate(graph)
        except pycodegen.PyCodegenBailout as bailout:
            print("pycodegen bailout: %s: %s"
                  % (bailout.reason, bailout.detail), file=sys.stderr)
            return 1
        print(source, end="")
        return 0
    code = lower_graph(graph)
    if args.form == "segments":
        print(format_segments(code), end="")
        return 0
    print(code.listing())
    return 0


def format_segments(code):
    """The decoded segments of *code* in pc order, their counts, then
    the source of each body shape's maker once, in order of first use."""
    shapes = {}
    machine.decode(code, shapes)
    starts = {id(entry[0]): pc for pc, entry in shapes.items()}

    def operand(value):
        if id(value) in starts:  # a segment
            return "@%d" % starts[id(value)]
        if isinstance(value, tuple):  # argument registers
            return "(%s)" % ", ".join(str(r) for r in value)
        return str(getattr(value, "qualified_name", value))

    lines = []
    makers = {}
    for pc in sorted(shapes):
        segment, shape, absorbed, _ = shapes[pc]
        cost, _, tail, a, b, c, follow = segment
        names = machine.shape_names(shape)
        tail_name = machine.shape_names((tail,))[0]
        if names and names[-1] == "FAULT":
            ending = "traps"
        elif tail == machine.M_JMP:
            ending = "JMP %s" % operand(follow)
        elif tail == machine.M_BR:
            ending = "BR %s ? %s : %s" % (a, operand(b), operand(follow))
        else:
            ending = " ".join(
                [tail_name] + [operand(x) for x in (a, b, c) if x is not None]
            )
            if follow is not None:
                ending += " -> " + operand(follow)
        if absorbed:
            ending += "  (absorbs %s)" % " ".join("@%d" % t for t in absorbed)
        lines.append(
            "@%-4d cost %-4d [%s] %s" % (pc, cost, " ".join(names), ending)
        )
        if shape:
            makers.setdefault(shape, machine.maker_source(shape))
    lines.append(
        "# %d segments, %d shapes, %d instructions decoded of %d"
        % (
            len(shapes), len(makers),
            sum(entry[3] for entry in shapes.values()), code.size,
        )
    )
    for shape, source in makers.items():
        lines.append("")
        lines.append("# shape: %s" % " ".join(machine.shape_names(shape)))
        lines.extend(source.rstrip("\n").splitlines())
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
