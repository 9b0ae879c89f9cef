"""Dump bytecode, SSA IR, machine code or py-tier source for a minij
method.

Examples::

    python -m repro.tools.disasm program.minij --method Main.run
    python -m repro.tools.disasm program.minij --method Main.run --form ir
    python -m repro.tools.disasm program.minij --method Main.run --form machine
    python -m repro.tools.disasm program.minij --method Main.run --form py
    python -m repro.tools.disasm program.minij            # whole program

``--form py`` prints the closure source the py tier generates for the
optimized graph (the one ``--form machine`` lowers); when the generator
bails out it prints the reason and exits with status 1.
"""

import argparse
import sys

from repro.backend import pycodegen
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
        "--form", choices=["bytecode", "ir", "ir-opt", "machine", "py"],
        default="bytecode",
    )
    args = parser.parse_args(argv)

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
    print(lower_graph(graph).listing())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
