"""The benchmark's correctness oracle: classic-interpreter digests.

Every iteration a workload runs is checked against the outcome the
classic reference interpreter (``Interpreter(predecode=False)``, no
compilation) produces for the same program and iteration number.
Outcomes are normalised the fuzz oracle's way: ``("value", v)``,
``("trap", kind)`` or ``("crash", type)``. Printed output is compared as
a SHA-1 of everything the VM printed so far.

None of the benchmark programs draws from the VM's PRNG, so an outcome
depends only on the program and the iteration number, never on the VM
seed or on the order a workload runs its VMs in. That is why one
committed digest per program (and per generated case) serves every
``--seed``. ``run.py --regen-expected`` recomputes the files under
``expected/``; it takes a few minutes and is never part of a timed run.
"""

import hashlib
import json
import os

from repro.errors import TrapError, VMError
from repro.interp import Interpreter
from repro.runtime import VMState

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")


def observe(call):
    """Run one iteration thunk and normalise its outcome.

    Non-VM exceptions (a bug in a compiled tier, say) propagate: the
    caller abandons that VM.
    """
    try:
        return ("value", call())
    except TrapError as trap:
        return ("trap", trap.kind)
    except VMError as crash:
        return ("crash", type(crash).__name__)
    except RecursionError:
        return ("crash", "RecursionError")


def output_digest(output):
    """SHA-1 of a VM's printed output (a list of ints)."""
    return hashlib.sha1(
        "".join("%d," % value for value in output).encode()
    ).hexdigest()


def reference_digest(program, entry, iterations):
    """The classic interpreter's digest for *iterations* iterations.

    ``outcomes[k]`` is the repr of iteration k's outcome and
    ``output[k]`` the digest of all output printed after k+1
    iterations, so any prefix of the run can be checked.
    """
    vm = VMState(program)
    interp = Interpreter(vm, predecode=False)
    class_name, method_name = entry
    outcomes, output = [], []
    for _ in range(iterations):
        outcomes.append(repr(observe(
            lambda: interp.call_static(class_name, method_name, ())
        )))
        output.append(output_digest(vm.output))
    return {"outcomes": outcomes, "output": output}


def count_failures(digest, outcomes, output, planned, abandoned):
    """Failed iterations of one VM, out of *planned*.

    *outcomes* holds the normalised outcomes of the iterations that
    completed. An iteration fails when its outcome differs from the
    digest; the iterations an abandoned VM never ran fail too; and when
    a VM that ran to the end printed different output, all of its
    iterations fail.
    """
    done = len(outcomes)
    if not abandoned and done and output_digest(output) != digest["output"][done - 1]:
        return planned
    wrong = sum(
        1 for index, outcome in enumerate(outcomes)
        if repr(outcome) != digest["outcomes"][index]
    )
    return wrong + planned - done


def load(name):
    """The committed digest table ``expected/<name>.json``."""
    with open(os.path.join(EXPECTED_DIR, name + ".json")) as handle:
        return json.load(handle)


def save(name, table):
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(os.path.join(EXPECTED_DIR, name + ".json"), "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
