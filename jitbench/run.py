"""The repro JIT benchmark: four workloads, end-to-end metrics, and a
traced per-layer breakdown. README.md explains the workloads and
metrics.

Run from the repository root::

    python3 jitbench/run.py                          # all workloads, seed 1
    python3 jitbench/run.py --workload steady-py --seed 2 --seconds 20
    python3 jitbench/run.py --workload generated --trace 1
    python3 jitbench/run.py --smoke                  # shrunken sizes, ~15 s
    python3 jitbench/run.py --regen-expected         # rebuild expected/
    python3 jitbench/run.py --probe-excluded         # py-tier crash probe

Each workload runs in its own subprocess, one after another. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json for an untraced run, its ``per_layer`` metrics for a
traced one. Every metric, listed or not, is printed above it and
appended to ``<out>/results.jsonl``; a traced run also writes
``<out>/<workload>/trace.jsonl`` and ``layers.txt``.

Exit status: 0 when every iteration matched its classic-interpreter
digest, 1 when one did not or a workload crashed, 2 on bad usage or when
a ``REPRO_*`` environment variable is set (``REPRO_BACKEND=machine``
alone would turn steady-py into a different program).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cold-suite", "steady-py", "generated", "serve-fleet")

#: A workload subprocess is killed after this long.
CHILD_TIMEOUT = 170


def listed_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="jitbench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure for about this long per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", default="jitbench-out",
                        help="directory for results.jsonl and traces")
    parser.add_argument("--smoke", action="store_true",
                        help="one small round per workload")
    parser.add_argument("--regen-expected", action="store_true",
                        help="recompute the classic-interpreter digests")
    parser.add_argument("--probe-excluded", action="store_true",
                        help="rerun the programs steady-py leaves out")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pinned = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if pinned:
        print("refusing to run with %s set: the workloads pin their own "
              "configuration" % ", ".join(pinned), file=sys.stderr)
        return 2
    if args.child or args.regen_expected or args.probe_excluded:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import report
        import workloads

        if args.regen_expected:
            workloads.regen_expected()
            return 0
        if args.probe_excluded:
            workloads.probe_excluded()
            return 0
        return report.run_child(args, listed_metrics(args.trace))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload_process(name, args)
        if result is None:
            return 1
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                "%s.%s" % (name, metric): value
                for name, r in results
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def run_workload_process(name, args):
    """Run one workload in a fresh interpreter; relay its report and
    return its result object, or None when it crashed."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", args.out,
    ]
    if args.smoke:
        command.append("--smoke")
    try:
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        print("%s: killed after %d s" % (name, CHILD_TIMEOUT), file=sys.stderr)
        return None
    lines = child.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write(child.stdout)
        print("%s: exited %d without a result" % (name, child.returncode),
              file=sys.stderr)
        return None
    print("\n".join(lines[:-1]), flush=True)
    return result


if __name__ == "__main__":
    sys.exit(main())
