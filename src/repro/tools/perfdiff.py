"""Noise-aware comparison of two ``repro.tools.perf`` result files.

Gates performance regressions in CI: compares a freshly measured
``BENCH_wall.json`` against the committed reference and exits nonzero
when a workload's *speedup ratio* dropped by more than the tolerance
(or its semantics check failed). Ratios — not absolute seconds — are
compared, because absolute wall times vary wildly across hosts while
the classic-vs-fast speedup on the same host is far more stable.

Workloads are matched by ``(workload, benchmark, clock)``. A workload
present only in the reference (a row the candidate run dropped) is
reported as skipped unless ``--require-all`` is given. A
workload present only in the *candidate* has no reference ratio to
regress against but is still gated on its semantics check and the
absolute ``--min-speedup`` floor — new fast paths don't get a free
pass just because the committed reference predates them. For matched
workloads the floor binds only when the reference itself meets it:
a workload committed below the floor (serve-mixed records async
overhead, not a speedup) is gated by the ratio comparison alone.

Examples::

    python -m repro.tools.perf --quick -o BENCH_new.json
    python -m repro.tools.perfdiff BENCH_wall.json BENCH_new.json
    python -m repro.tools.perfdiff base.json new.json --max-regression 0.2
"""

import argparse
import json

#: Default fractional speedup drop tolerated before failing. CI quick
#: runs use few repeats on noisy shared runners, so the default is
#: deliberately generous; tighten it for full local runs.
DEFAULT_MAX_REGRESSION = 0.35

#: Default absolute floor: the "fast" configuration must stay at least
#: this many times faster than its baseline.
DEFAULT_MIN_SPEEDUP = 1.0


def _key(entry):
    return (entry["workload"], entry["benchmark"], entry["clock"])


def _index(results):
    return {_key(entry): entry for entry in results["workloads"]}


def compare(base, new, max_regression=DEFAULT_MAX_REGRESSION,
            min_speedup=DEFAULT_MIN_SPEEDUP, require_all=False):
    """Compare two perf result dicts; returns (failures, lines).

    *failures* is a list of human-readable failure strings (empty when
    the gate passes) and *lines* the full per-workload report.
    """
    base_index = _index(base)
    new_index = _index(new)
    failures = []
    lines = [
        "%-16s %-12s %-14s %s"
        % ("workload", "benchmark", "clock", "speedup (base -> new)")
    ]
    for key in sorted(base_index):
        entry = base_index.get(key)
        fresh = new_index.get(key)
        label = "%-16s %-12s %-14s" % key
        if fresh is None:
            if require_all:
                failures.append("%s/%s: missing from new results" % key[:2])
                lines.append("%s missing (FAIL)" % label)
            else:
                lines.append("%s skipped (not in new results)" % label)
            continue
        base_speedup = float(entry["speedup"])
        new_speedup = float(fresh["speedup"])
        floor = base_speedup * (1.0 - max_regression)
        status = "ok"
        if not fresh.get("semantics_identical", False):
            status = "FAIL: semantics diverged"
            failures.append(
                "%s/%s: semantics_identical is false" % key[:2]
            )
        elif new_speedup < floor and new_speedup < base_speedup:
            status = "FAIL: regression"
            failures.append(
                "%s/%s: speedup %.3f < %.3f "
                "(reference %.3f, tolerance %d%%)"
                % (key[0], key[1], new_speedup, floor, base_speedup,
                   round(100 * max_regression))
            )
        elif base_speedup >= min_speedup and new_speedup < min_speedup:
            # The floor only binds workloads whose committed reference
            # meets it. A workload the reference itself records below
            # the floor (serve-mixed measures async-pipeline overhead,
            # not a speedup) is gated by the ratio check alone.
            status = "FAIL: below floor"
            failures.append(
                "%s/%s: speedup %.3f < required floor %.3f"
                % (key[0], key[1], new_speedup, min_speedup)
            )
        lines.append(
            "%s %.3f -> %.3f  %s"
            % (label, base_speedup, new_speedup, status)
        )
    for key in sorted(set(new_index) - set(base_index)):
        # Candidate-only workloads still gate: no reference ratio to
        # regress against, but the semantics check and the absolute
        # speedup floor apply — a brand-new fast path must not ship
        # slower than its baseline or with diverging semantics just
        # because the committed reference predates it.
        fresh = new_index[key]
        label = "%-16s %-12s %-14s" % key
        new_speedup = float(fresh["speedup"])
        status = "ok (new workload, floor only)"
        if not fresh.get("semantics_identical", False):
            status = "FAIL: semantics diverged"
            failures.append(
                "%s/%s: semantics_identical is false" % key[:2]
            )
        elif new_speedup < min_speedup:
            status = "FAIL: below floor"
            failures.append(
                "%s/%s: new workload speedup %.3f < required floor %.3f"
                % (key[0], key[1], new_speedup, min_speedup)
            )
        lines.append("%s (none) -> %.3f  %s" % (label, new_speedup, status))
    return failures, lines


def _load(path):
    with open(path) as handle:
        results = json.load(handle)
    if "workloads" not in results:
        raise SystemExit(
            "perfdiff: %s is not a repro.tools.perf result file "
            "(no 'workloads' key)" % path
        )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.tools.perfdiff", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("base", help="reference BENCH_wall.json")
    parser.add_argument("new", help="freshly measured BENCH_wall.json")
    parser.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        metavar="FRACTION",
        help="tolerated fractional speedup drop per workload "
             "(default %.2f)" % DEFAULT_MAX_REGRESSION,
    )
    parser.add_argument(
        "--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
        metavar="RATIO",
        help="absolute speedup floor every workload must keep "
             "(default %.1f)" % DEFAULT_MIN_SPEEDUP,
    )
    parser.add_argument(
        "--require-all", action="store_true",
        help="fail when a reference workload is missing from the new "
             "results (default: report it as skipped)",
    )
    args = parser.parse_args(argv)

    base = _load(args.base)
    new = _load(args.new)
    failures, lines = compare(
        base, new,
        max_regression=args.max_regression,
        min_speedup=args.min_speedup,
        require_all=args.require_all,
    )
    print("\n".join(lines))
    if failures:
        print()
        print("perfdiff: %d regression(s):" % len(failures))
        for failure in failures:
            print("  %s" % failure)
        return 1
    print()
    print("perfdiff: ok (%d workload(s) compared)" % sum(
        1 for line in lines[1:] if "->" in line
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
