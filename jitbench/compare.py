"""Gate a change against its parent with the benchmark's own bounds.

Usage (from the repository root)::

    python3 jitbench/compare.py PARENT_DIR CHANGE_DIR

Each directory is an ``--out`` directory whose ``results.jsonl`` holds
at least ten untraced runs of the same workloads, made alternately on
the parent and on the change with identical benchmark settings (README.md
shows the loop). Runs pair up in file order.

For every workload and every ``end_to_end`` metric of BENCHMARK.json it
prints each side's median and quartiles, the change's share of won pairs
(ties count for neither side) and a verdict:

- ``gain``: the change wins at least 90% of the pairs and the medians
  differ, in its favour, by more than the parent's interquartile range;
- ``unresolved``: the parent's own spread is wider than the bound, and
  not every change run beats every parent run (then ``better``);
- ``regression``: the change's median is worse than the parent's by
  more than the bound;
- ``no regression`` otherwise.

It also compares the share of failed iterations. Exit status: 0, 1 on a
regression or more failures, 2 when a side has fewer than ten runs.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 10
GAIN_WINS = 0.9


def load_runs(directory):
    """Untraced, full-size runs of ``directory/results.jsonl``, grouped
    by workload in file order."""
    runs = {}
    with open(os.path.join(directory, "results.jsonl")) as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"] or record["smoke"]:
                continue
            runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(parent, change, better, bound):
    """Compare two lists of one metric's values; returns a row dict."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    win_share = wins / (wins + losses) if wins + losses else 0.0
    improvement = sign * (p_med - c_med)  # > 0 when the change is better
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    worse_share = -improvement / abs(p_med) if p_med else 0.0
    if win_share >= GAIN_WINS and improvement > p_q3 - p_q1:
        result = "gain"
    elif spread > bound:
        every = all(
            sign * (c - p) < 0 for c in change for p in parent
        )
        result = "better" if every else "unresolved"
    elif worse_share > bound:
        result = "regression"
    else:
        result = "no regression"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "wins": win_share, "verdict": result,
    }


def failed_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    parent_runs, change_runs = load_runs(argv[0]), load_runs(argv[1])
    status = 0
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        print("== %s  (%d parent runs, %d change runs)"
              % (workload, len(parent), len(change)))
        if len(parent) < MIN_RUNS or len(change) < MIN_RUNS:
            print("  needs at least %d runs on each side" % MIN_RUNS)
            status = max(status, 2)
            continue
        print("  %-14s %-34s %-34s %6s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        for metric in metrics:
            name = metric["name"]
            row = verdict(
                [run["metrics"][name]["value"] for run in parent],
                [run["metrics"][name]["value"] for run in change],
                metric["better"], metric["bound"],
            )
            if row["verdict"] == "regression":
                status = max(status, 1)
            print("  %-14s %-34s %-34s %5.0f%%  %s" % (
                name,
                "%.6g [%.6g, %.6g]" % row["parent"],
                "%.6g [%.6g, %.6g]" % row["change"],
                100.0 * row["wins"], row["verdict"],
            ))
        p_failed, c_failed = failed_share(parent), failed_share(change)
        more = c_failed > p_failed
        if more:
            status = max(status, 1)
        print("  %-14s %-34.6g %-34.6g %6s  %s" % (
            "failed share", p_failed, c_failed, "",
            "more failures" if more else "no more failures"))
    return status


if __name__ == "__main__":
    sys.exit(main())
