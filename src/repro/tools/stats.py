"""``PrintCompilation``-style compilation statistics for the tiered VM.

Runs a minij program with full observability (or replays a previously
recorded JSONL event log) and renders a per-method compilation report:
compile order, hotness at trigger, node/code sizes, phase wall times
and call counts, pass-effectiveness node deltas, inlining outcome
rollups and the hottest methods. Every number comes from the event
stream, so a replay prints the same tables as the live run that
recorded the log (the hottest methods and the metrics excepted: a live
run reads them from the profile store and the registry).

Examples::

    python -m repro.tools.stats program.minij
    python -m repro.tools.stats program.minij --inliner greedy --iterations 20
    python -m repro.tools.stats program.minij --events events.jsonl \\
        --metrics metrics.json
    python -m repro.tools.stats events.jsonl          # replay a recorded log
"""

import argparse
import json

from repro.jit import Engine, JitConfig
from repro.obs import EventLog, Observability, build_report, render_report
from repro.tools.common import (
    add_inliner_argument,
    compile_file,
    make_inliner,
    method_argument,
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.tools.stats", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target", help="minij source file, or a .jsonl event log to replay"
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="treat TARGET as a JSONL event log (implied by a .jsonl suffix)",
    )
    parser.add_argument(
        "--entry", type=method_argument, default=("Main", "run"),
        help="entry point as Class.method (default Main.run)",
    )
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--hot-threshold", type=int, default=25)
    parser.add_argument(
        "--events", metavar="PATH",
        help="also stream the event log to PATH as JSONL",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="also write the metrics snapshot (plus per-iteration "
             "breakdowns) to PATH as JSON",
    )
    parser.add_argument(
        "--flight", metavar="PATH",
        help="also dump the flight-recorder ring (bounded recent "
             "provenance) to PATH as JSONL; replayable by "
             "repro.tools.explain",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="rows in the top-N sections (default 10)",
    )
    parser.add_argument(
        "--no-metrics-section", action="store_true",
        help="omit the raw metrics dump from the report",
    )
    add_inliner_argument(parser)
    args = parser.parse_args(argv)

    if args.replay or args.target.endswith(".jsonl"):
        records = EventLog.read_jsonl(args.target)
        hottest = None
        snapshot = None
    else:
        records, hottest, snapshot = _run_live(args)

    report = build_report(records)
    print(
        render_report(
            report,
            top=args.top,
            hottest=hottest,
            metrics_snapshot=None if args.no_metrics_section else snapshot,
        )
    )
    return 0


def _run_live(args):
    """Run the program under full observability; returns the event
    records (normalized through JSON, exactly as a replay would see
    them), the profile store's hottest methods and the metrics
    snapshot."""
    program = compile_file(args.target)
    sink = open(args.events, "w") if args.events else None
    try:
        obs = Observability(events=EventLog(sink=sink))
        engine = Engine(
            program,
            JitConfig(hot_threshold=args.hot_threshold),
            inliner=make_inliner(args.inliner),
            obs=obs,
        )
        class_name, method_name = args.entry
        iteration_dicts = []
        for _ in range(args.iterations):
            result = engine.run_iteration(class_name, method_name)
            iteration_dicts.append(result.as_dict())
    finally:
        if sink is not None:
            sink.close()
    if args.flight:
        obs.flight.save(args.flight)
    if args.metrics:
        with open(args.metrics, "w") as handle:
            json.dump(
                {
                    "program": args.target,
                    "entry": "%s.%s" % (class_name, method_name),
                    "inliner": args.inliner,
                    "iterations": iteration_dicts,
                    "metrics": obs.metrics.snapshot(),
                },
                handle,
                indent=2,
                default=str,
            )
            handle.write("\n")
    # Normalize through JSON so live and replay reports are identical.
    records = [
        json.loads(json.dumps(record, default=str))
        for record in obs.events.records
    ]
    return records, engine.profiles.hottest(args.top), obs.metrics.snapshot()


if __name__ == "__main__":
    raise SystemExit(main())
