"""One workload run, printed and saved (the subprocess side of run.py)."""

import json
import os

import workloads


def run_child(args, listed):
    """Run ``args.workload``, print every metric, append the run to
    ``<out>/results.jsonl`` and end with the result line; returns the
    exit status."""
    trace = bool(args.trace)
    untraced, traced, tracer, speed = workloads.run_workload(
        args.workload, args.seed, args.seconds, trace=trace, smoke=args.smoke
    )
    metrics, counts = workloads.end_to_end(untraced)
    jobs = [job for round_jobs in untraced + traced for job in round_jobs]
    attempted = sum(job.planned for job in jobs)
    failed = sum(job.failed for job in jobs)
    print("== %s  seed=%d  untraced rounds=%d  traced rounds=%d  "
          "timed samples=%d  machine slowdown=%.3f (median of %d samples)"
          % (args.workload, args.seed, len(untraced), len(traced),
             counts["samples"], speed.median_slowdown(),
             len(speed.slowdowns)))
    print(format_metrics(metrics))
    print("  (%d of %d planned iterations failed)" % (failed, attempted))
    everything = dict(metrics)
    if trace:
        layers = workloads.per_layer(untraced, traced, tracer, speed)
        table = format_layers(layers, tracer)
        print(table)
        everything.update(layers)
        directory = os.path.join(args.out, args.workload)
        os.makedirs(directory, exist_ok=True)
        tracer.write_jsonl(os.path.join(directory, "trace.jsonl"))
        with open(os.path.join(directory, "layers.txt"), "w") as handle:
            handle.write(table + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: everything[name] for name in listed},
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.jsonl"), "a") as handle:
        handle.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": trace,
            "smoke": args.smoke,
            "correct": result["correct"], "attempted": attempted,
            "failed": failed, "metrics": everything,
        }) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def format_metrics(metrics):
    return "\n".join(
        "  %-38s %14.6g  %s" % (name, metric["value"], metric["unit"])
        for name, metric in metrics.items()
    )


def format_layers(layers, tracer):
    """The per-layer self-time table, then the other layer metrics and
    the per-thread accounting."""
    wall = layers["trace.wall_s"]["value"]
    rows = [
        (layer, layers[layer + ".self_s"]["value"],
         layers[layer + ".calls"]["value"])
        for layer in workloads.LAYERS
    ]
    rows.append(
        ("engine (unattributed)", layers["engine.unattributed_s"]["value"], 0)
    )
    rows.sort(key=lambda row: -row[1])
    lines = ["per-layer self time per traced round, all threads; share of "
             "application-thread wall",
             "  %-22s %12s %8s %12s" % ("layer", "self_s", "share", "calls")]
    for layer, seconds, calls in rows:
        lines.append("  %-22s %12.6f %7.1f%% %12.0f" % (
            layer, seconds, 100.0 * seconds / wall if wall else 0.0, calls
        ))
    lines.append("other layer metrics")
    tabled = {layer + suffix for layer in workloads.LAYERS
              for suffix in (".self_s", ".calls")}
    lines.append(format_metrics({
        name: metric for name, metric in layers.items() if name not in tabled
    }))
    lines.append("threads, all traced rounds (time in root spans)")
    for kind in ("application", "worker"):
        rows = [
            row for row in tracer.threads()
            if row["application"] == (kind == "application")
        ]
        if rows:
            lines.append("  %-11s x%-4d %10.6f s" % (
                kind, len(rows), sum(row["wall_s"] for row in rows)
            ))
    return "\n".join(lines)
