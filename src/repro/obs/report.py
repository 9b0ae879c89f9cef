"""``PrintCompilation``-style reports built from an event stream.

:func:`build_report` folds a list of event records (the in-memory
stream of an :class:`~repro.obs.events.EventLog`, or a JSONL file read
back with :meth:`EventLog.read_jsonl`) into a plain-dict report:

- one entry per ``compile`` span (method, hotness at trigger, node and
  code sizes, modelled compile cycles, wall time per phase, inlining
  outcome counts),
- wall time and call count per phase, with ``compile`` and
  ``iteration`` spans as phases of their own,
- pass-effectiveness totals from the pipeline's per-pass node deltas,
  with the number of times each pass group was skipped as clean,
- an inlining outcome rollup with the most-inlined callees,
- failed compilations (an OSR continuation as ``Method@osr<bci>``),
  deopts, invalidations and py-backend bailouts,
- per-iteration cycle breakdowns from the ``iteration`` spans.

:func:`render_report` renders that dict as the aligned text report the
``repro.tools.stats`` CLI prints.
"""

#: Child spans of ``compile`` whose wall time is reported per phase.
#: ``pycodegen`` only appears when the Python-codegen backend runs.
PHASES = ("build", "inline", "optimize", "lower", "pycodegen")

#: Every span in the phase totals: the compile phases, whole compiles
#: and whole iterations (whose wall time the shares are of).
TIMED = ("iteration", "compile") + PHASES

#: Phases omitted from phase listings when they took no time (they
#: don't exist in every configuration).
OPTIONAL_PHASES = ("inline", "pycodegen")

#: Inline decision kinds surfaced in the rollup, in display order.
INLINE_KINDS = ("expand", "decline", "cluster", "inline", "reject", "typeswitch")


def build_report(records):
    """Fold event *records* into a report dict (see module docstring)."""
    spans = {}  # sid -> {"name", "parent"}
    compiles = []
    compile_by_sid = {}
    pending_hotness = {}  # method -> hotness from the last jit.trigger
    phase_totals = dict.fromkeys(TIMED, 0.0)
    phase_calls = dict.fromkeys(TIMED, 0)
    pass_stats = {}  # pass name -> {"runs", "skipped", "removed", "added"}
    rollup = dict.fromkeys(INLINE_KINDS, 0)
    inlined_methods = {}
    iterations = []
    failures = []
    deopts = []  # {"method", "reason", "site"}
    invalidations = []
    backend_bailouts = []  # {"method", "reason", "detail"}

    def enclosing_compile(sid):
        while sid is not None:
            entry = compile_by_sid.get(sid)
            if entry is not None:
                return entry
            info = spans.get(sid)
            sid = info["parent"] if info else None
        return None

    for record in records:
        rtype = record.get("type")
        name = record.get("name")
        attrs = record.get("attrs") or {}
        sid = record.get("span")
        if rtype == "begin":
            spans[sid] = {"name": name, "parent": record.get("parent")}
            if name == "compile":
                method = attrs.get("method")
                entry = {
                    "index": len(compiles) + 1,
                    "method": method,
                    "hotness": attrs.get("hotness"),
                    "nodes": None,
                    "code_size": None,
                    "compile_cycles": None,
                    "backend": None,
                    "bailout": None,
                    "duration": None,
                    "phases": dict.fromkeys(PHASES, 0.0),
                    "inline": dict.fromkeys(INLINE_KINDS, 0),
                    "inline_rounds": 0,
                }
                if entry["hotness"] is None:
                    entry["hotness"] = pending_hotness.pop(method, None)
                compiles.append(entry)
                compile_by_sid[sid] = entry
        elif rtype == "event":
            if name == "pass" or name == "pass.skipped":
                stats = pass_stats.setdefault(
                    attrs.get("name", "?"),
                    {"runs": 0, "skipped": 0, "removed": 0, "added": 0},
                )
                if name == "pass.skipped":
                    stats["skipped"] += 1
                else:
                    stats["runs"] += 1
                    delta = attrs.get("before", 0) - attrs.get("after", 0)
                    if delta >= 0:
                        stats["removed"] += delta
                    else:
                        stats["added"] += -delta
            elif name and name.startswith("inline."):
                kind = name[len("inline."):]
                if kind in rollup:
                    rollup[kind] += 1
                    entry = enclosing_compile(sid)
                    if entry is not None:
                        entry["inline"][kind] += 1
                    if kind == "inline":
                        callee = attrs.get("method")
                        if callee:
                            inlined_methods[callee] = (
                                inlined_methods.get(callee, 0) + 1
                            )
                elif kind == "round":
                    entry = enclosing_compile(sid)
                    if entry is not None:
                        entry["inline_rounds"] += 1
            elif name == "jit.trigger":
                if attrs.get("method") is not None:
                    pending_hotness[attrs["method"]] = attrs.get("hotness")
            elif name == "jit.compile_failed":
                failures.append(attrs.get("method"))
            elif name == "osr.compile_failed":
                failures.append(
                    "%s@osr%s" % (attrs.get("method"), attrs.get("bci"))
                )
            elif name == "deopt":
                deopts.append(
                    {
                        "method": attrs.get("method"),
                        "reason": attrs.get("reason"),
                        "site": attrs.get("site"),
                    }
                )
            elif name == "jit.invalidate":
                invalidations.append(attrs.get("method"))
            elif name == "backend.bailout":
                backend_bailouts.append(
                    {
                        "method": attrs.get("method"),
                        "reason": attrs.get("reason"),
                        "detail": attrs.get("detail"),
                    }
                )
                # The compilation fell back to the machine backend; the
                # compile end-record already reports backend=machine.
                entry = enclosing_compile(sid)
                if entry is not None:
                    entry["bailout"] = attrs.get("reason")
        elif rtype == "end":
            info = spans.get(sid)
            duration = record.get("dur") or 0.0
            if name in phase_totals:
                phase_totals[name] += duration
                phase_calls[name] += 1
            if name == "iteration":
                # A trapping iteration ends its span with no breakdown.
                if attrs:
                    iterations.append(attrs)
            elif name == "compile":
                entry = compile_by_sid.get(sid)
                if entry is not None:
                    entry["duration"] = duration
                    for key in ("nodes", "code_size", "compile_cycles",
                                "backend"):
                        if attrs.get(key) is not None:
                            entry[key] = attrs[key]
            elif name in PHASES:
                parent = info["parent"] if info else None
                entry = enclosing_compile(parent)
                if entry is not None:
                    entry["phases"][name] += duration

    top_inlined = sorted(
        inlined_methods.items(), key=lambda item: (-item[1], item[0])
    )
    return {
        "compiles": compiles,
        "phase_totals": phase_totals,
        "phase_calls": phase_calls,
        "pass_stats": pass_stats,
        "inline_rollup": rollup,
        "top_inlined": top_inlined,
        "iterations": iterations,
        "failures": failures,
        "deopts": deopts,
        "invalidations": invalidations,
        "backend_bailouts": backend_bailouts,
    }


def _ms(seconds):
    return "%.1fms" % (seconds * 1000.0)


def _table(rows, header, align_left=()):
    widths = [
        max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))
    ]
    lines = []
    for row in [header] + rows:
        cells = []
        for i, cell in enumerate(row):
            text = str(cell)
            cells.append(
                text.ljust(widths[i]) if i in align_left else text.rjust(widths[i])
            )
        lines.append("  ".join(cells).rstrip())
    return lines


def render_report(report, top=10, hottest=None, metrics_snapshot=None):
    """Render a report dict as the aligned text report.

    Args:
        report: the output of :func:`build_report`.
        top: how many rows to show in the top-N sections.
        hottest: optional ``[(method, hotness)]`` (live runs pass the
            profile store's view; replays fall back to trigger hotness).
        metrics_snapshot: optional metrics snapshot to append.
    """
    lines = []
    compiles = report["compiles"]

    lines.append("== compilations (%d) ==" % len(compiles))
    if compiles:
        rows = []
        for entry in compiles:
            rows.append(
                (
                    entry["index"],
                    entry["method"] or "?",
                    entry["hotness"] if entry["hotness"] is not None else "-",
                    entry["nodes"] if entry["nodes"] is not None else "-",
                    entry["code_size"] if entry["code_size"] is not None else "-",
                    entry["compile_cycles"]
                    if entry["compile_cycles"] is not None
                    else "-",
                    (entry["backend"] or "-")
                    + ("!" if entry["bailout"] else ""),
                    " ".join(
                        "%s=%s" % (phase, _ms(entry["phases"][phase]))
                        for phase in PHASES
                        if entry["phases"][phase]
                        or phase not in OPTIONAL_PHASES
                    ),
                    entry["inline"]["inline"],
                    entry["inline"]["typeswitch"],
                )
            )
        lines.extend(
            _table(
                rows,
                ("#", "method", "hotness", "nodes", "code", "jit-cycles",
                 "backend", "phase wall time", "inl", "ts"),
                align_left=(1, 6, 7),
            )
        )
    else:
        lines.append("  (no compilations recorded)")
    for method in report["failures"]:
        lines.append("  FAILED %s" % method)

    bailouts = report.get("backend_bailouts") or []
    if bailouts:
        lines.append("")
        lines.append(
            "== py-backend bailouts (%d; '!' above marks the compiles) =="
            % len(bailouts)
        )
        by_reason = {}
        for bailout in bailouts:
            reason = bailout.get("reason") or "?"
            by_reason[reason] = by_reason.get(reason, 0) + 1
        lines.append(
            "  by reason: "
            + ", ".join(
                "%s ×%d" % (reason, count)
                for reason, count in sorted(by_reason.items())
            )
        )
        for bailout in bailouts[:top]:
            lines.append(
                "  %s: %s (%s)"
                % (bailout.get("method") or "?",
                   bailout.get("reason") or "?",
                   bailout.get("detail") or "")
            )

    lines.append("")
    lines.append("== phase totals (wall time; telemetry only) ==")
    totals = report["phase_totals"]
    calls = report["phase_calls"]
    whole = totals["iteration"]
    rows = [
        (
            phase,
            calls[phase],
            _ms(totals[phase]),
            "%.1f%%" % (100.0 * totals[phase] / whole) if whole else "-",
        )
        for phase in TIMED
        if calls[phase] or phase not in OPTIONAL_PHASES
    ]
    lines.extend(
        _table(
            rows, ("phase", "calls", "wall", "of iterations"),
            align_left=(0,),
        )
    )

    lines.append("")
    lines.append("== pass effectiveness (IR node deltas) ==")
    if report["pass_stats"]:
        rows = [
            (name, stats["runs"], stats["skipped"], stats["removed"],
             stats["added"])
            for name, stats in sorted(report["pass_stats"].items())
        ]
        lines.extend(
            _table(
                rows, ("pass", "runs", "skipped", "nodes-", "nodes+"),
                align_left=(0,),
            )
        )
    else:
        lines.append("  (no pass events recorded)")

    lines.append("")
    lines.append("== inlining rollup ==")
    rollup = report["inline_rollup"]
    lines.append(
        "  expansions %d (declined %d), clusters %d, inlined %d, "
        "kept %d, typeswitches %d"
        % (
            rollup["expand"],
            rollup["decline"],
            rollup["cluster"],
            rollup["inline"],
            rollup["reject"],
            rollup["typeswitch"],
        )
    )
    if report["top_inlined"]:
        shown = report["top_inlined"][:top]
        lines.append(
            "  top inlined: "
            + ", ".join("%s ×%d" % (name, count) for name, count in shown)
        )

    hot_rows = hottest
    if hot_rows is None:
        hot_rows = [
            (entry["method"], entry["hotness"])
            for entry in compiles
            if entry["hotness"] is not None
        ]
        hot_rows.sort(key=lambda item: (-item[1], item[0]))
    if hot_rows:
        lines.append("")
        lines.append("== hottest methods (top %d) ==" % top)
        rows = [
            (name, "%d" % hotness) for name, hotness in hot_rows[:top]
        ]
        lines.extend(_table(rows, ("method", "hotness"), align_left=(0,)))

    deopts = report.get("deopts") or []
    if deopts:
        lines.append("")
        lines.append("== deoptimizations (%d) ==" % len(deopts))
        by_reason = {}
        by_site = {}
        for deopt in deopts:
            reason = deopt.get("reason") or "?"
            by_reason[reason] = by_reason.get(reason, 0) + 1
            site = "%s [%s]" % (deopt.get("site") or "?",
                                deopt.get("method") or "?")
            by_site[site] = by_site.get(site, 0) + 1
        lines.append(
            "  by reason: "
            + ", ".join(
                "%s ×%d" % (reason, count)
                for reason, count in sorted(by_reason.items())
            )
        )
        rows = sorted(by_site.items(), key=lambda item: (-item[1], item[0]))
        lines.extend(
            _table(
                [(site, count) for site, count in rows[:top]],
                ("site [compiled root]", "deopts"),
                align_left=(0,),
            )
        )
        invalidations = report.get("invalidations") or []
        if invalidations:
            lines.append(
                "  invalidations: %d (%s)"
                % (
                    len(invalidations),
                    ", ".join(sorted(set(filter(None, invalidations)))),
                )
            )

    iterations = report["iterations"]
    if iterations:
        lines.append("")
        lines.append("== iterations (%d) ==" % len(iterations))
        total = sum(it.get("total_cycles", 0) for it in iterations)
        compile_cycles = sum(it.get("compile_cycles", 0) for it in iterations)
        lines.append(
            "  total %d cycles (%d spent compiling), steady %d cycles/iteration"
            % (total, compile_cycles, iterations[-1].get("total_cycles", 0))
        )

    if metrics_snapshot:
        lines.append("")
        lines.append("== metrics ==")
        for name, data in sorted(metrics_snapshot.items()):
            if data.get("type") == "histogram":
                lines.append(
                    "  %-32s n=%d p50=%.0f p90=%.0f p99=%.0f max=%s"
                    % (name, data["count"], data["p50"], data["p90"],
                       data["p99"], data["max"])
                )
            else:
                lines.append("  %-32s %s" % (name, data.get("value")))
    return "\n".join(lines)
