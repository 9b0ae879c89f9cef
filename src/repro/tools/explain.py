"""``PrintInlining``-style inlining-decision explanations.

Answers the question every inliner-tuning session starts with: *why was
(or wasn't) this call site inlined into that root?* — from the decision
provenance the flight recorder keeps (see ``docs/flight-recorder.md``).

Two sources, one report:

- **live**: run a minij program (or a registered benchmark) under full
  observability and explain the recorded compilations;
- **replay**: load a saved JSONL recording — a flight dump
  (``Engine.dump_flight`` / ``stats --flight`` / ``--save``) or a full
  event log (``stats --events``) — and explain it offline.

Examples::

    python -m repro.tools.explain program.minij
    python -m repro.tools.explain program.minij --root Main.run
    python -m repro.tools.explain program.minij --root Main.run --site B.foo
    python -m repro.tools.explain recording.jsonl --site Seq.foreach
    python -m repro.tools.explain kiama --iterations 8 --save flight.jsonl
"""

import argparse
import os

from repro.jit import Engine, JitConfig
from repro.obs import Observability, read_flight_jsonl
from repro.tools.common import (
    add_inliner_argument,
    compile_file,
    make_inliner,
    method_argument,
)

#: Record kinds consumed from a recording, in the inline.* namespace
#: plus the engine's tier/deopt events.
_DECISION_KINDS = (
    "inline.expand",
    "inline.decline",
    "inline.inline",
    "inline.reject",
    "inline.typeswitch",
    "inline.speculation",
    "inline.typecheck",
)


# ----------------------------------------------------------------------
# Grouping records into compilations
# ----------------------------------------------------------------------


class Compilation:
    """One recorded compilation: root, decision stream, install info."""

    __slots__ = ("index", "root", "decisions", "terminate", "install")

    def __init__(self, index, root):
        self.index = index
        self.root = root
        self.decisions = []  # (kind-without-prefix, attrs) in order
        self.terminate = None
        self.install = None


class CallSite:
    """The recorded history of one candidate callsite in one compilation."""

    __slots__ = ("method", "bci", "path", "order", "events")

    def __init__(self, method, bci, path, order):
        self.method = method
        self.bci = bci
        self.path = path
        self.order = order
        self.events = []  # (kind, attrs)

    @property
    def depth(self):
        return max(1, len(self.path))

    def verdict(self):
        """(decision, reason, attrs) — the callsite's final verdict."""
        final = ("never-considered", None, {})
        for kind, attrs in self.events:
            reason = attrs.get("reason")
            if kind == "inline":
                final = ("inlined", None, attrs)
            elif kind == "typeswitch":
                final = ("typeswitch", None, attrs)
            elif kind == "expand":
                if final[0] not in ("inlined", "typeswitch"):
                    final = ("expanded-not-inlined", None, attrs)
            elif kind == "reject":
                if final[0] != "inlined":
                    final = ("not-inlined", reason, attrs)
            elif kind == "decline":
                if final[0] == "never-considered" or final[0] == "not-expanded":
                    final = ("not-expanded", reason, attrs)
            elif kind == "typecheck":
                if attrs.get("speculate"):
                    final = ("typecheck-speculated", None, attrs)
                else:
                    final = ("typecheck-kept", reason, attrs)
        return final


def group_compilations(records):
    """Fold flight records into :class:`Compilation` groups plus the
    deopt timeline."""
    compilations = []
    current = None
    deopts = []
    for record in records:
        kind = record["kind"]
        attrs = record["attrs"]
        if kind == "inline.begin":
            current = Compilation(len(compilations) + 1, attrs.get("root"))
            compilations.append(current)
        elif kind == "inline.terminate":
            if current is not None:
                current.terminate = attrs
        elif kind in _DECISION_KINDS:
            if current is not None:
                current.decisions.append((kind[len("inline."):], attrs))
        elif kind in ("jit.install", "osr.install"):
            # OSR roots are tagged "Method@osr<bci>" by the compiler
            # (matching the engine's (method, backedge bci) cache key),
            # while the install record carries method and bci
            # separately — reconstruct the root name to pair them.
            root = attrs.get("method")
            if kind == "osr.install":
                root = "%s@osr%s" % (root, attrs.get("bci"))
            for compilation in reversed(compilations):
                if (
                    compilation.root == root
                    and compilation.install is None
                ):
                    compilation.install = attrs
                    break
        elif kind == "deopt":
            deopts.append(attrs)
    return compilations, deopts


def collect_sites(compilation):
    """The compilation's callsites, in first-seen order."""
    sites = {}
    for kind, attrs in compilation.decisions:
        method = attrs.get("method") or attrs.get("callsite")
        if method is None:
            continue
        key = (tuple(attrs.get("path") or ()), method, attrs.get("bci", -1))
        site = sites.get(key)
        if site is None:
            site = sites[key] = CallSite(
                method, attrs.get("bci", -1), list(key[0]), len(sites)
            )
        site.events.append((kind, attrs))
    return sorted(sites.values(), key=lambda s: s.order)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def _fmt(value, spec="%.3f"):
    if value is None:
        return "?"
    if isinstance(value, float):
        return spec % value
    return str(value)


def _verdict_line(site):
    decision, reason, attrs = site.verdict()
    if decision == "inlined":
        return "inline: ratio=%s thr=%s" % (
            _fmt(attrs.get("ratio")), _fmt(attrs.get("threshold")),
        )
    if decision == "typeswitch":
        return "typeswitch over {%s}" % ", ".join(attrs.get("targets") or ())
    if decision == "expanded-not-inlined":
        return "expanded, not inlined: B_L=%s |ir|=%s thr=%s" % (
            _fmt(attrs.get("benefit"), "%.2f"),
            _fmt(attrs.get("size"), "%d"),
            _fmt(attrs.get("threshold")),
        )
    if decision == "not-inlined":
        return "not inlined (%s): ratio=%s thr=%s" % (
            reason or "threshold",
            _fmt(attrs.get("ratio")), _fmt(attrs.get("threshold")),
        )
    if decision == "not-expanded":
        return "not expanded (%s): B_L=%s |ir|=%s thr=%s" % (
            reason or "threshold",
            _fmt(attrs.get("benefit"), "%.2f"),
            _fmt(attrs.get("size"), "%d"),
            _fmt(attrs.get("threshold")),
        )
    if decision == "typecheck-speculated":
        return "typecheck speculated: %s %s pinned to exact %s" % (
            attrs.get("check"),
            attrs.get("type"),
            attrs.get("observed"),
        )
    if decision == "typecheck-kept":
        return "typecheck kept (%s): %s %s observed=%s" % (
            reason or "?",
            attrs.get("check"),
            attrs.get("type"),
            attrs.get("observed"),
        )
    return decision


def _speculation_note(site):
    for kind, attrs in site.events:
        if kind == "speculation":
            if attrs.get("speculate"):
                return "  [guard: coverage=%s site=%s]" % (
                    _fmt(attrs.get("coverage"), "%.2f"),
                    attrs.get("site") or "?",
                )
            return "  [fallback: %s coverage=%s]" % (
                attrs.get("reason"),
                _fmt(attrs.get("coverage"), "%.2f"),
            )
    return ""


def render_tree(compilation):
    """One compilation as a ``PrintInlining``-style indented tree."""
    lines = []
    header = "compile #%d %s" % (compilation.index, compilation.root or "?")
    if compilation.install is not None:
        header += " (%s IR nodes, %s machine instrs)" % (
            compilation.install.get("nodes"),
            compilation.install.get("code_size"),
        )
    lines.append(header)
    for site in collect_sites(compilation):
        bci = "@%s " % site.bci if site.bci >= 0 else ""
        lines.append(
            "%s%s%-28s %s%s"
            % (
                "  " * site.depth,
                bci,
                site.method,
                _verdict_line(site),
                _speculation_note(site),
            )
        )
    if compilation.terminate is not None:
        lines.append(
            "  terminated: %s (root %s nodes)"
            % (
                compilation.terminate.get("reason"),
                compilation.terminate.get("root_size"),
            )
        )
    return "\n".join(lines)


def render_site_history(compilations, root_pattern, site_pattern):
    """Every recorded decision for *site_pattern*, chronologically —
    the "why wasn't B.foo inlined into A.run?" answer."""
    lines = []
    matched = False
    for compilation in compilations:
        if not _matches(compilation.root, root_pattern):
            continue
        for site in collect_sites(compilation):
            if not _matches(site.method, site_pattern):
                continue
            matched = True
            where = " <- ".join(reversed(site.path)) or compilation.root
            bci = "@%d" % site.bci if site.bci >= 0 else ""
            lines.append(
                "%s%s into %s (compile #%d of %s):"
                % (site.method, bci, where, compilation.index,
                   compilation.root)
            )
            for kind, attrs in site.events:
                if kind == "typecheck":
                    # Type-check decisions are made once per build,
                    # outside the inlining rounds.
                    lines.append("  %s" % _event_line(kind, attrs))
                else:
                    lines.append("  round %s: %s" % (
                        attrs.get("round", "?"), _event_line(kind, attrs),
                    ))
            decision, reason, _ = site.verdict()
            lines.append(
                "  verdict: %s%s"
                % (decision, " (%s)" % reason if reason else "")
            )
    if not matched:
        roots = sorted({c.root for c in compilations if c.root})
        lines.append(
            "no recorded decision for site %r under root %r"
            % (site_pattern, root_pattern or "<any>")
        )
        lines.append(
            "recorded roots: %s" % (", ".join(roots) if roots else "<none>")
        )
    return "\n".join(lines)


def _event_line(kind, attrs):
    if kind == "expand":
        return "expand: B_L=%s |ir|=%s thr=%s prio=%s root_size=%s" % (
            _fmt(attrs.get("benefit"), "%.2f"),
            _fmt(attrs.get("size"), "%d"),
            _fmt(attrs.get("threshold")),
            _fmt(attrs.get("priority")),
            _fmt(attrs.get("root_size"), "%d"),
        )
    if kind == "decline":
        return (
            "declined expansion (%s): B_L=%s |ir|=%s thr=%s prio=%s "
            "root_size=%s"
            % (
                attrs.get("reason", "threshold"),
                _fmt(attrs.get("benefit"), "%.2f"),
                _fmt(attrs.get("size"), "%d"),
                _fmt(attrs.get("threshold")),
                _fmt(attrs.get("priority")),
                _fmt(attrs.get("root_size"), "%d"),
            )
        )
    if kind == "inline":
        return "inlined: ratio=%s thr=%s" % (
            _fmt(attrs.get("ratio")), _fmt(attrs.get("threshold")),
        )
    if kind == "reject":
        return "rejected (%s): ratio=%s thr=%s" % (
            attrs.get("reason", "threshold"),
            _fmt(attrs.get("ratio")), _fmt(attrs.get("threshold")),
        )
    if kind == "typeswitch":
        return "typeswitch over {%s}" % ", ".join(attrs.get("targets") or ())
    if kind == "speculation":
        return "speculation: %s (%s, coverage=%s)" % (
            "guard" if attrs.get("speculate") else "fallback",
            attrs.get("reason"),
            _fmt(attrs.get("coverage"), "%.2f"),
        )
    if kind == "typecheck":
        if attrs.get("speculate"):
            return "typecheck %s %s: speculated on exact %s (site %s)" % (
                attrs.get("check"),
                attrs.get("type"),
                attrs.get("observed"),
                attrs.get("site") or "?",
            )
        return "typecheck %s %s: kept (%s, observed=%s)" % (
            attrs.get("check"),
            attrs.get("type"),
            attrs.get("reason"),
            attrs.get("observed"),
        )
    return kind


def render_deopts(deopts, compilations):
    """The deopt timeline, each entry linked back to its guard."""
    lines = ["deopt timeline:"]
    guards = {}
    for compilation in compilations:
        for kind, attrs in compilation.decisions:
            if kind == "speculation" and attrs.get("site"):
                guards[attrs["site"]] = compilation.index
    for attrs in deopts:
        site = attrs.get("site")
        origin = (
            " (guard recorded in compile #%d)" % guards[site]
            if site in guards
            else ""
        )
        lines.append(
            "  deopt in %s at %s: %s%s"
            % (attrs.get("method"), site, attrs.get("reason"), origin)
        )
    return "\n".join(lines)


def render(records, root_pattern=None, site_pattern=None):
    """The full report for a record stream (see the CLI's modes)."""
    compilations, deopts = group_compilations(records)
    if site_pattern is not None:
        return render_site_history(compilations, root_pattern, site_pattern)
    selected = [
        c for c in compilations if _matches(c.root, root_pattern)
    ]
    parts = [render_tree(c) for c in selected]
    if not parts:
        roots = sorted({c.root for c in compilations if c.root})
        installs = sum(
            1 for r in records if r["kind"] in ("jit.install", "osr.install")
        )
        parts.append(
            "no recorded compilations%s"
            % (" for root %r" % root_pattern if root_pattern else "")
        )
        if not compilations and installs:
            parts.append(
                "(%d compilation(s) installed but no inlining provenance "
                "was recorded — only the incremental inliner traces its "
                "decisions; rerun with --inliner incremental)" % installs
            )
        if roots:
            parts.append("recorded roots: %s" % ", ".join(roots))
    if deopts:
        parts.append(render_deopts(deopts, compilations))
    return "\n\n".join(parts)


def _matches(name, pattern):
    if pattern is None:
        return True
    if name is None:
        return False
    return name == pattern or name.endswith("." + pattern)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _load_program(target):
    if target.endswith(".minij") or os.path.exists(target):
        return compile_file(target)
    from repro.bench.suite import get_benchmark

    try:
        return get_benchmark(target).load()
    except KeyError:
        raise SystemExit(
            "explain: %r is neither a file nor a registered benchmark"
            % target
        )


def _run_live(args):
    program = _load_program(args.target)
    obs = Observability(flight_capacity=args.capacity)
    engine = Engine(
        program,
        JitConfig(hot_threshold=args.hot_threshold),
        inliner=make_inliner(args.inliner),
        obs=obs,
    )
    class_name, method_name = args.entry
    for _ in range(args.iterations):
        engine.run_iteration(class_name, method_name)
    if args.save:
        obs.flight.save(args.save)
    return obs.flight.records()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.tools.explain", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target",
        help="minij source file, a registered benchmark name, or a "
             ".jsonl recording (flight dump or event log) to replay",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="treat TARGET as a JSONL recording (implied by a .jsonl "
             "suffix)",
    )
    parser.add_argument(
        "--root", metavar="METHOD", default=None,
        help="only explain compilations of this root (e.g. Main.run)",
    )
    parser.add_argument(
        "--site", metavar="METHOD", default=None,
        help="print the recorded verdict history for this callsite "
             "(e.g. B.foo): why it was or wasn't inlined",
    )
    parser.add_argument(
        "--entry", type=method_argument, default=("Main", "run"),
        help="entry point as Class.method (default Main.run)",
    )
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--hot-threshold", type=int, default=25)
    parser.add_argument(
        "--capacity", type=int, default=4096,
        help="flight-recorder ring capacity for live runs (default 4096)",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="also save the live run's flight recording to PATH as JSONL",
    )
    add_inliner_argument(parser)
    args = parser.parse_args(argv)

    if args.replay or args.target.endswith(".jsonl"):
        records = read_flight_jsonl(args.target)
    else:
        records = _run_live(args)
    print(render(records, root_pattern=args.root, site_pattern=args.site))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
